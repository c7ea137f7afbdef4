package rng

// Buffer is a Source that serves a block of 32-bit words per round,
// falling back to an underlying stream when the block is exhausted.
//
// It realizes the paper's kernel split (§VI-A): a dedicated PRNG kernel
// fills a block of random words per sub-filter per round (keeping the
// PRNG's large state out of the other kernels), and the sampling and
// resampling kernels then consume words from the block. Refill is the
// PRNG kernel's work; Uint64 is what the consumers see.
//
// The block is held as stream positions, not words. Philox is counter
// based, so a block is a pure function of the fallback's state at its
// first word: Refill copies that state (48 bytes) and rewinds the read
// position, and draws then take the block's words straight from the
// fallback in block order — bulk draws through a fixed stack chunk,
// scalar draws through a 16-word run. The observable 32-bit word stream —
// which words land at which block positions, and where the fallback
// stands at every consumption point — is identical to generating the
// whole block at Refill: the unread tail of a block is never computed,
// its stream positions skipped at the next Refill. SaveState writes
// positions too, the start copy and the fallback at the block's end,
// and RestoreState regenerates the block from them. A block restored
// from a verbatim state (its words, as version 1 checkpoints carry them)
// is held exactly as restored until the next Refill, since its words
// need not be any start state's.
//
// The run is generated ahead of the scalar draws in one Block call,
// four Philox blocks at a time, rather than one four-word block per
// Uint64 call: models without a native VecModel draw every transition
// through Uint64.
type Buffer struct {
	size int // block capacity in words
	pos  int // next unread word
	// lag is how many words the fallback trails the block's end: size
	// minus pos minus ahead while draws come from the fallback, 0 once
	// an overflow draw has stepped it past the block, for a block
	// restored verbatim and before the first Refill.
	lag      int
	ahead    int               // unread words at the end of run; Refill empties it
	run      [bufferRun]uint32 // block words generated ahead of scalar draws
	start    Philox4x32        // the fallback at the block's first word
	refilled bool              // a block has started; before that start is unset
	held     []uint32          // a block restored verbatim, served as such until the next Refill
	fallback *Philox4x32
}

// bufferRun is the scalar-draw run length: four Philox blocks, the
// span one four-way Block step generates.
const bufferRun = 16

// bufferChunk is the stack chunk bulk draws generate block words
// through: a multiple of four, so every chunk holds whole Box–Muller
// word quadruples and uniform pairs.
const bufferChunk = 128

// NewBuffer creates a buffer of capacity words backed by fallback, which
// both refills the block and serves overflow draws. The buffer starts
// exhausted; call Refill (the PRNG-kernel step) before drawing, or every
// draw silently hits the fallback.
func NewBuffer(capacity int, fallback *Philox4x32) *Buffer {
	return &Buffer{size: capacity, pos: capacity, fallback: fallback}
}

// Refill starts a fresh block: the fallback is advanced past the unread
// tail of the previous block (O(1): Philox jumps its counter), its state
// becomes the new block's start, and the read position rewinds. It
// returns the block capacity, which the PRNG kernel accounts as work —
// the device-model cost of the paper's PRNG kernel, independent of the
// host-side realization.
//
//esthera:hotpath noalloc bce
func (b *Buffer) Refill() int {
	b.fallback.Skip(b.lag)
	b.start = *b.fallback
	b.pos, b.lag, b.ahead = 0, b.size, 0
	b.refilled = true
	b.held = nil
	return b.size
}

// Remaining returns the unread words left in the block.
func (b *Buffer) Remaining() int { return b.size - b.pos }

// take consumes the next min(n, len(chunk)) block words and returns
// them: the unread run words, then words generated into chunk from the
// fallback, or a slice of a restored block. The caller guarantees that
// n words remain. It is the bulk-draw path of Rand.FillNormals and
// FillUniforms, which cut the returned slice once per chunk, outside
// their per-element loops.
//
//esthera:hotpath noalloc bce
func (b *Buffer) take(chunk []uint32, n int) []uint32 {
	n = min(n, len(chunk))
	var w []uint32
	if b.held != nil {
		w = b.held[b.pos : b.pos+n : b.pos+n]
	} else {
		w = chunk[:n:n]
		k := copy(w, b.run[len(b.run)-b.ahead:])
		b.ahead -= k
		b.fallback.Block(w[k:])
		b.lag -= n - k
	}
	b.pos += n
	return w
}

// Uint64 serves two block words, or delegates to the fallback stream
// when fewer than two remain.
//
//esthera:hotpath noalloc bce
func (b *Buffer) Uint64() uint64 {
	if b.pos+2 <= b.size {
		b.pos += 2
		if b.held != nil {
			w := b.held[b.pos-2 : b.pos : b.pos]
			return uint64(w[0])<<32 | uint64(w[1])
		}
		if b.ahead >= 2 {
			i := len(b.run) - b.ahead
			b.ahead -= 2
			w := b.run[i : i+2 : i+2]
			return uint64(w[0])<<32 | uint64(w[1])
		}
		hi := b.word()
		return uint64(hi)<<32 | uint64(b.word())
	}
	// Overflow: a whole block would have been generated before the
	// fallback was reached, so step past the unread tail first. The
	// stranded odd word, if any, stays unread.
	b.fallback.Skip(b.lag)
	b.lag = 0
	return b.fallback.Uint64()
}

// word consumes the next run word, generating the next run first when
// the last one is spent. A run ends at the block's end, and a run that
// starts inside a Philox block is cut short by the words the fallback
// holds unread, so that the next one starts on a block boundary and
// takes the four-way path.
//
//esthera:hotpath noalloc bce
func (b *Buffer) word() uint32 {
	if b.ahead == 0 {
		n := min(b.lag, bufferRun-((4-b.fallback.n)&3))
		b.fallback.Block(b.run[bufferRun-n:])
		b.lag -= n
		b.ahead = n
	}
	w := b.run[len(b.run)-b.ahead]
	b.ahead--
	return w
}

// Seed reseeds the fallback stream and discards the buffered block: the
// buffer is as NewBuffer left it.
func (b *Buffer) Seed(seed uint64) {
	b.fallback.Seed(seed)
	b.pos, b.lag, b.ahead = b.size, 0, 0
	b.refilled, b.held = false, nil
}

var _ Source = (*Buffer)(nil)
