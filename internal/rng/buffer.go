package rng

// Buffer is a Source that serves pre-generated 32-bit words from a block,
// falling back to an underlying stream when the block is exhausted.
//
// It realizes the paper's kernel split (§VI-A): a dedicated PRNG kernel
// fills a block of random words per sub-filter per round (keeping the
// PRNG's large state out of the other kernels), and the sampling and
// resampling kernels then consume words from the block. Refill is the
// PRNG kernel's work; Uint64 is what the consumers see.
//
// Generation is lazy: Refill only repositions the block, and words are
// materialized from the fallback on first read (in chunks for scalar
// draws, exactly-sized for block draws). The observable 32-bit word
// stream — which words land at which block positions, and where the
// fallback stands at every consumption point — is identical to eager
// generation; the unconsumed tail of a block is simply never computed,
// its stream positions skipped at the next Refill. Sub-filter rounds
// consume well under half their block in typical configurations, so
// this halves PRNG work without moving a single draw.
type Buffer struct {
	bits     []uint32
	pos      int // next unread word
	gen      int // words of bits materialized since the last Refill
	fallback *Philox4x32
}

// bufferChunk is the scalar-path materialization granule: enough to
// amortize the fallback call, small enough that the over-generated tail
// (at most bufferChunk-1 words, skipped at the next Refill) stays cheap.
const bufferChunk = 64

// NewBuffer creates a buffer of capacity words backed by fallback, which
// both refills the block and serves overflow draws. The buffer starts
// exhausted; call Refill (the PRNG-kernel step) before drawing, or every
// draw silently hits the fallback.
func NewBuffer(capacity int, fallback *Philox4x32) *Buffer {
	b := &Buffer{bits: make([]uint32, capacity), fallback: fallback}
	b.pos = len(b.bits)
	b.gen = len(b.bits)
	return b
}

// Refill starts a fresh block: the fallback is advanced past the
// unmaterialized tail of the previous block (O(1): Philox jumps its
// counter) and the read position rewinds. It returns the block capacity,
// which the PRNG kernel accounts as work — the device-model cost of the
// paper's PRNG kernel, independent of the lazy host-side realization.
//
//esthera:hotpath noalloc bce
func (b *Buffer) Refill() int {
	b.fallback.Skip(len(b.bits) - b.gen)
	b.pos, b.gen = 0, 0
	return len(b.bits)
}

// Remaining returns the unread words left in the block.
func (b *Buffer) Remaining() int { return len(b.bits) - b.pos }

// materializeTo generates block words up to position target (clamped to
// capacity). Positions below gen are already materialized and never
// regenerated, so every block word is produced at most once.
func (b *Buffer) materializeTo(target int) {
	if target > len(b.bits) {
		target = len(b.bits)
	}
	if target <= b.gen {
		return
	}
	b.fallback.Block(b.bits[b.gen:target])
	b.gen = target
}

// take returns the next n block words (materializing them as needed) and
// consumes them, or nil if fewer than n remain in the block. It is the
// bulk-draw fast path used by Rand.FillNormals/FillUniforms.
//
//esthera:hotpath noalloc bce
func (b *Buffer) take(n int) []uint32 {
	if b.pos+n > len(b.bits) {
		return nil
	}
	b.materializeTo(b.pos + n)
	w := b.bits[b.pos : b.pos+n : b.pos+n]
	b.pos += n
	return w
}

// Uint64 serves two buffered words, or delegates to the fallback stream
// when fewer than two remain.
//
//esthera:hotpath noalloc bce
func (b *Buffer) Uint64() uint64 {
	if b.pos+2 <= len(b.bits) {
		if b.pos+2 > b.gen {
			b.materializeTo(b.pos + bufferChunk)
		}
		hi := uint64(b.bits[b.pos])
		lo := uint64(b.bits[b.pos+1])
		b.pos += 2
		return hi<<32 | lo
	}
	// Overflow: the eager pipeline had generated the whole block before
	// reaching the fallback, so materialize the tail to put the fallback
	// at the same stream position before delegating.
	b.materializeTo(len(b.bits))
	return b.fallback.Uint64()
}

// Seed reseeds the fallback stream and discards the buffered block.
func (b *Buffer) Seed(seed uint64) {
	b.fallback.Seed(seed)
	b.pos = len(b.bits)
	b.gen = len(b.bits)
}

var _ Source = (*Buffer)(nil)
