package rng

import (
	"fmt"
	"math"
)

// State is a serializable capture of a generator's complete position: the
// words a generator needs to resume exactly where it stopped, plus the
// states of any wrapped sources. It is plain data (JSON-marshalable,
// copyable with Clone) and is the unit the checkpoint/restore machinery
// of internal/serve persists per stream: a checkpointed filter restored
// from a State replays bit-identically to an uninterrupted run.
//
// Kind identifies the concrete generator ("philox", "buffer", "rand");
// RestoreState rejects a mismatched Kind so a checkpoint cannot be
// silently restored into the wrong stream family.
type State struct {
	Kind  string   `json:"kind"`
	Words []uint32 `json:"words,omitempty"`
	Sub   []State  `json:"sub,omitempty"`
}

// Clone returns a deep copy of the state.
func (s State) Clone() State {
	out := State{Kind: s.Kind}
	if len(s.Words) > 0 {
		out.Words = append([]uint32(nil), s.Words...)
	}
	for _, sub := range s.Sub {
		out.Sub = append(out.Sub, sub.Clone())
	}
	return out
}

// Stateful is a Source whose exact stream position can be captured and
// restored. All toolkit generators used by the device pipeline satisfy
// it.
type Stateful interface {
	// SaveState captures the complete generator state.
	SaveState() State
	// RestoreState repositions the generator; it fails if st was saved
	// from a different generator kind or has the wrong shape.
	RestoreState(st State) error
}

func checkState(st State, kind string, words int) error {
	if st.Kind != kind {
		return fmt.Errorf("rng: cannot restore %q state into %s stream", st.Kind, kind)
	}
	if len(st.Words) != words {
		return fmt.Errorf("rng: %s state has %d words, want %d", kind, len(st.Words), words)
	}
	return nil
}

// SaveState implements Stateful: key, counter, output buffer and unread
// count (11 words). Output words already read are written as zeros, so
// two streams at one position save the same words however they got
// there.
func (p *Philox4x32) SaveState() State {
	var buf [4]uint32
	copy(buf[4-p.n:], p.buf[4-p.n:])
	w := make([]uint32, 0, 11)
	w = append(w, p.key[0], p.key[1])
	w = append(w, p.ctr[0], p.ctr[1], p.ctr[2], p.ctr[3])
	w = append(w, buf[0], buf[1], buf[2], buf[3])
	w = append(w, uint32(p.n))
	return State{Kind: "philox", Words: w}
}

// RestoreState implements Stateful.
func (p *Philox4x32) RestoreState(st State) error {
	if err := checkState(st, "philox", 11); err != nil {
		return err
	}
	if st.Words[10] > 4 {
		return fmt.Errorf("rng: philox state has %d unread words, max 4", st.Words[10])
	}
	p.key[0], p.key[1] = st.Words[0], st.Words[1]
	copy(p.ctr[:], st.Words[2:6])
	copy(p.buf[:], st.Words[6:10])
	p.n = int(st.Words[10])
	return nil
}

// SaveState implements Stateful. A buffer is saved as its read position
// and two Philox states, the block's start and the fallback at the
// block's end (or past it, after an overflow draw): 23 words, from which
// RestoreState regenerates every word the block has left. Before the
// first Refill, and after Seed, the start is the fallback rewound by
// the block size: a read-out block that ends where the fallback stands.
//
// A block restored from the verbatim form — the read position followed
// by the block's words, with the fallback as the one sub-state, which
// checkpoints of version 1 carry — is written back in that form until
// the next Refill, since its words need not be any start's.
func (b *Buffer) SaveState() State {
	if b.held != nil {
		w := make([]uint32, 1+b.size)
		w[0] = uint32(b.pos)
		copy(w[1:], b.held)
		return State{Kind: "buffer", Words: w, Sub: []State{b.fallback.SaveState()}}
	}
	start, end := b.start, *b.fallback
	switch {
	case !b.refilled:
		start = end
		start.rewind(b.size)
	case b.lag > 0:
		end = start
		end.Skip(b.size)
	}
	return State{Kind: "buffer", Words: []uint32{uint32(b.pos)}, Sub: []State{start.SaveState(), end.SaveState()}}
}

// RestoreState implements Stateful. It reads both forms SaveState
// writes, and checks the whole state before it changes the buffer. A
// verbatim block must be as long as the buffer's capacity, and is held
// until the next Refill. A compact state's start and end must share a
// key, and its end must lie at the block's end — or past it when no
// pair of words is left to read, as after an overflow draw. The
// fallback is then the start skipped by the read position, or the saved
// end after an overflow draw.
func (b *Buffer) RestoreState(st State) error {
	if st.Kind != "buffer" {
		return fmt.Errorf("rng: cannot restore %q state into buffer", st.Kind)
	}
	if len(st.Words) == 0 {
		return fmt.Errorf("rng: buffer state has no read position")
	}
	pos := int(st.Words[0])
	if pos > b.size {
		return fmt.Errorf("rng: buffer state position %d out of range [0,%d]", pos, b.size)
	}
	switch {
	case len(st.Words) == 1 && len(st.Sub) == 2:
		return b.restoreCompact(pos, st.Sub[0], st.Sub[1])
	case len(st.Sub) != 1:
		return fmt.Errorf("rng: buffer state has %d words and %d sub-states, want 1 word and 2, or %d and 1",
			len(st.Words), len(st.Sub), b.size+1)
	case len(st.Words) != b.size+1:
		return fmt.Errorf("rng: buffer state block is %d words, buffer capacity %d",
			len(st.Words)-1, b.size)
	}
	if err := b.fallback.RestoreState(st.Sub[0]); err != nil {
		return err
	}
	b.held = make([]uint32, b.size) // non-nil even when empty: written back verbatim
	copy(b.held, st.Words[1:])
	b.pos, b.lag, b.ahead = pos, 0, 0
	b.refilled = true
	return nil
}

// restoreCompact restores a buffer from its block's start and end.
func (b *Buffer) restoreCompact(pos int, startSt, endSt State) error {
	var start, end Philox4x32
	if err := start.RestoreState(startSt); err != nil {
		return fmt.Errorf("rng: buffer block start: %w", err)
	}
	if err := end.RestoreState(endSt); err != nil {
		return fmt.Errorf("rng: buffer block end: %w", err)
	}
	if start.key != end.key {
		return fmt.Errorf("rng: buffer block start and end have different keys")
	}
	size := int64(b.size)
	span, ok := offset(&start, &end)
	switch {
	case !ok:
		return fmt.Errorf("rng: buffer state's end is 2^62 words or more from its start")
	case span < size:
		return fmt.Errorf("rng: buffer state ends %d words past its start, short of its %d-word block", span, b.size)
	case span > size && pos+2 <= b.size:
		return fmt.Errorf("rng: buffer state ends past its block with %d words unread", b.size-pos)
	}
	b.start, b.pos, b.ahead = start, pos, 0
	b.refilled, b.held = true, nil
	if span == size {
		*b.fallback = start
		b.fallback.Skip(pos)
		b.lag = b.size - pos
	} else {
		*b.fallback = end
		b.lag = 0
	}
	return nil
}

// SaveState implements Stateful: the Box-Muller spare cache, with the
// wrapped source as a sub-state. Word 3 once selected a second normal
// sampler; it is kept, always 0, so saved states keep their shape.
func (r *Rand) SaveState() State {
	w := make([]uint32, 4)
	if r.haveSpare {
		w[0] = 1
	}
	bits := math.Float64bits(r.spare)
	w[1] = uint32(bits)
	w[2] = uint32(bits >> 32)
	st := State{Kind: "rand", Words: w}
	if sf, ok := r.src.(Stateful); ok {
		st.Sub = []State{sf.SaveState()}
	}
	return st
}

// RestoreState implements Stateful.
func (r *Rand) RestoreState(st State) error {
	if err := checkState(st, "rand", 4); err != nil {
		return err
	}
	if st.Words[3] != 0 {
		return fmt.Errorf("rng: rand state selects normal sampler %d, only Box-Muller (0) exists", st.Words[3])
	}
	if len(st.Sub) > 0 {
		sf, ok := r.src.(Stateful)
		if !ok {
			return fmt.Errorf("rng: source %T cannot restore state", r.src)
		}
		if err := sf.RestoreState(st.Sub[0]); err != nil {
			return err
		}
	}
	r.haveSpare = st.Words[0] != 0
	r.spare = math.Float64frombits(uint64(st.Words[1]) | uint64(st.Words[2])<<32)
	return nil
}

var (
	_ Stateful = (*Philox4x32)(nil)
	_ Stateful = (*Buffer)(nil)
	_ Stateful = (*Rand)(nil)
)
