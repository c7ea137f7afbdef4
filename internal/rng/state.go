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
// count (11 words).
func (p *Philox4x32) SaveState() State {
	w := make([]uint32, 0, 11)
	w = append(w, p.key[0], p.key[1])
	w = append(w, p.ctr[0], p.ctr[1], p.ctr[2], p.ctr[3])
	w = append(w, p.buf[0], p.buf[1], p.buf[2], p.buf[3])
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

// SaveState implements Stateful: the read position followed by the whole
// block, with the fallback stream at the block's end (or past it, after
// an overflow draw) as a sub-state. The block is captured verbatim — it
// was generated before the fallback's saved position, so it cannot be
// regenerated from the sub-state alone. Its words are regenerated from
// the block's start state (a restored block is written as restored, and
// before the first Refill the block is zeros), so the saved bytes are
// exactly what generating the whole block at Refill would have produced.
func (b *Buffer) SaveState() State {
	w := make([]uint32, 1+b.size)
	w[0] = uint32(b.pos)
	end := b.fallback
	switch {
	case b.held != nil:
		copy(w[1:], b.held)
	case b.refilled:
		s := b.start
		s.Block(w[1:])
		if b.lag > 0 {
			end = &s
		}
	}
	return State{Kind: "buffer", Words: w, Sub: []State{end.SaveState()}}
}

// RestoreState implements Stateful. The buffer's capacity must match the
// saved block length; the restored block is held until the next Refill.
func (b *Buffer) RestoreState(st State) error {
	if st.Kind != "buffer" {
		return fmt.Errorf("rng: cannot restore %q state into buffer", st.Kind)
	}
	if len(st.Words) != b.size+1 {
		return fmt.Errorf("rng: buffer state block is %d words, buffer capacity %d",
			len(st.Words)-1, b.size)
	}
	pos := int(st.Words[0])
	if pos < 0 || pos > b.size {
		return fmt.Errorf("rng: buffer state position %d out of range [0,%d]", pos, b.size)
	}
	if len(st.Sub) != 1 {
		return fmt.Errorf("rng: buffer state has %d sub-states, want 1", len(st.Sub))
	}
	if err := b.fallback.RestoreState(st.Sub[0]); err != nil {
		return err
	}
	b.held = append([]uint32(nil), st.Words[1:]...)
	b.pos, b.lag = pos, 0
	b.refilled = true
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
