package rng

import (
	"encoding/json"
	"testing"
)

// drain pulls n words from a source.
func drain(s Source, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = s.Uint64()
	}
	return out
}

func TestStateRoundtrip(t *testing.T) {
	cases := []struct {
		name string
		make func() interface {
			Source
			Stateful
		}
	}{
		{"philox", func() interface {
			Source
			Stateful
		} {
			return NewPhiloxStream(42, 3)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := tc.make()
			drain(src, 137) // advance to an arbitrary position
			st := src.SaveState()

			// JSON roundtrip, as the serve checkpoint path does.
			blob, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			var back State
			if err := json.Unmarshal(blob, &back); err != nil {
				t.Fatal(err)
			}

			want := drain(src, 64)
			fresh := tc.make()
			if err := fresh.RestoreState(back); err != nil {
				t.Fatal(err)
			}
			got := drain(fresh, 64)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("word %d: restored stream %#x != original %#x", i, got[i], want[i])
				}
			}
		})
	}
}

func TestStateRoundtripBufferAndRand(t *testing.T) {
	mk := func() *Rand {
		return New(NewBuffer(64, NewPhiloxStream(9, 5)))
	}
	r := mk()
	buf := r.Source().(*Buffer)
	buf.Refill()
	// Consume an odd mix: buffered words, a normal (caching a Box-Muller
	// spare), more uniforms past the block end.
	for i := 0; i < 13; i++ {
		r.Float64()
	}
	r.NormFloat64()
	st := r.SaveState()

	want := make([]float64, 80)
	for i := range want {
		want[i] = r.NormFloat64()
	}

	fresh := mk()
	if err := fresh.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got := fresh.NormFloat64(); got != want[i] {
			t.Fatalf("draw %d: restored %v != original %v", i, got, want[i])
		}
	}
}

func TestStateKindMismatch(t *testing.T) {
	p := NewPhilox(1)
	// An MTGP stream state, as checkpoints of the retired "mtgp"
	// stream family carried.
	if err := p.RestoreState(State{Kind: "mtgp", Words: make([]uint32, 6)}); err == nil {
		t.Fatal("philox accepted mtgp state")
	}
	var r Rand
	r.src = p
	if err := r.RestoreState(p.SaveState()); err == nil {
		t.Fatal("rand accepted philox state")
	}
	b := NewBuffer(8, NewPhilox(1))
	big := NewBuffer(16, NewPhilox(1))
	if err := b.RestoreState(big.SaveState()); err == nil {
		t.Fatal("buffer accepted state with mismatched capacity")
	}
	noSub := b.SaveState()
	noSub.Sub = nil
	if err := b.RestoreState(noSub); err == nil {
		t.Fatal("buffer accepted state without its stream's sub-state")
	}
}

// TestRandStateSamplerWord pins word 3 of a saved Rand state: it is
// always written as 0, and a state that selects any other normal sampler
// is rejected instead of being replayed with Box-Muller.
func TestRandStateSamplerWord(t *testing.T) {
	r := New(NewPhilox(4))
	r.NormFloat64()
	st := r.SaveState()
	if st.Words[3] != 0 {
		t.Fatalf("saved sampler word = %d, want 0", st.Words[3])
	}
	bad := st.Clone()
	bad.Words[3] = 1
	if err := New(NewPhilox(4)).RestoreState(bad); err == nil {
		t.Fatal("rand accepted a state whose sampler word is 1")
	}
	if err := New(NewPhilox(4)).RestoreState(st); err != nil {
		t.Fatalf("rand rejected its own state: %v", err)
	}
}

// TestBufferRejectsMalformedCompactState feeds a buffer compact states
// that no buffer saves. Each must be an error, and the buffer must go
// on drawing exactly as an untouched twin does.
func TestBufferRejectsMalformedCompactState(t *testing.T) {
	const size = 64
	mk := func() *Buffer {
		b := NewBuffer(size, NewPhiloxStream(3, 2))
		b.Refill()
		for i := 0; i < 5; i++ {
			b.Uint64()
		}
		return b
	}
	good := mk().SaveState()
	startAt := func(skip int) State {
		var p Philox4x32
		if err := p.RestoreState(good.Sub[0]); err != nil {
			t.Fatal(err)
		}
		p.Skip(skip)
		return p.SaveState()
	}
	edit := func(f func(st *State)) State {
		st := good.Clone()
		f(&st)
		return st
	}
	for name, st := range map[string]State{
		"position past the block": edit(func(st *State) { st.Words[0] = size + 1 }),
		"no position":             edit(func(st *State) { st.Words = nil }),
		"missing end":             edit(func(st *State) { st.Sub = st.Sub[:1] }),
		"three sub-states":        edit(func(st *State) { st.Sub = append(st.Sub, st.Sub[1]) }),
		"end of another kind":     edit(func(st *State) { st.Sub[1].Kind = "rand" }),
		"end with 12 words":       edit(func(st *State) { st.Sub[1].Words = append(st.Sub[1].Words, 0) }),
		"start and end keys differ": edit(func(st *State) {
			st.Sub[1].Words[0]++
		}),
		"end short of start + size": edit(func(st *State) { st.Sub[1] = startAt(size - 1) }),
		"end at the start":          edit(func(st *State) { st.Sub[1] = startAt(0) }),
		"end past the block with words left": edit(func(st *State) {
			st.Sub[1] = startAt(size + 4)
		}),
		"end far past the block": edit(func(st *State) {
			st.Words[0] = size
			st.Sub[1].Words[5] ^= 1 << 31 // the counter's top word
		}),
	} {
		b, twin := mk(), mk()
		if err := b.RestoreState(st); err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		b.Refill()
		twin.Refill()
		for i := 0; i < size; i++ {
			if b.Uint64() != twin.Uint64() {
				t.Fatalf("%s: a rejected state moved the buffer's stream (draw %d)", name, i)
			}
		}
	}
	if err := mk().RestoreState(good); err != nil {
		t.Fatalf("good state rejected: %v", err)
	}
}

// TestPhiloxRewindUndoesSkip checks rewind against Skip at every offset
// within a few blocks, from a fresh stream (where rewinding wraps the
// counter below zero) and from a stream with buffered words.
func TestPhiloxRewindUndoesSkip(t *testing.T) {
	for _, drawn := range []int{0, 1, 6, 37} {
		for n := 0; n < 20; n++ {
			p := NewPhiloxStream(8, 1)
			p.Skip(drawn)
			q := *p
			q.rewind(n)
			if d, ok := offset(&q, p); !ok || d != int64(n) {
				t.Fatalf("drawn %d: rewind(%d) lands %d words back (ok %v)", drawn, n, d, ok)
			}
			q.Skip(n)
			for i := 0; i < 6; i++ {
				if a, b := q.Uint32(), p.Uint32(); a != b {
					t.Fatalf("drawn %d: rewind(%d) then Skip draws %x, want %x", drawn, n, a, b)
				}
			}
		}
	}
	p := NewPhiloxStream(8, 1)
	p.Skip(9)
	want := p.Uint32()
	q := NewPhiloxStream(8, 1)
	q.Skip(12)
	q.rewind(3)
	if got := q.Uint32(); got != want {
		t.Fatalf("rewind inside a block draws %x, want %x", got, want)
	}
}
