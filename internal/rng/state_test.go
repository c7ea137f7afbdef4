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
