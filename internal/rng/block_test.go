package rng

import "testing"

// skipReference advances by drawing and discarding, the semantics Skip
// must reproduce exactly.
func skipReference(src *Philox4x32, n int) {
	var w [1]uint32
	for i := 0; i < n; i++ {
		src.Block(w[:])
	}
}

func TestSkipMatchesDiscard(t *testing.T) {
	for _, skip := range []int{0, 1, 2, 3, 4, 5, 7, 8, 13, 623, 624, 625, 4096, 10001} {
		a, b := NewPhiloxStream(99, 3), NewPhiloxStream(99, 3)
		a.Skip(skip)
		skipReference(b, skip)
		for i := 0; i < 16; i++ {
			if got, want := a.Uint64(), b.Uint64(); got != want {
				t.Fatalf("after Skip(%d), draw %d = %x, want %x", skip, i, got, want)
			}
		}
	}
}

func TestSkipInterleavedWithDraws(t *testing.T) {
	a := NewPhiloxStream(7, 1)
	b := NewPhiloxStream(7, 1)
	// Put both mid-block, then skip across block boundaries.
	a.Uint32()
	var w [1]uint32
	b.Block(w[:])
	a.Skip(6)
	skipReference(b, 6)
	if got, want := a.Uint64(), b.Uint64(); got != want {
		t.Fatalf("mid-block skip diverged: %x vs %x", got, want)
	}
}

// TestLazyBufferMatchesEager pins the core lazy-buffer invariant: the
// draw stream, including overflow past the block and across Refills,
// is identical to an eagerly generated block.
func TestLazyBufferMatchesEager(t *testing.T) {
	const capacity = 37 // odd, to exercise the unserved-tail word
	lazy := NewBuffer(capacity, NewPhiloxStream(5, 2))
	ref := NewPhiloxStream(5, 2)
	refBits := make([]uint32, capacity)
	for round := 0; round < 3; round++ {
		lazy.Refill()
		ref.Block(refBits)
		pos := 0
		// Consume an uneven mix: some draws inside the block, then
		// overflow beyond it.
		for i := 0; i < capacity/2+4; i++ {
			var want uint64
			if pos+2 <= capacity {
				want = uint64(refBits[pos])<<32 | uint64(refBits[pos+1])
				pos += 2
			} else {
				want = ref.Uint64()
			}
			if got := lazy.Uint64(); got != want {
				t.Fatalf("round %d draw %d: %x, want %x", round, i, got, want)
			}
		}
	}
}

// TestLazyBufferSaveStateMatchesEager asserts that a saved buffer state
// describes the block eager generation would have produced, even when
// the block is only partially consumed at save time: the compact state
// expands to the eager block's words, its end sits at the post-block
// position (past it after an overflow draw), and a buffer restored from
// it replays identically.
func TestLazyBufferSaveStateMatchesEager(t *testing.T) {
	const capacity = 640 // a default UNGM sub-filter's block
	lazy := NewBuffer(capacity, NewPhiloxStream(11, 4))
	ref := NewPhiloxStream(11, 4)
	refBits := make([]uint32, capacity)
	lazy.Refill()
	ref.Block(refBits)
	for i := 0; i < 5; i++ {
		lazy.Uint64()
	}
	check := func(wantPos, overflow int) {
		t.Helper()
		st := lazy.SaveState()
		if len(st.Words) != 1 || len(st.Sub) != 2 {
			t.Fatalf("saved %d words and %d sub-states, want the compact 1 and 2", len(st.Words), len(st.Sub))
		}
		if got := int(st.Words[0]); got != wantPos {
			t.Fatalf("saved pos %d, want %d", got, wantPos)
		}
		for i, w := range expandBufferState(t, st, capacity).Words[1:] {
			if w != refBits[i] {
				t.Fatalf("expanded block word %d = %x, want eager %x", i, w, refBits[i])
			}
		}
		// The saved end must sit at the post-block position, plus
		// the words overflow draws took from the fallback.
		var end Philox4x32
		if err := end.RestoreState(st.Sub[1]); err != nil {
			t.Fatal(err)
		}
		post := *ref
		post.Skip(overflow)
		if next := post; end.Uint64() != next.Uint64() {
			t.Fatal("restored end does not draw the stream past the block")
		}
		// And a restored buffer must replay what the eager buffer
		// draws: the rest of its block, then the stream past it.
		clone := NewBuffer(capacity, NewPhilox(0))
		if err := clone.RestoreState(st); err != nil {
			t.Fatal(err)
		}
		for p := wantPos; p < 2*capacity; p += 2 {
			var want uint64
			if p+2 <= capacity {
				want = uint64(refBits[p])<<32 | uint64(refBits[p+1])
			} else {
				want = post.Uint64()
			}
			if got := clone.Uint64(); got != want {
				t.Fatalf("restored draw at word %d: %x, want %x", p, got, want)
			}
		}
	}
	check(10, 0)
	for lazy.Remaining() > 0 {
		lazy.Uint64()
	}
	check(capacity, 0)
	lazy.Uint64()
	lazy.Uint64()
	check(capacity, 4)
}

func TestFillNormalsMatchesScalar(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 16, 33} {
		for _, preSpare := range []bool{false, true} {
			va := New(NewBuffer(256, NewPhiloxStream(21, 1)))
			vb := New(NewBuffer(256, NewPhiloxStream(21, 1)))
			va.src.(*Buffer).Refill()
			vb.src.(*Buffer).Refill()
			if preSpare {
				va.NormFloat64()
				vb.NormFloat64()
			}
			got := make([]float64, n)
			va.FillNormals(got)
			for i := 0; i < n; i++ {
				if want := vb.NormFloat64(); got[i] != want {
					t.Fatalf("n=%d preSpare=%v: normal %d = %v, want %v", n, preSpare, i, got[i], want)
				}
			}
			// Spare caches must agree so subsequent draws stay aligned.
			if ga, gb := va.NormFloat64(), vb.NormFloat64(); ga != gb {
				t.Fatalf("n=%d preSpare=%v: post-fill draw diverged: %v vs %v", n, preSpare, ga, gb)
			}
		}
	}
}

func TestFillNormalsSpansBlockOverflow(t *testing.T) {
	// A tiny block forces the buffered fast path to hand off to the
	// scalar overflow path mid-fill.
	va := New(NewBuffer(10, NewPhiloxStream(33, 2)))
	vb := New(NewBuffer(10, NewPhiloxStream(33, 2)))
	va.src.(*Buffer).Refill()
	vb.src.(*Buffer).Refill()
	got := make([]float64, 12)
	va.FillNormals(got)
	for i := range got {
		if want := vb.NormFloat64(); got[i] != want {
			t.Fatalf("normal %d = %v, want %v", i, got[i], want)
		}
	}
}

func TestFillUniformsMatchesScalar(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64, 200} {
		va := New(NewBuffer(128, NewPhiloxStream(44, 9)))
		vb := New(NewBuffer(128, NewPhiloxStream(44, 9)))
		va.src.(*Buffer).Refill()
		vb.src.(*Buffer).Refill()
		got := make([]float64, n)
		va.FillUniforms(got)
		for i := 0; i < n; i++ {
			if want := vb.Float64(); got[i] != want {
				t.Fatalf("n=%d: uniform %d = %v, want %v", n, i, got[i], want)
			}
		}
	}
}

func TestScratchDrawsAreReused(t *testing.T) {
	r := New(NewPhilox(1))
	a := r.Normals(16)
	b := r.Normals(8)
	if &a[0] != &b[0] {
		t.Error("Normals scratch was reallocated for a smaller request")
	}
}
