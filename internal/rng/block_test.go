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

// TestLazyBufferSaveStateMatchesEager asserts checkpoint bytes are what
// eager generation would have produced, even when the block is only
// partially consumed at save time.
func TestLazyBufferSaveStateMatchesEager(t *testing.T) {
	const capacity = 32
	lazy := NewBuffer(capacity, NewPhiloxStream(11, 4))
	ref := NewPhiloxStream(11, 4)
	refBits := make([]uint32, capacity)
	lazy.Refill()
	ref.Block(refBits)
	for i := 0; i < 5; i++ {
		lazy.Uint64()
	}
	st := lazy.SaveState()
	if got := int(st.Words[0]); got != 10 {
		t.Fatalf("saved pos %d, want 10", got)
	}
	for i, w := range st.Words[1:] {
		if w != refBits[i] {
			t.Fatalf("saved block word %d = %x, want eager %x", i, w, refBits[i])
		}
	}
	// The saved fallback must sit at the post-block position.
	if len(st.Sub) != 1 {
		t.Fatal("buffer state missing fallback sub-state")
	}
	var p Philox4x32
	if err := p.RestoreState(st.Sub[0]); err != nil {
		t.Fatal(err)
	}
	if got, want := p.Uint64(), ref.Uint64(); got != want {
		t.Fatalf("restored fallback draw %x, want %x", got, want)
	}
	// And a restored buffer must replay identically to the original.
	clone := NewBuffer(capacity, NewPhilox(0))
	if err := clone.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < capacity; i++ {
		if got, want := clone.Uint64(), lazy.Uint64(); got != want {
			t.Fatalf("restored draw %d: %x, want %x", i, got, want)
		}
	}
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
