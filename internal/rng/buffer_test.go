package rng

import "testing"

func TestBufferServesBlockThenFallsBack(t *testing.T) {
	// A buffer of 6 words serves 3 Uint64s from the block, then falls
	// back to the live stream for the rest — and the combined sequence
	// must equal the plain stream (Refill consumes the same words the
	// direct draws would).
	direct := NewPhilox(42)
	want := make([]uint64, 6)
	for i := range want {
		want[i] = direct.Uint64()
	}

	buf := NewBuffer(6, NewPhilox(42))
	if buf.Remaining() != 0 {
		t.Fatalf("fresh buffer remaining = %d, want 0 (starts exhausted)", buf.Remaining())
	}
	if n := buf.Refill(); n != 6 {
		t.Fatalf("Refill generated %d words, want 6", n)
	}
	if buf.Remaining() != 6 {
		t.Fatalf("remaining after refill = %d", buf.Remaining())
	}
	for i := 0; i < 6; i++ {
		if got := buf.Uint64(); got != want[i] {
			t.Fatalf("draw %d: %x, want %x", i, got, want[i])
		}
		wantRem := 6 - 2*(i+1)
		if wantRem < 0 {
			wantRem = 0
		}
		if i < 3 && buf.Remaining() != wantRem {
			t.Fatalf("remaining after draw %d = %d, want %d", i, buf.Remaining(), wantRem)
		}
	}
}

func TestBufferFallbackBeforeRefill(t *testing.T) {
	// Without Refill, every draw hits the fallback stream directly.
	buf := NewBuffer(8, NewPhilox(7))
	direct := NewPhilox(7)
	for i := 0; i < 4; i++ {
		if buf.Uint64() != direct.Uint64() {
			t.Fatalf("pre-refill draw %d diverged from fallback", i)
		}
	}
}

func TestBufferOddRemainderUsesFallback(t *testing.T) {
	// A 5-word block serves two Uint64s; the fifth word is stranded and
	// the third draw must come from the live stream.
	buf := NewBuffer(5, NewPhilox(9))
	buf.Refill()
	buf.Uint64()
	buf.Uint64()
	if buf.Remaining() != 1 {
		t.Fatalf("remaining = %d, want 1", buf.Remaining())
	}
	direct := NewPhilox(9)
	var skip [5]uint32
	direct.Block(skip[:]) // the refilled block
	want := direct.Uint64()
	if got := buf.Uint64(); got != want {
		t.Fatalf("stranded-word draw = %x, want fallback %x", got, want)
	}
}

func TestBufferSeedResets(t *testing.T) {
	buf := NewBuffer(4, NewPhilox(1))
	buf.Refill()
	buf.Uint64()
	buf.Seed(99)
	if buf.Remaining() != 0 {
		t.Fatal("Seed must discard the buffered block")
	}
	if buf.Uint64() != NewPhilox(99).Uint64() {
		t.Fatal("Seed did not reset the fallback stream")
	}
}

func TestBufferDeterministicRounds(t *testing.T) {
	// Two buffers with identical seeds and refill schedules produce
	// identical streams — the property the rand kernel relies on.
	mk := func() *Buffer { return NewBuffer(16, NewPhiloxStream(5, 3)) }
	a, b := mk(), mk()
	for round := 0; round < 5; round++ {
		a.Refill()
		b.Refill()
		for i := 0; i < 10; i++ { // 10 > 8: exercises overflow too
			if a.Uint64() != b.Uint64() {
				t.Fatalf("round %d draw %d diverged", round, i)
			}
		}
	}
}

func TestRandAuxiliaryMethods(t *testing.T) {
	r := New(NewPhilox(3))
	if v := r.Uint32(); v == r.Uint32() {
		// Two consecutive 32-bit draws colliding is ~2^-32; treat as failure.
		t.Fatal("consecutive Uint32 draws identical")
	}
	// Normal scales and shifts.
	sum := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		sum += r.Normal(5, 2)
	}
	if m := sum / n; m < 4.9 || m > 5.1 {
		t.Fatalf("Normal(5,2) mean %v", m)
	}
}
