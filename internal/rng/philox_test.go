package rng

import (
	"testing"
	"testing/quick"
)

// TestPhiloxKnownAnswer checks the all-zero known-answer test vector from
// the Random123 distribution.
func TestPhiloxKnownAnswer(t *testing.T) {
	got := Round4x32([2]uint32{0, 0}, [4]uint32{0, 0, 0, 0})
	want := [4]uint32{0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8}
	if got != want {
		t.Fatalf("philox4x32-10(0,0) = %08x, want %08x", got, want)
	}
}

// TestPhiloxBijection exercises the property that Philox is a bijection on
// counters for a fixed key: distinct counters map to distinct outputs.
func TestPhiloxBijection(t *testing.T) {
	key := [2]uint32{0xDEADBEEF, 0xCAFEF00D}
	seen := make(map[[4]uint32][4]uint32, 1<<14)
	for i := uint32(0); i < 1<<14; i++ {
		out := Round4x32(key, [4]uint32{i, 0, 0, 0})
		if prev, dup := seen[out]; dup {
			t.Fatalf("collision: counters %v and %v both map to %v", prev, [4]uint32{i, 0, 0, 0}, out)
		}
		seen[out] = [4]uint32{i, 0, 0, 0}
	}
}

// TestPhiloxCounterSensitivity: flipping any single counter bit changes
// roughly half of the output bits (avalanche).
func TestPhiloxCounterSensitivity(t *testing.T) {
	key := [2]uint32{1, 2}
	base := Round4x32(key, [4]uint32{10, 20, 30, 40})
	totalFlipped := 0
	cases := 0
	for word := 0; word < 4; word++ {
		for bit := uint(0); bit < 32; bit++ {
			ctr := [4]uint32{10, 20, 30, 40}
			ctr[word] ^= 1 << bit
			out := Round4x32(key, ctr)
			flipped := 0
			for w := 0; w < 4; w++ {
				x := out[w] ^ base[w]
				for x != 0 {
					flipped += int(x & 1)
					x >>= 1
				}
			}
			totalFlipped += flipped
			cases++
			if flipped < 20 {
				t.Fatalf("weak avalanche: word %d bit %d flipped only %d output bits", word, bit, flipped)
			}
		}
	}
	avg := float64(totalFlipped) / float64(cases)
	if avg < 58 || avg > 70 { // expect ≈ 64 of 128
		t.Fatalf("average avalanche %0.1f bits, want ≈ 64", avg)
	}
}

func TestPhiloxStreamIndependence(t *testing.T) {
	// Adjacent streams must not be correlated: compare 64-bit outputs of
	// streams 0 and 1 and count matching bits; expect ≈ 50%.
	a := NewPhiloxStream(42, 0)
	b := NewPhiloxStream(42, 1)
	match := 0
	const n = 10000
	for i := 0; i < n; i++ {
		x := a.Uint64() ^ b.Uint64()
		for x != 0 {
			match += int(x & 1)
			x >>= 1
		}
	}
	frac := float64(match) / float64(n*64)
	if frac < 0.49 || frac > 0.51 {
		t.Fatalf("inter-stream bit-difference fraction %v, want ≈ 0.5", frac)
	}
}

func TestPhiloxSetCounter(t *testing.T) {
	p := NewPhilox(7)
	// Consume 8 words = 2 blocks.
	for i := 0; i < 8; i++ {
		p.Uint32()
	}
	third := p.Uint32()
	q := NewPhilox(7)
	q.SetCounter(2, 0, 0, 0)
	if got := q.Uint32(); got != third {
		t.Fatalf("SetCounter(2): got %x, want %x", got, third)
	}
}

func TestPhiloxCounterCarry(t *testing.T) {
	p := NewPhilox(1)
	p.SetCounter(0xFFFFFFFF, 0xFFFFFFFF, 0, 0)
	p.refill()
	if p.ctr != [4]uint32{0, 0, 1, 0} {
		t.Fatalf("counter carry wrong: %v", p.ctr)
	}
}

// TestPhiloxBlockMatchesScalar checks Block, whose four-block path runs
// while 16 words remain and the low counter word cannot wrap, against
// word-at-a-time generation: every length that mixes the four-block,
// one-block and tail paths, from every count of buffered leftovers, at
// counters that stay clear of a carry and at counters that carry into
// the high words mid-fill. The next Uint64 must agree too, so Block
// leaves the stream where len(dst) Uint32 calls would.
func TestPhiloxBlockMatchesScalar(t *testing.T) {
	counters := [][4]uint32{
		{0, 0, 0, 0},
		{0xFFFFFFF8, 0xFFFFFFFF, 0, 0},
		{0xFFFFFFFB, 0xFFFFFFFF, 0, 0},
		{0xFFFFFFFC, 0xFFFFFFFF, 0, 0},
		{0xFFFFFFFD, 0xFFFFFFFF, 0, 0},
	}
	blk := make([]uint32, 70)
	for _, ctr := range counters {
		for leftover := 0; leftover < 4; leftover++ {
			for n := 0; n <= len(blk); n++ {
				a, b := NewPhilox(123), NewPhilox(123)
				a.SetCounter(ctr[0], ctr[1], ctr[2], ctr[3])
				b.SetCounter(ctr[0], ctr[1], ctr[2], ctr[3])
				for i := 0; i < (4-leftover)%4; i++ {
					a.Uint32()
					b.Uint32()
				}
				a.Block(blk[:n])
				for i, v := range blk[:n] {
					if w := b.Uint32(); v != w {
						t.Fatalf("ctr %x leftover %d len %d: word %d = %x, want %x", ctr, leftover, n, i, v, w)
					}
				}
				if got, want := a.Uint64(), b.Uint64(); got != want {
					t.Fatalf("ctr %x leftover %d len %d: next Uint64 %x, want %x", ctr, leftover, n, got, want)
				}
			}
		}
	}
	a, b := NewPhilox(123), NewPhilox(123)
	long := make([]uint32, 1003)
	a.Block(long)
	for i, v := range long {
		if w := b.Uint32(); v != w {
			t.Fatalf("block/scalar mismatch at %d: %x vs %x", i, v, w)
		}
	}
}

func TestPhiloxUniformity(t *testing.T) {
	checkUniformBits(t, NewPhilox(2024), 200000)
}

// TestPhiloxQuickDistinctSeeds is a property-based check: distinct seeds
// produce distinct first outputs (Philox is a PRF keyed by the seed).
func TestPhiloxQuickDistinctSeeds(t *testing.T) {
	f := func(s1, s2 uint64) bool {
		if s1 == s2 {
			return true
		}
		return NewPhilox(s1).Uint64() != NewPhilox(s2).Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
