package rng

import (
	"testing"
	"testing/quick"
)

func TestSplitMixReproducibility(t *testing.T) {
	a, b := NewSplitMix64(0), NewSplitMix64(0)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("splitmix not deterministic")
		}
	}
}

func TestMix64Bijective(t *testing.T) {
	// Spot check injectivity over a dense window (a true bijection can't
	// collide anywhere).
	seen := make(map[uint64]uint64, 1<<16)
	for i := uint64(0); i < 1<<16; i++ {
		v := Mix64(i)
		if p, dup := seen[v]; dup {
			t.Fatalf("Mix64 collision: %d and %d -> %x", p, i, v)
		}
		seen[v] = i
	}
}

func TestStreamSeedDistinct(t *testing.T) {
	seen := make(map[uint64]int, 1<<14)
	for id := 0; id < 1<<14; id++ {
		s := StreamSeed(7, id)
		if p, dup := seen[s]; dup {
			t.Fatalf("StreamSeed collision between ids %d and %d", p, id)
		}
		seen[s] = id
	}
}

func TestMTGPStreamsDecorrelated(t *testing.T) {
	a := NewMTGP(1, 0)
	b := NewMTGP(1, 1)
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
		t.Fatalf("MTGP inter-stream bit-difference fraction %v, want ≈ 0.5", frac)
	}
}

func TestMTGPBlockMatchesScalar(t *testing.T) {
	a := NewMTGP(9, 3)
	b := NewMTGP(9, 3)
	blk := make([]uint32, 777)
	a.Block(blk)
	for i, v := range blk {
		if w := b.Uint32(); v != w {
			t.Fatalf("MTGP block/scalar mismatch at %d", i)
		}
	}
}

func TestMTGPUniformity(t *testing.T) {
	checkUniformBits(t, NewMTGP(4242, 17), 200000)
}

func TestMTGPSeedChangesStream(t *testing.T) {
	a := NewMTGP(1, 5)
	b := NewMTGP(2, 5)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 3 {
		t.Fatalf("different master seeds produced %d/1000 identical outputs", same)
	}
}

// TestQuickStreamSeedNoAdjacentCollision: property-based check that
// neighboring (master, id) pairs never collide.
func TestQuickStreamSeedNoAdjacentCollision(t *testing.T) {
	f := func(master uint64, id uint16) bool {
		a := StreamSeed(master, int(id))
		b := StreamSeed(master, int(id)+1)
		c := StreamSeed(master+1, int(id))
		return a != b && a != c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestNewDefaults(t *testing.T) {
	r := New(nil)
	if r.Source() == nil {
		t.Fatal("New(nil) must install a default source")
	}
	r.Seed(8)
	v1 := r.Uint64()
	r.Seed(8)
	if v2 := r.Uint64(); v1 != v2 {
		t.Fatal("Rand.Seed must reset the stream")
	}
}

func TestRandSeedClearsSpare(t *testing.T) {
	r := New(NewPhilox(1))
	_ = r.NormFloat64() // caches a spare
	r.Seed(1)
	a := r.NormFloat64()
	r2 := New(NewPhilox(1))
	if b := r2.NormFloat64(); a != b {
		t.Fatalf("spare not cleared by Seed: %v vs %v", a, b)
	}
}
