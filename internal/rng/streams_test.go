package rng

import (
	"testing"
	"testing/quick"
)

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
