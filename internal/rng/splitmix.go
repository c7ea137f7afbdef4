package rng

// SplitMix64 is Steele, Lea & Flood's splittable generator. It passes
// BigCrush, has a full 2^64 period, and — most importantly here — turns an
// arbitrary (possibly poor) seed into a well-mixed state, which is why
// this package uses it to derive per-stream seeds for sub-filter
// generators.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Seed resets the generator state.
func (s *SplitMix64) Seed(seed uint64) { s.state = seed }

// Uint64 returns the next value of the sequence.
func (s *SplitMix64) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Mix64 applies the SplitMix64 finalizer to x. It is a strong 64-bit
// bijective mixer used to derive decorrelated stream seeds from
// (masterSeed, streamID) pairs.
func Mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// StreamSeed derives the seed for stream id from a master seed such that
// distinct (seed, id) pairs map to well-separated seeds.
func StreamSeed(master uint64, id int) uint64 {
	return Mix64(master ^ Mix64(uint64(id)+0x632BE59BD9B4E019))
}
