package rng

// Mix64 applies the SplitMix64 finalizer (Steele, Lea & Flood) to x. It
// is a strong 64-bit bijective mixer used to derive decorrelated stream
// seeds from (masterSeed, streamID) pairs.
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
