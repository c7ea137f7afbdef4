// Package rng provides the pseudo-random number generation substrate for
// the Esthera particle filter toolkit.
//
// Particle filters rely heavily on PRNGs (paper §VI-A): every sub-filter
// needs its own uncorrelated stream, and on many-core hardware the random
// numbers for a whole round are generated in one block by a dedicated
// kernel. The paper draws from MTGP, a Mersenne-Twister variant for
// GPUs; this package provides instead:
//
//   - Philox4x32-10, a counter-based generator in the Random123 family
//     and the one stream family of every filter in the toolkit, device
//     pipeline and sequential references alike: no shared state, O(1)
//     jump-ahead, and one independent stream per (seed, stream id).
//   - Buffer, the block of words the paper's separate PRNG kernel fills
//     per sub-filter per round.
//   - Mix64 and StreamSeed, the SplitMix64 finalizer used to derive
//     decorrelated per-stream seeds.
//
// Normal deviates are produced by Box-Muller, as in the paper, which added
// a Box-Muller transformation to its MTGP port.
package rng

import "math/bits"

// Source is a deterministic stream of pseudo-random 64-bit words.
//
// Implementations must be deterministic given the same seed, and must not
// be shared across goroutines without external synchronization; the filter
// layer gives every sub-filter its own Source.
type Source interface {
	// Uint64 returns the next 64 bits of the stream.
	Uint64() uint64
	// Seed re-initializes the stream. A Source seeded with the same value
	// reproduces the same sequence.
	Seed(seed uint64)
}

// New returns a Rand drawing from src. If src is nil it defaults to a
// Philox stream seeded with 1.
func New(src Source) *Rand {
	if src == nil {
		src = NewPhilox(1)
	}
	return &Rand{src: src}
}

// Rand layers distribution sampling on top of a raw Source. It is the
// single random-number façade used by the filters and models.
//
// Rand is not safe for concurrent use; create one per sub-filter.
type Rand struct {
	src Source

	// Box-Muller generates normals in pairs; the spare is cached here.
	haveSpare bool
	spare     float64

	// Reusable scratch for Normals; not part of the serialized state.
	normScratch []float64
}

// Source returns the underlying raw stream.
func (r *Rand) Source() Source { return r.src }

// Seed re-seeds the underlying source and clears cached state.
func (r *Rand) Seed(seed uint64) {
	r.src.Seed(seed)
	r.haveSpare = false
}

// Uint64 returns a uniformly distributed 64-bit word.
func (r *Rand) Uint64() uint64 { return r.src.Uint64() }

// Uint32 returns a uniformly distributed 32-bit word.
func (r *Rand) Uint32() uint32 { return uint32(r.src.Uint64() >> 32) }

// Float64 returns a uniform float64 in [0,1) with 53 random bits.
func (r *Rand) Float64() float64 {
	return float64(r.src.Uint64()>>11) * (1.0 / (1 << 53))
}

// OpenFloat64 returns a uniform float64 in the open interval (0,1),
// suitable as a Box-Muller or inverse-CDF input (never 0, never 1).
func (r *Rand) OpenFloat64() float64 {
	return (float64(r.src.Uint64()>>11) + 0.5) * (1.0 / (1 << 53))
}

// Intn returns a uniform int in [0,n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire-style bounded draw: the high half of v*n is uniform enough
	// for n ≪ 2^64 (the bias is < n/2^64, negligible at filter scales).
	v := r.src.Uint64()
	hi, _ := bits.Mul64(v, uint64(n))
	return int(hi)
}

// NormFloat64 returns a standard normal deviate (mean 0, stddev 1).
func (r *Rand) NormFloat64() float64 {
	if r.haveSpare {
		r.haveSpare = false
		return r.spare
	}
	z0, z1 := BoxMuller(r.OpenFloat64(), r.OpenFloat64())
	r.spare, r.haveSpare = z1, true
	return z0
}

// Normal returns a normal deviate with the given mean and standard
// deviation.
func (r *Rand) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}
