package filter

import (
	"fmt"

	"esthera/internal/exchange"
	"esthera/internal/model"
	"esthera/internal/resample"
	"esthera/internal/rng"
	"esthera/internal/sortnet"
)

// This file implements the alternative distributed particle filter
// designs of the related work (§III-B), used by the variants ablation:
//
//   - GDPF (Bashi et al.): sampling and weighting are partitioned over
//     sub-filters, but resampling is performed centrally over the whole
//     population.
//   - LDPF: local resampling with no communication — exactly our
//     Distributed with t = 0 (constructor alias below).
//   - CDPF: central resampling over a small compressed representative
//     set (the best c per sub-filter), redistributed to all sub-filters.
//   - RNA (Bolić et al.): local resampling followed by a particle
//     exchange step — structurally our Distributed with a ring exchange.
//   - RPA (Bolić et al.): two-stage resampling with proportional
//     allocation — sub-filters are allotted survivor counts proportional
//     to their total weight, then resample locally and redistribute.

// NewLDPF returns the Local Distributed PF: local resampling, no
// exchange.
func NewLDPF(m model.Model, subFilters, particlesPer int, seed uint64) (*Distributed, error) {
	return NewDistributed(m, DistributedConfig{
		SubFilters:   subFilters,
		ParticlesPer: particlesPer,
		Scheme:       exchange.None,
	}, seed)
}

// GDPF is the Global Distributed PF: partitioned sampling/weighting with
// centralized resampling over the full population every round.
type GDPF struct {
	m   model.Model
	N   int // sub-filters
	mp  int // particles per sub-filter
	dim int

	particles, next []float64
	logw, w         []float64
	idx             []int
	streams         []*rng.Rand
	hostR           *rng.Rand
	rs              resample.Resampler
	estimator       Estimator
	k               int
}

// NewGDPF builds the filter.
func NewGDPF(m model.Model, subFilters, particlesPer int, seed uint64) (*GDPF, error) {
	if subFilters <= 0 || particlesPer <= 0 {
		return nil, fmt.Errorf("filter: invalid GDPF shape %d×%d", subFilters, particlesPer)
	}
	g := &GDPF{m: m, N: subFilters, mp: particlesPer, dim: m.StateDim(), rs: resample.RWS{}}
	n := subFilters * particlesPer
	g.particles = make([]float64, n*g.dim)
	g.next = make([]float64, n*g.dim)
	g.logw = make([]float64, n)
	g.w = make([]float64, n)
	g.idx = make([]int, n)
	g.streams = make([]*rng.Rand, subFilters)
	g.Reset(seed)
	return g, nil
}

// Name implements Filter.
func (g *GDPF) Name() string { return "gdpf" }

// Reset implements Filter.
func (g *GDPF) Reset(seed uint64) {
	g.k = 0
	g.hostR = rng.New(rng.NewPhiloxStream(seed, 0))
	for s := range g.streams {
		g.streams[s] = rng.New(rng.NewPhiloxStream(seed, s+1))
	}
	for s := 0; s < g.N; s++ {
		base := s * g.mp * g.dim
		for i := 0; i < g.mp; i++ {
			g.m.InitParticle(g.particles[base+i*g.dim:base+(i+1)*g.dim], g.streams[s])
		}
	}
}

// Step implements Filter.
func (g *GDPF) Step(u, z []float64) Estimate {
	g.k++
	// Partitioned sampling + weighting.
	for s := 0; s < g.N; s++ {
		r := g.streams[s]
		base := s * g.mp * g.dim
		for i := 0; i < g.mp; i++ {
			src := g.particles[base+i*g.dim : base+(i+1)*g.dim]
			dst := g.next[base+i*g.dim : base+(i+1)*g.dim]
			g.m.Step(dst, src, u, g.k, r)
			g.logw[s*g.mp+i] = g.m.LogLikelihood(dst, z)
		}
	}
	g.particles, g.next = g.next, g.particles
	maxLW := normalizeLogWeights(g.logw, g.w)
	est := estimateFrom(g.estimator, g.particles, g.w, g.dim, maxLW)

	// Centralized resampling over the whole population — the design's
	// scalability bottleneck.
	g.rs.Resample(g.idx, g.w, g.hostR)
	for i, src := range g.idx {
		copy(g.next[i*g.dim:(i+1)*g.dim], g.particles[src*g.dim:(src+1)*g.dim])
	}
	g.particles, g.next = g.next, g.particles
	return est
}

// CDPF is the Compressed Distributed PF: each sub-filter contributes its
// best c particles to a compressed set, which is resampled centrally and
// broadcast back as every sub-filter's new population.
type CDPF struct {
	inner *GDPF
	c     int // representatives per sub-filter
}

// NewCDPF builds the filter with c representatives per sub-filter.
func NewCDPF(m model.Model, subFilters, particlesPer, c int, seed uint64) (*CDPF, error) {
	if c <= 0 || c > particlesPer {
		return nil, fmt.Errorf("filter: CDPF representatives %d out of (0,%d]", c, particlesPer)
	}
	inner, err := NewGDPF(m, subFilters, particlesPer, seed)
	if err != nil {
		return nil, err
	}
	return &CDPF{inner: inner, c: c}, nil
}

// Name implements Filter.
func (f *CDPF) Name() string { return "cdpf" }

// Reset implements Filter.
func (f *CDPF) Reset(seed uint64) { f.inner.Reset(seed) }

// Step implements Filter.
func (f *CDPF) Step(u, z []float64) Estimate {
	g := f.inner
	g.k++
	for s := 0; s < g.N; s++ {
		r := g.streams[s]
		base := s * g.mp * g.dim
		for i := 0; i < g.mp; i++ {
			src := g.particles[base+i*g.dim : base+(i+1)*g.dim]
			dst := g.next[base+i*g.dim : base+(i+1)*g.dim]
			g.m.Step(dst, src, u, g.k, r)
			g.logw[s*g.mp+i] = g.m.LogLikelihood(dst, z)
		}
	}
	g.particles, g.next = g.next, g.particles
	maxLW := normalizeLogWeights(g.logw, g.w)
	est := estimateFrom(g.estimator, g.particles, g.w, g.dim, maxLW)

	// Compress: best c per sub-filter.
	reps := make([]int, 0, g.N*f.c)
	for s := 0; s < g.N; s++ {
		blockW := g.w[s*g.mp : (s+1)*g.mp]
		for _, local := range sortnet.TopK(blockW, f.c) {
			reps = append(reps, s*g.mp+local)
		}
	}
	repW := make([]float64, len(reps))
	for i, idx := range reps {
		repW[i] = g.w[idx]
	}
	// Central resampling over the representatives only, results sent back
	// to every node.
	draws := make([]int, g.N*g.mp)
	g.rs.Resample(draws, repW, g.hostR)
	for i, d := range draws {
		src := reps[d]
		copy(g.next[i*g.dim:(i+1)*g.dim], g.particles[src*g.dim:(src+1)*g.dim])
	}
	g.particles, g.next = g.next, g.particles
	return est
}

// RPA is Resampling with Proportional Allocation: survivor counts are
// allotted to sub-filters in proportion to their local weight sums
// (largest-remainder rounding); each sub-filter then resamples its quota
// locally, and the concatenated survivors are redistributed round-robin
// so every sub-filter again holds an equal share.
type RPA struct {
	inner *GDPF
}

// NewRPA builds the filter.
func NewRPA(m model.Model, subFilters, particlesPer int, seed uint64) (*RPA, error) {
	inner, err := NewGDPF(m, subFilters, particlesPer, seed)
	if err != nil {
		return nil, err
	}
	return &RPA{inner: inner}, nil
}

// Name implements Filter.
func (f *RPA) Name() string { return "rpa" }

// Reset implements Filter.
func (f *RPA) Reset(seed uint64) { f.inner.Reset(seed) }

// Step implements Filter.
func (f *RPA) Step(u, z []float64) Estimate {
	g := f.inner
	g.k++
	for s := 0; s < g.N; s++ {
		r := g.streams[s]
		base := s * g.mp * g.dim
		for i := 0; i < g.mp; i++ {
			src := g.particles[base+i*g.dim : base+(i+1)*g.dim]
			dst := g.next[base+i*g.dim : base+(i+1)*g.dim]
			g.m.Step(dst, src, u, g.k, r)
			g.logw[s*g.mp+i] = g.m.LogLikelihood(dst, z)
		}
	}
	g.particles, g.next = g.next, g.particles
	maxLW := normalizeLogWeights(g.logw, g.w)
	est := estimateFrom(g.estimator, g.particles, g.w, g.dim, maxLW)

	// Stage 1: proportional allocation of survivor counts.
	sums := make([]float64, g.N)
	total := 0.0
	for s := 0; s < g.N; s++ {
		for i := 0; i < g.mp; i++ {
			sums[s] += g.w[s*g.mp+i]
		}
		total += sums[s]
	}
	n := g.N * g.mp
	counts := make([]int, g.N)
	rem := make([]float64, g.N)
	allotted := 0
	for s := 0; s < g.N; s++ {
		share := 0.0
		if total > 0 {
			share = float64(n) * sums[s] / total
		} else {
			share = float64(g.mp)
		}
		counts[s] = int(share)
		rem[s] = share - float64(counts[s])
		allotted += counts[s]
	}
	for allotted < n { // largest remainder
		best := 0
		for s := 1; s < g.N; s++ {
			if rem[s] > rem[best] {
				best = s
			}
		}
		counts[best]++
		rem[best] = -1
		allotted++
	}

	// Stage 2: local resampling of each quota, concatenated then dealt
	// back out round-robin.
	out := 0
	for s := 0; s < g.N; s++ {
		if counts[s] == 0 {
			continue
		}
		blockW := g.w[s*g.mp : (s+1)*g.mp]
		draws := make([]int, counts[s])
		g.rs.Resample(draws, blockW, g.streams[s])
		for _, local := range draws {
			src := s*g.mp + local
			copy(g.next[out*g.dim:(out+1)*g.dim], g.particles[src*g.dim:(src+1)*g.dim])
			out++
		}
	}
	g.particles, g.next = g.next, g.particles
	return est
}
