package filter

import (
	"fmt"
	"math"

	"esthera/internal/exchange"
	"esthera/internal/model"
	"esthera/internal/resample"
	"esthera/internal/rng"
	"esthera/internal/sortnet"
)

// DistributedConfig collects the distributed-filter parameters of
// Table I plus the algorithmic choices of §IV.
type DistributedConfig struct {
	// SubFilters is N, the network size (Table I).
	SubFilters int
	// ParticlesPer is m, the sub-filter size (Table I).
	ParticlesPer int
	// Scheme is X, the exchange topology (Table I).
	Scheme exchange.Scheme
	// ExchangeCount is t, particles sent per neighbor pair (Table I).
	ExchangeCount int
	// Resampler defaults to RWS (the paper's parallel choice; Vose is
	// never faster at sub-filter sizes, Fig. 5).
	Resampler resample.Resampler
	// Policy defaults to Always (§IV: "frequent resampling generally
	// yields better results").
	Policy resample.Policy
	// Estimator defaults to MaxWeight.
	Estimator Estimator
}

// withDefaults validates cfg and fills defaults.
func (cfg DistributedConfig) withDefaults() (DistributedConfig, *exchange.Topology, error) {
	if cfg.SubFilters <= 0 {
		return cfg, nil, fmt.Errorf("filter: non-positive sub-filter count %d", cfg.SubFilters)
	}
	if cfg.ParticlesPer <= 0 {
		return cfg, nil, fmt.Errorf("filter: non-positive sub-filter size %d", cfg.ParticlesPer)
	}
	if cfg.ExchangeCount < 0 {
		return cfg, nil, fmt.Errorf("filter: negative exchange count %d", cfg.ExchangeCount)
	}
	if cfg.ExchangeCount == 0 {
		cfg.Scheme = exchange.None
	}
	if cfg.Resampler == nil {
		cfg.Resampler = resample.RWS{}
	}
	if cfg.Policy == nil {
		cfg.Policy = resample.Always{}
	}
	top, err := exchange.NewTopology(cfg.Scheme, cfg.SubFilters)
	if err != nil {
		return cfg, nil, err
	}
	// Incoming replacements must leave at least one native particle.
	incoming := top.MaxDegree() * cfg.ExchangeCount
	if cfg.Scheme == exchange.AllToAll {
		incoming = cfg.ExchangeCount
	}
	if incoming >= cfg.ParticlesPer {
		return cfg, nil, fmt.Errorf("filter: %d incoming exchange particles >= sub-filter size %d",
			incoming, cfg.ParticlesPer)
	}
	return cfg, top, nil
}

// Distributed is the sequential reference implementation of the paper's
// distributed particle filter (Algorithm 2): N independent sub-filters of
// m particles each; per round every sub-filter samples, weights, sorts,
// contributes to the global estimate, exchanges its best t particles with
// its topological neighbors, and resamples locally.
type Distributed struct {
	m   model.Model
	cfg DistributedConfig
	top *exchange.Topology
	dim int

	particles []float64 // N*m*dim
	next      []float64
	logw      []float64 // N*m, accumulated since last local resample
	w         []float64 // scratch linear weights per sub-filter round
	sortIdx   []int     // N*m permutation scratch
	drawIdx   []int     // m resample scratch
	outbox    []float64 // N*t*(dim+1): top-t states + logw per sub-filter
	poolIdx   []int     // all-to-all selection scratch

	streams []*rng.Rand // one per sub-filter
	hostR   *rng.Rand   // host-side randomness (policy draws for all-to-all etc.)
	k       int
}

// NewDistributed builds the sequential distributed filter.
func NewDistributed(m model.Model, cfg DistributedConfig, seed uint64) (*Distributed, error) {
	cfg, top, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	d := &Distributed{m: m, cfg: cfg, top: top, dim: m.StateDim()}
	n := cfg.SubFilters * cfg.ParticlesPer
	d.particles = make([]float64, n*d.dim)
	d.next = make([]float64, n*d.dim)
	d.logw = make([]float64, n)
	d.w = make([]float64, cfg.ParticlesPer)
	d.sortIdx = make([]int, n)
	d.drawIdx = make([]int, cfg.ParticlesPer)
	d.outbox = make([]float64, cfg.SubFilters*cfg.ExchangeCount*(d.dim+1))
	d.streams = make([]*rng.Rand, cfg.SubFilters)
	d.Reset(seed)
	return d, nil
}

// Name implements Filter.
func (d *Distributed) Name() string { return "distributed" }

// Config returns the validated configuration.
func (d *Distributed) Config() DistributedConfig { return d.cfg }

// TotalParticles returns N·m.
func (d *Distributed) TotalParticles() int { return d.cfg.SubFilters * d.cfg.ParticlesPer }

// Reset implements Filter.
func (d *Distributed) Reset(seed uint64) {
	d.k = 0
	d.hostR = rng.New(rng.NewPhiloxStream(seed, 0))
	for i := range d.streams {
		d.streams[i] = rng.New(rng.NewPhiloxStream(seed, i+1))
	}
	for s := 0; s < d.cfg.SubFilters; s++ {
		base := s * d.cfg.ParticlesPer * d.dim
		for i := 0; i < d.cfg.ParticlesPer; i++ {
			d.m.InitParticle(d.particles[base+i*d.dim:base+(i+1)*d.dim], d.streams[s])
		}
	}
	for i := range d.logw {
		d.logw[i] = 0
	}
}

// block returns sub-filter s's particle and log-weight slices.
func (d *Distributed) block(s int) (p []float64, logw []float64) {
	m := d.cfg.ParticlesPer
	return d.particles[s*m*d.dim : (s+1)*m*d.dim], d.logw[s*m : (s+1)*m]
}

// Step implements Filter, running Algorithm 2 once for every sub-filter.
func (d *Distributed) Step(u, z []float64) Estimate {
	d.k++
	m := d.cfg.ParticlesPer
	N := d.cfg.SubFilters

	// 1. Sample + weight (Algorithm 2 lines 3–7).
	for s := 0; s < N; s++ {
		r := d.streams[s]
		base := s * m * d.dim
		for i := 0; i < m; i++ {
			src := d.particles[base+i*d.dim : base+(i+1)*d.dim]
			dst := d.next[base+i*d.dim : base+(i+1)*d.dim]
			d.m.Step(dst, src, u, d.k, r)
			d.logw[s*m+i] += d.m.LogLikelihood(dst, z)
		}
	}
	d.particles, d.next = d.next, d.particles

	// 2. Sort each sub-filter by weight, descending (line 8), applying
	// the permutation to the particle payload.
	for s := 0; s < N; s++ {
		p, lw := d.block(s)
		idx := sortnet.ArgsortDescending(lw)
		nxt := d.next[s*m*d.dim : (s+1)*m*d.dim]
		nlw := d.w[:m]
		for i, src := range idx {
			copy(nxt[i*d.dim:(i+1)*d.dim], p[src*d.dim:(src+1)*d.dim])
			nlw[i] = lw[src]
		}
		copy(p, nxt)
		copy(lw, nlw)
	}

	// 3. Global estimate (line 9): best particle across sub-filters.
	est := d.estimate()

	// 4. Particle exchange (lines 10–14).
	d.exchangeParticles()

	// 5. Local resampling (lines 15–19).
	for s := 0; s < N; s++ {
		p, lw := d.block(s)
		normalizeLogWeights(lw, d.w[:m])
		if !d.cfg.Policy.ShouldResample(d.w[:m], d.streams[s]) {
			continue
		}
		d.cfg.Resampler.Resample(d.drawIdx, d.w[:m], d.streams[s])
		nxt := d.next[s*m*d.dim : (s+1)*m*d.dim]
		for i, src := range d.drawIdx {
			copy(nxt[i*d.dim:(i+1)*d.dim], p[src*d.dim:(src+1)*d.dim])
		}
		copy(p, nxt)
		for i := range lw {
			lw[i] = 0
		}
	}
	return est
}

// estimate condenses the (sorted) network state into the global estimate.
func (d *Distributed) estimate() Estimate {
	m := d.cfg.ParticlesPer
	if d.cfg.Estimator == WeightedMean {
		w := make([]float64, len(d.logw))
		maxLW := normalizeLogWeights(d.logw, w)
		return estimateFrom(WeightedMean, d.particles, w, d.dim, maxLW)
	}
	// Max weight: after sorting, each sub-filter's best is its slot 0.
	bestSub, bestLW := 0, math.Inf(-1)
	for s := 0; s < d.cfg.SubFilters; s++ {
		if lw := d.logw[s*m]; lw > bestLW {
			bestSub, bestLW = s, lw
		}
	}
	out := make([]float64, d.dim)
	base := bestSub * m * d.dim
	copy(out, d.particles[base:base+d.dim])
	return Estimate{State: out, LogWeight: bestLW}
}

// exchangeParticles implements the exchange schemes of §VI-E over the
// sorted particle blocks.
func (d *Distributed) exchangeParticles() {
	t := d.cfg.ExchangeCount
	if t == 0 || d.cfg.SubFilters == 1 || d.cfg.Scheme == exchange.None {
		return
	}
	m := d.cfg.ParticlesPer
	N := d.cfg.SubFilters
	stride := d.dim + 1

	// Stage every sub-filter's top-t particles (with their log-weights)
	// in the outbox; senders publish the same best set to every neighbor.
	for s := 0; s < N; s++ {
		p, lw := d.block(s)
		for i := 0; i < t; i++ {
			rec := d.outbox[(s*t+i)*stride : (s*t+i+1)*stride]
			copy(rec[:d.dim], p[i*d.dim:(i+1)*d.dim])
			rec[d.dim] = lw[i]
		}
	}

	if d.cfg.Scheme == exchange.AllToAll {
		// Select the globally best t of the pooled N·t and give the same
		// set to everyone (replacing each receiver's worst t).
		poolW := make([]float64, N*t)
		for i := range poolW {
			poolW[i] = d.outbox[i*stride+d.dim]
		}
		best := sortnet.TopK(poolW, t)
		for s := 0; s < N; s++ {
			p, lw := d.block(s)
			for i, src := range best {
				slot := m - t + i
				rec := d.outbox[src*stride : (src+1)*stride]
				copy(p[slot*d.dim:(slot+1)*d.dim], rec[:d.dim])
				lw[slot] = rec[d.dim]
			}
		}
		return
	}

	// Pairwise schemes: each receiver pulls t particles from every
	// neighbor into its worst slots.
	var nbuf []int
	for s := 0; s < N; s++ {
		nbuf = d.top.Neighbors(nbuf[:0], s)
		p, lw := d.block(s)
		slot := m - len(nbuf)*t
		for _, q := range nbuf {
			for i := 0; i < t; i++ {
				rec := d.outbox[(q*t+i)*stride : (q*t+i+1)*stride]
				copy(p[slot*d.dim:(slot+1)*d.dim], rec[:d.dim])
				lw[slot] = rec[d.dim]
				slot++
			}
		}
	}
}
