package filter

import (
	"fmt"

	"esthera/internal/model"
	"esthera/internal/resample"
	"esthera/internal/rng"
)

// Centralized is the classic sequential particle filter with resampling
// (Algorithm 1). It is the toolkit's accuracy and runtime reference,
// playing the role of the paper's sequential centralized C
// implementation.
type Centralized struct {
	m   model.Model
	n   int
	dim int

	particles []float64 // n × dim, AoS
	next      []float64
	logw      []float64
	w         []float64
	idx       []int

	rs        resample.Resampler
	policy    resample.Policy
	estimator Estimator
	r         *rng.Rand
	k         int
}

// CentralizedOptions configures NewCentralized. Zero values select the
// paper's defaults for the sequential centralized filter.
type CentralizedOptions struct {
	// Resampler defaults to Vose (the paper's choice for the sequential
	// centralized filter, Fig. 5).
	Resampler resample.Resampler
	// Policy defaults to Always.
	Policy resample.Policy
	// Estimator defaults to MaxWeight.
	Estimator Estimator
}

// NewCentralized builds a centralized filter over n particles of m,
// seeded deterministically by seed.
func NewCentralized(m model.Model, n int, seed uint64, opts CentralizedOptions) (*Centralized, error) {
	if n <= 0 {
		return nil, fmt.Errorf("filter: non-positive particle count %d", n)
	}
	c := &Centralized{
		m:         m,
		n:         n,
		dim:       m.StateDim(),
		rs:        opts.Resampler,
		policy:    opts.Policy,
		estimator: opts.Estimator,
	}
	if c.rs == nil {
		c.rs = resample.Vose{}
	}
	if c.policy == nil {
		c.policy = resample.Always{}
	}
	c.particles = make([]float64, n*c.dim)
	c.next = make([]float64, n*c.dim)
	c.logw = make([]float64, n)
	c.w = make([]float64, n)
	c.idx = make([]int, n)
	c.Reset(seed)
	return c, nil
}

// Name implements Filter.
func (c *Centralized) Name() string { return "centralized" }

// Reset implements Filter.
func (c *Centralized) Reset(seed uint64) {
	c.r = rng.New(rng.NewPhiloxStream(seed, 0))
	c.k = 0
	initParticles(c.m, c.particles, c.r)
	for i := range c.logw {
		c.logw[i] = 0
	}
}

// Step implements Filter.
func (c *Centralized) Step(u, z []float64) Estimate {
	c.k++
	// Sample + weight (Algorithm 1 lines 2–6). Log-weights accumulate
	// across steps so that "resample only sometimes" policies stay
	// correct (sequential importance sampling); a resample resets them.
	for i := 0; i < c.n; i++ {
		src := c.particles[i*c.dim : (i+1)*c.dim]
		dst := c.next[i*c.dim : (i+1)*c.dim]
		c.m.Step(dst, src, u, c.k, c.r)
		c.logw[i] += c.m.LogLikelihood(dst, z)
	}
	c.particles, c.next = c.next, c.particles
	maxLW := normalizeLogWeights(c.logw, c.w)
	est := estimateFrom(c.estimator, c.particles, c.w, c.dim, maxLW)

	// Resample (lines 7–11), if the policy says so.
	if c.policy.ShouldResample(c.w, c.r) {
		c.rs.Resample(c.idx, c.w, c.r)
		for i, src := range c.idx {
			copy(c.next[i*c.dim:(i+1)*c.dim], c.particles[src*c.dim:(src+1)*c.dim])
		}
		c.particles, c.next = c.next, c.particles
		for i := range c.logw {
			c.logw[i] = 0
		}
	}
	return est
}
