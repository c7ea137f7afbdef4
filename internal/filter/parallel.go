package filter

import (
	"fmt"

	"esthera/internal/device"
	"esthera/internal/exchange"
	"esthera/internal/kernels"
	"esthera/internal/model"
	"esthera/internal/resample"
)

// Parallel is the many-core distributed particle filter — the paper's
// contribution — running on the device substrate with one work-group per
// sub-filter and the six kernels of §VI (see internal/kernels). Its
// algorithm is the same as Distributed; the two are cross-validated by
// tests.
type Parallel struct {
	p   *kernels.Pipeline
	dim int
}

// ParallelConfig maps DistributedConfig onto the kernel pipeline.
type ParallelConfig struct {
	// SubFilters (N), ParticlesPer (m), Scheme (X), ExchangeCount (t):
	// the Table I parameters.
	SubFilters    int
	ParticlesPer  int
	Scheme        exchange.Scheme
	ExchangeCount int
	// Resampler selects the resampling kernel (default RWS, the faster
	// choice at sub-filter sizes per Fig. 5).
	Resampler kernels.Algo
	// Policy defaults to Always.
	Policy resample.Policy
	// Estimator selects the global-estimate reduction (default
	// MaxWeight; WeightedMean uses the weighted-average kernel).
	Estimator Estimator
}

// ParseParallelConfig resolves the name-typed choices of a filter spec —
// exchange scheme, resampler, resampling policy and estimate operator,
// where "" selects ring, rws, always and max-weight — into a
// ParallelConfig whose shape fields the caller fills in. The root
// package's Config, serve's FilterSpec and `esthera track` all parse
// through it, so every entry point accepts exactly the same names.
func ParseParallelConfig(scheme, resampler, policy, estimator string) (ParallelConfig, error) {
	if scheme == "" {
		scheme = "ring"
	}
	var (
		cfg ParallelConfig
		err error
	)
	if cfg.Scheme, err = exchange.SchemeByName(scheme); err != nil {
		return cfg, err
	}
	if cfg.Resampler, err = kernels.AlgoByName(resampler); err != nil {
		return cfg, err
	}
	if cfg.Policy, err = resample.PolicyByName(policy); err != nil {
		return cfg, err
	}
	cfg.Estimator, err = EstimatorByName(estimator)
	return cfg, err
}

// NewParallel builds the filter on dev.
func NewParallel(dev *device.Device, m model.Model, cfg ParallelConfig, seed uint64) (*Parallel, error) {
	scheme := cfg.Scheme
	if cfg.ExchangeCount == 0 {
		scheme = exchange.None
	}
	top, err := exchange.NewTopology(scheme, cfg.SubFilters)
	if err != nil {
		return nil, err
	}
	pipe, err := kernels.New(dev, m, kernels.Config{
		SubFilters:    cfg.SubFilters,
		ParticlesPer:  cfg.ParticlesPer,
		ExchangeCount: cfg.ExchangeCount,
		Topology:      top,
		Resampler:     cfg.Resampler,
		Policy:        cfg.Policy,
		MeanEstimate:  cfg.Estimator == WeightedMean,
	}, seed)
	if err != nil {
		return nil, err
	}
	return &Parallel{p: pipe, dim: m.StateDim()}, nil
}

// Name implements Filter.
func (f *Parallel) Name() string { return "parallel" }

// Reset implements Filter.
func (f *Parallel) Reset(seed uint64) { f.p.Reset(seed) }

// Step implements Filter. It drives the fused round (kernels.Pipeline.
// RoundFused): bit-identical to the unfused kernel-per-launch sequence,
// but with the group-local phases collapsed into one launch.
func (f *Parallel) Step(u, z []float64) Estimate {
	state, lw := f.p.RoundFused(u, z, f.StepIndex()+1)
	// The pipeline reuses its estimate buffer; the Estimate escapes to
	// the caller, so copy.
	return Estimate{State: append([]float64(nil), state...), LogWeight: lw}
}

// Pipeline exposes the kernel pipeline (for the profiler-driven
// breakdown experiments and the serve layer's batch scheduler).
func (f *Parallel) Pipeline() *kernels.Pipeline { return f.p }

// StepIndex returns the number of rounds stepped since the last Reset,
// or since the restored snapshot's round.
func (f *Parallel) StepIndex() int { return int(f.p.Rounds()) }

// BatchStepper carries the reusable scratch of the batched stepping
// path: the kernels.Batcher (merged-launch tables and closures) and the
// BatchRound entries with their estimate buffers. Steady-state batches
// allocate only the returned estimates. Between batches it keeps no
// filter or input reachable, so a closed session can be collected. Not
// safe for concurrent use.
type BatchStepper struct {
	batcher *kernels.Batcher
	entries []kernels.BatchRound
	batch   []*kernels.BatchRound
}

// NewBatchStepper returns a stepper for filters built on dev.
func NewBatchStepper(dev *device.Device) *BatchStepper {
	return &BatchStepper{batcher: kernels.NewBatcher(dev)}
}

// StepBatch steps every filter in fs through one round with its own
// (u, z) inputs, coalescing the per-sub-filter kernels of all filters
// into shared launches on the stepper's device. Every filter must have
// been built on that device. Results are returned in input order.
func (bs *BatchStepper) StepBatch(fs []*Parallel, us, zs [][]float64) ([]Estimate, error) {
	if len(fs) != len(us) || len(fs) != len(zs) {
		return nil, fmt.Errorf("filter: batch length mismatch: %d filters, %d controls, %d measurements",
			len(fs), len(us), len(zs))
	}
	// Grow before taking entry pointers: append may move the backing
	// array, and the existing entries carry reusable State buffers.
	for len(bs.entries) < len(fs) {
		bs.entries = append(bs.entries, kernels.BatchRound{})
	}
	bs.batch = bs.batch[:0]
	for i, f := range fs {
		e := &bs.entries[i]
		e.P, e.U, e.Z, e.K = f.p, us[i], zs[i], f.StepIndex()+1
		bs.batch = append(bs.batch, e)
	}
	defer func() {
		for _, e := range bs.batch {
			e.P, e.U, e.Z = nil, nil, nil
		}
	}()
	if err := bs.batcher.Round(bs.batch); err != nil {
		return nil, err
	}
	out := make([]Estimate, len(fs))
	for i := range fs {
		e := &bs.entries[i]
		// The entry's State buffer is reused next batch; the Estimate
		// escapes to the caller, so copy.
		out[i] = Estimate{State: append([]float64(nil), e.State...), LogWeight: e.LogW}
	}
	return out, nil
}

// TotalParticles returns N·m.
func (f *Parallel) TotalParticles() int {
	c := f.p.Config()
	return c.SubFilters * c.ParticlesPer
}
