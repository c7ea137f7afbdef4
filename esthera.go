package esthera

import (
	"fmt"

	"esthera/internal/cluster"
	"esthera/internal/control"
	"esthera/internal/device"
	"esthera/internal/filter"
	"esthera/internal/metrics"
	"esthera/internal/model"
	"esthera/internal/model/arm"
	"esthera/internal/resample"
)

// Core interfaces, re-exported so user code needs only this package.
type (
	// Model is a dynamical system a filter can estimate; see the
	// interface documentation in internal/model.
	Model = model.Model
	// Linearizable additionally exposes Jacobians and noise covariances
	// for the Kalman baselines.
	Linearizable = model.Linearizable
	// Scenario couples a model with ground truth and controls for
	// benchmarking.
	Scenario = model.Scenario
	// Filter is a recursive state estimator.
	Filter = filter.Filter
	// Estimate is one filtering step's output.
	Estimate = filter.Estimate
)

// Config collects the distributed-filter parameters of the paper's
// Table I plus the algorithmic choices of §IV, in a flag-friendly form.
type Config struct {
	// SubFilters is the network size N.
	SubFilters int
	// ParticlesPerSubFilter is the sub-filter size m.
	ParticlesPerSubFilter int
	// ExchangeScheme is "ring" (default), "torus", "all-to-all" or
	// "none".
	ExchangeScheme string
	// ExchangeCount is t, the particles sent per neighbor pair.
	ExchangeCount int
	// Resampler is "rws" (default), "vose" or "systematic".
	Resampler string
	// Policy is "always" (default), "never", "ess" / "ess:<frac>" or
	// "random" / "random:<p>".
	Policy string
	// Estimator is "max-weight" (default, the paper's operator) or
	// "weighted-mean".
	Estimator string
	// Seed derives every random stream; equal seeds reproduce runs
	// exactly.
	Seed uint64
	// Workers sizes the host device (0 = GOMAXPROCS).
	Workers int
}

// DefaultConfig returns the paper's Table II defaults for GPU-class
// hardware: 128 particles per sub-filter, 120 sub-filters, ring exchange
// of one particle per neighbor.
func DefaultConfig() Config {
	return Config{
		SubFilters:            120,
		ParticlesPerSubFilter: 128,
		ExchangeScheme:        "ring",
		ExchangeCount:         1,
		Resampler:             "rws",
		Policy:                "always",
		Seed:                  1,
	}
}

// Validate checks every name-typed field of the configuration against
// its registry — ExchangeScheme, Resampler, Policy and Estimator — and
// returns a descriptive error naming the offending value on the first
// mismatch. Zero values are valid (they select defaults). NewFilter and
// NewSequentialFilter validate implicitly; call Validate directly to
// check user-supplied configuration (flags, request bodies) before
// building anything.
func (cfg Config) Validate() error {
	_, err := cfg.parallel()
	return err
}

// parallel parses the configuration's names, once, into the device
// filter's configuration.
func (cfg Config) parallel() (filter.ParallelConfig, error) {
	pc, err := filter.ParseParallelConfig(cfg.ExchangeScheme, cfg.Resampler, cfg.Policy, cfg.Estimator)
	pc.SubFilters, pc.ParticlesPer, pc.ExchangeCount = cfg.SubFilters, cfg.ParticlesPerSubFilter, cfg.ExchangeCount
	return pc, err
}

// NewFilter builds the paper's distributed particle filter over the
// many-core device substrate for the given model and configuration.
func NewFilter(m Model, cfg Config) (Filter, error) {
	pc, err := cfg.parallel()
	if err != nil {
		return nil, err
	}
	dev := device.New(device.Config{Workers: cfg.Workers, LocalMemBytes: -1})
	return filter.NewParallel(dev, m, pc, cfg.Seed)
}

// NewSequentialFilter builds the sequential reference implementation of
// the same distributed algorithm (useful for validation and platforms
// where goroutine parallelism is undesirable). It accepts exactly the
// names NewFilter does and runs the host resampler of the same name.
func NewSequentialFilter(m Model, cfg Config) (Filter, error) {
	pc, err := cfg.parallel()
	if err != nil {
		return nil, err
	}
	rs, err := resample.ByName(pc.Resampler.String())
	if err != nil {
		return nil, err
	}
	return filter.NewDistributed(m, filter.DistributedConfig{
		SubFilters:    pc.SubFilters,
		ParticlesPer:  pc.ParticlesPer,
		Scheme:        pc.Scheme,
		ExchangeCount: pc.ExchangeCount,
		Resampler:     rs,
		Policy:        pc.Policy,
		Estimator:     pc.Estimator,
	}, cfg.Seed)
}

// NewCentralizedFilter builds the classic sequential particle filter
// (Algorithm 1) with n particles and the paper's max-weight estimate.
func NewCentralizedFilter(m Model, n int, seed uint64) (Filter, error) {
	return filter.NewCentralized(m, n, seed, filter.CentralizedOptions{})
}

// NewCentralizedFilterWithEstimator is NewCentralizedFilter with an
// explicit estimate operator: "max-weight" (the paper's choice, best for
// sharp or multimodal posteriors) or "weighted-mean" (the MMSE estimate,
// better for smooth unimodal posteriors such as stochastic volatility).
func NewCentralizedFilterWithEstimator(m Model, n int, seed uint64, estimator string) (Filter, error) {
	est, err := filter.EstimatorByName(estimator)
	if err != nil {
		return nil, err
	}
	return filter.NewCentralized(m, n, seed, filter.CentralizedOptions{Estimator: est})
}

// NewGaussianFilter builds the Gaussian particle filter baseline.
func NewGaussianFilter(m Model, n int, seed uint64) (Filter, error) {
	return filter.NewGaussian(m, n, seed)
}

// NewAuxiliaryFilter builds the auxiliary particle filter (Pitt &
// Shephard) with n particles. The model must expose its deterministic
// one-step prediction (all bundled Linearizable models do); APF's
// look-ahead selection makes it markedly more particle-efficient on
// peaky likelihoods.
func NewAuxiliaryFilter(m Model, n int, seed uint64) (Filter, error) {
	return filter.NewAPF(m, n, seed, filter.MaxWeight)
}

// NewEKF builds the extended Kalman filter baseline. The model must be
// Linearizable.
func NewEKF(m Linearizable, seed uint64) Filter { return filter.NewEKF(m, seed) }

// NewUKF builds the unscented Kalman filter baseline.
func NewUKF(m Linearizable, seed uint64) Filter { return filter.NewUKF(m, seed) }

// NewArmScenario returns the paper's robotic-arm benchmark (§VII-A) with
// the given joint count (Table II default: 5, state dimension 9) and the
// lemniscate ground-truth path of Fig. 8.
func NewArmScenario(joints int) (Model, Scenario, error) {
	m, sc, err := arm.NewScenario(arm.Config{Joints: joints}, arm.DefaultLemniscate())
	if err != nil {
		return nil, nil, err
	}
	return m, sc, nil
}

// NewUNGMScenario returns the univariate nonstationary growth model with
// a simulated ground truth.
func NewUNGMScenario(seed uint64) (Model, Scenario) {
	m := model.NewUNGM()
	return m, model.NewSimulated(m, seed)
}

// NewBearingsScenario returns the four-state bearings-only tracking model
// with a simulated ground truth.
func NewBearingsScenario(seed uint64) (Model, Scenario) {
	m := model.NewBearings()
	return m, model.NewSimulated(m, seed)
}

// NewVolatilityScenario returns the stochastic-volatility model with a
// simulated ground truth.
func NewVolatilityScenario(seed uint64) (Model, Scenario) {
	m := model.NewStochasticVolatility()
	return m, model.NewSimulated(m, seed)
}

// NewVehicleScenario returns the four-state vehicle localization and
// map-matching model (a synthetic Manhattan road grid) with a scripted
// staircase route as ground truth. mapMatching enables the on-road soft
// constraint in the likelihood.
func NewVehicleScenario(mapMatching bool) (Model, Scenario) {
	m := model.NewVehicle()
	if !mapMatching {
		m.SigmaRoad = 0
	}
	return m, model.NewVehicleRoute(m)
}

// ClusterConfig shapes NewClusterFilter: the global sub-filter ring is
// partitioned over simulated cluster nodes (the paper's §IX scale-up
// direction); inter-node exchange traffic is counted against a network
// profile.
type ClusterConfig struct {
	// Nodes, SubFiltersPerNode, ParticlesPerSubFilter shape the cluster.
	Nodes                 int
	SubFiltersPerNode     int
	ParticlesPerSubFilter int
	// ExchangeCount is t for the global ring exchange.
	ExchangeCount int
	// Network is "1GbE" (default), "10GbE" or "ib" (InfiniBand QDR).
	Network string
	// Seed derives every node's streams.
	Seed uint64
}

// NewClusterFilter builds the cluster-partitioned distributed filter.
// The concrete type (esthera/internal/cluster.Cluster behind the Filter
// interface) additionally supports fault injection and communication
// accounting; see `esthera run cluster-scaling cluster-failure`.
func NewClusterFilter(m Model, cfg ClusterConfig) (Filter, error) {
	var net cluster.NetworkProfile
	switch cfg.Network {
	case "", "1GbE":
		net = cluster.GigabitEthernet()
	case "10GbE":
		net = cluster.TenGigabitEthernet()
	case "ib", "IB-QDR":
		net = cluster.InfiniBandQDR()
	default:
		return nil, fmt.Errorf("esthera: unknown network profile %q", cfg.Network)
	}
	return cluster.New(m, cluster.Config{
		Nodes:             cfg.Nodes,
		SubFiltersPerNode: cfg.SubFiltersPerNode,
		ParticlesPer:      cfg.ParticlesPerSubFilter,
		ExchangeCount:     cfg.ExchangeCount,
		Network:           net,
	}, cfg.Seed)
}

// ClosedLoopResult is the outcome of RunClosedLoop.
type ClosedLoopResult struct {
	// PointingErr is the per-step angle (rad) between the arm camera's
	// optical axis and the true object direction.
	PointingErr []float64
	// EstErr is the per-step object-position estimation error (m).
	EstErr []float64
}

// RunClosedLoop reproduces the companion work's closed-loop setting
// (Chitchian et al., IEEE TCST 2013, cited as [30]): a PD controller
// drives the arm's joints from the particle filter's estimates so the
// camera tracks the moving object, while the true plant integrates the
// commands with actuator noise. cfg shapes the filter (DefaultConfig()
// works); joints configures the arm.
func RunClosedLoop(joints, steps int, cfg Config, seed uint64) (ClosedLoopResult, error) {
	// The path is offset from the arm base so the object's bearing is
	// well-conditioned (a figure through the base itself would demand
	// instantaneous 180° yaw flips of the plant).
	path := arm.Lemniscate{A: 0.4, Period: 200, CenterX: 0.55}
	m, _, err := arm.NewScenario(arm.Config{Joints: joints}, path)
	if err != nil {
		return ClosedLoopResult{}, err
	}
	f, err := NewFilter(m, cfg)
	if err != nil {
		return ClosedLoopResult{}, err
	}
	loop, err := control.NewLoop(m, path, f)
	if err != nil {
		return ClosedLoopResult{}, err
	}
	res := loop.Run(steps, seed)
	return ClosedLoopResult{PointingErr: res.PointingErr, EstErr: res.EstErr}, nil
}

// Track drives f through steps rounds of sc (measurements synthesized
// from ground truth with noise seeded by seed) and returns the per-step
// Euclidean error of the tracked position.
func Track(f Filter, sc Scenario, steps int, seed uint64) ([]float64, error) {
	if steps <= 0 {
		return nil, fmt.Errorf("esthera: non-positive steps %d", steps)
	}
	return metrics.Run(f, sc, steps, seed).Err, nil
}
