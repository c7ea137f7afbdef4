// Package serve runs many concurrent tracking sessions — one distributed
// particle filter per tracked target — on a single shared many-core
// device, the deployment shape the paper's design is built for: "many
// small sub-filters share one many-core device" (§IV, Table I). It is
// the toolkit's multi-tenant estimation service layer:
//
//   - Session lifecycle: Create builds a filter from a FilterSpec on the
//     shared device substrate; Step advances it one observation; Estimate
//     reads the last estimate; Close releases it.
//   - Admission control: pending steps enter a bounded queue. When the
//     queue is full the server rejects immediately with ErrSaturated
//     (carrying a retry-after hint) instead of growing without bound —
//     load sheds at the edge, latency stays bounded.
//   - Cross-session batching: a scheduler goroutine coalesces queued
//     steps from different sessions into shared kernel launches (one
//     persistent kernels.Batcher), so B sessions of N sub-filters each
//     drive the device with B·N-group grids instead of B separate small
//     launches. Batching is a pure scheduling optimization: estimates
//     are bit-identical to unbatched stepping.
//   - Checkpoint/restore: a session's full state — particles, weights
//     and the exact position of every random stream — serializes to a
//     deterministic Checkpoint; restored sessions replay bit-identically
//     under the same seed (see checkpoint.go).
//   - Introspection: Stats snapshots per-session step counts and latency
//     histograms, queue depth, batching effectiveness and the shared
//     device's kernel-breakdown profile (device.Profiler.Stats); the
//     metrics registry renders that one snapshot as /metrics.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"esthera/internal/device"
	"esthera/internal/filter"
	"esthera/internal/model"
	"esthera/internal/telemetry"
	tlog "esthera/internal/telemetry/log"
)

// Config shapes a Server.
type Config struct {
	// Workers sizes the shared device (0 = GOMAXPROCS).
	Workers int
	// MaxSessions bounds concurrent sessions (0 = 256).
	MaxSessions int
	// QueueDepth bounds the admission queue of pending steps (0 = 128).
	// A full queue rejects new steps with ErrSaturated.
	QueueDepth int
	// MaxBatch bounds how many session steps one scheduling round
	// coalesces into shared launches (0 = 32). A round never waits to
	// fill: it takes the steps already queued, so a step that finds the
	// device idle runs at once.
	MaxBatch int
	// RetryAfter is the client back-off hint attached to ErrSaturated
	// before the scheduler has measured any batch latency (0 = 5ms).
	// Once batches have run, the hint is adaptive: the expected time to
	// drain the current queue, derived from the queue depth and an EWMA
	// of recent batch execution latency (see retryHint).
	RetryAfter time.Duration
	// Trace starts the server with span recording enabled. Recording
	// can also be toggled at runtime via POST /trace; the tracer itself
	// always exists and is free while disabled.
	Trace bool
	// HealthStride gates per-session filter-health sampling (ESS,
	// weight degeneracy, resample acceptance): every k-th round is
	// sampled. 0 means every round; negative disables sampling.
	HealthStride int
	// Name identifies this process in traces and structured logs (the
	// shard name in a swarm). "" leaves exports unnamed.
	Name string
	// LogLevel is the structured log's minimum level (zero = info);
	// LogSink, when non-nil, additionally mirrors warn+ records there as
	// they happen (the binaries pass stderr). The ring-buffered log is
	// always available at /logz regardless.
	LogLevel slog.Level
	LogSink  io.Writer
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 256
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 128
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 5 * time.Millisecond
	}
	if c.HealthStride == 0 {
		c.HealthStride = 1
	}
	if c.HealthStride < 0 {
		c.HealthStride = -1
	}
	return c
}

// FilterSpec describes a session's filter: the model by registry name
// plus the distributed-filter parameters (the root package's Config, in
// serve-layer form).
type FilterSpec struct {
	// Model names a registered model factory ("arm", "ungm", ...).
	Model string `json:"model"`
	// SubFilters (N) and ParticlesPer (m) shape the network; zero values
	// take the session-scale defaults (16 sub-filters × 64 particles).
	SubFilters   int `json:"sub_filters,omitempty"`
	ParticlesPer int `json:"particles_per,omitempty"`
	// ExchangeScheme is "ring" (default), "torus", "all-to-all" or
	// "none"; ExchangeCount is t.
	ExchangeScheme string `json:"exchange_scheme,omitempty"`
	ExchangeCount  int    `json:"exchange_count,omitempty"`
	// Resampler is "rws" (default), "vose" or "systematic".
	Resampler string `json:"resampler,omitempty"`
	// Policy is "always" (default), "never", "ess" / "ess:<frac>" or
	// "random" / "random:<p>".
	Policy string `json:"policy,omitempty"`
	// Estimator is "max-weight" (default) or "weighted-mean".
	Estimator string `json:"estimator,omitempty"`
	// Seed derives every random stream of the session.
	Seed uint64 `json:"seed"`
}

func (sp FilterSpec) withDefaults() FilterSpec {
	if sp.SubFilters <= 0 {
		sp.SubFilters = 16
	}
	if sp.ParticlesPer <= 0 {
		sp.ParticlesPer = 64
	}
	if sp.ExchangeScheme == "" {
		sp.ExchangeScheme = "ring"
	}
	if sp.ExchangeScheme != "none" && sp.ExchangeCount == 0 {
		sp.ExchangeCount = 1
	}
	return sp
}

// ModelFactory builds a fresh model instance for one session.
type ModelFactory func() (model.Model, error)

// Sentinel errors. ErrSaturated additionally carries a retry hint; use
// errors.As with *SaturatedError to read it.
var (
	ErrNotFound        = errors.New("serve: no such session")
	ErrClosed          = errors.New("serve: server closed")
	ErrDraining        = errors.New("serve: draining, not admitting new steps")
	ErrTooManySessions = errors.New("serve: session limit reached")
)

// SaturatedError reports that the admission queue was full: the step was
// rejected without queuing, and the client should back off for
// RetryAfter before retrying.
type SaturatedError struct {
	RetryAfter time.Duration
}

// Error implements error.
func (e *SaturatedError) Error() string {
	return fmt.Sprintf("serve: saturated, retry after %v", e.RetryAfter)
}

// Server runs concurrent estimation sessions over one shared device.
type Server struct {
	cfg    Config
	dev    *device.Device
	models map[string]ModelFactory

	// stepper is the scheduler goroutine's reusable batched-stepping
	// scratch (merged-launch tables, batch entries); only runBatch
	// touches it.
	stepper *filter.BatchStepper

	mu       sync.RWMutex
	sessions map[string]*Session
	nextID   uint64
	closed   bool

	queue chan *stepReq
	quit  chan struct{}
	done  chan struct{}

	// draining flips once on Drain: admission stops, in-flight steps
	// finish, /readyz goes unready.
	draining atomic.Bool

	// Scheduler counters (atomics: read by Stats concurrently).
	batches      atomic.Int64
	batchedSteps atomic.Int64
	rejected     atomic.Int64
	// inflight counts steps whose callers have not returned; Drain waits
	// for it to hit 0. StepCtx counts a step before reading draining and
	// Drain sets draining before reading inflight (both sequentially
	// consistent), so either the step sees draining or Drain counts it.
	inflight atomic.Int64
	// cancelled counts steps abandoned by their waiter (context
	// cancellation/deadline) while still queued; skipped counts the
	// scheduler-side view — abandoned requests dropped at delivery time
	// without executing.
	cancelled atomic.Int64
	skipped   atomic.Int64
	// batchLatNS is an EWMA of recent batch execution latency in
	// nanoseconds, feeding the adaptive retry hint.
	batchLatNS atomic.Int64

	// Observability: the span tracer shared by the device, every
	// session's pipeline, and the scheduler; the metrics registry
	// unifying serve counters, latency histograms, filter health and
	// the device profile behind /metrics (see telemetry.go); the
	// structured logger behind /logz; and the step endpoint's SLO
	// tracker plus predicted-cost histogram.
	tracer   *telemetry.Tracer
	reg      *telemetry.Registry
	log      *slog.Logger
	logz     *tlog.Handler
	sloStep  *telemetry.SLOTracker
	costHist *telemetry.Histogram
}

// NewServer starts a server with the given model registry. The caller
// owns the registry map after return (it is copied).
func NewServer(cfg Config, models map[string]ModelFactory) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		dev:      device.New(device.Config{Workers: cfg.Workers, LocalMemBytes: -1}),
		models:   make(map[string]ModelFactory, len(models)),
		sessions: make(map[string]*Session),
		queue:    make(chan *stepReq, cfg.QueueDepth),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
		tracer:   telemetry.New(),
		reg:      telemetry.NewRegistry(),
	}
	s.stepper = filter.NewBatchStepper(s.dev)
	s.tracer.SetEnabled(cfg.Trace)
	s.tracer.SetProcess(cfg.Name)
	s.dev.SetTracer(s.tracer)
	s.logz = tlog.New(cfg.Name, cfg.LogLevel, cfg.LogSink)
	s.log = slog.New(s.logz)
	// The step endpoint's latency objective takes the telemetry
	// defaults: a step over 50ms counts against a 99% good fraction.
	// Burn rates are exported via /metrics (esthera_slo_*).
	s.sloStep = telemetry.NewSLOTracker(telemetry.SLO{})
	// Predicted lane-op cost per request, bucketed in powers of four:
	// spans the arm default (16x64 sub-filters, ~200k ops) out to the
	// million-particle shapes the throughput scenarios use.
	s.costHist = s.reg.NewHistogram("esthera_request_cost_laneops",
		"Predicted lane-operation cost of each stepped request (platform cost model).",
		[]float64{1e3, 4e3, 16e3, 64e3, 256e3, 1e6, 4e6, 16e6, 64e6, 256e6})
	s.reg.RegisterCollector(s.collectMetrics)
	for name, f := range models {
		s.models[name] = f
	}
	go s.schedule()
	return s
}

// Device exposes the shared device (its profiler feeds the introspection
// endpoint).
func (s *Server) Device() *device.Device { return s.dev }

// maxSessionParticles caps one session at the paper's largest filter,
// 2^21 particles (Fig. 3), so one request cannot exhaust memory.
const maxSessionParticles = 1 << 21

// buildFilter constructs a session filter on the shared device.
func (s *Server) buildFilter(sp FilterSpec) (*filter.Parallel, model.Model, error) {
	// Both sizes are positive after withDefaults; dividing cannot
	// overflow where multiplying could.
	if sp.SubFilters > maxSessionParticles/sp.ParticlesPer {
		return nil, nil, fmt.Errorf("serve: %d sub-filters × %d particles exceeds the %d-particle session limit",
			sp.SubFilters, sp.ParticlesPer, maxSessionParticles)
	}
	factory, ok := s.models[sp.Model]
	if !ok {
		known := make([]string, 0, len(s.models))
		for name := range s.models {
			known = append(known, name)
		}
		sort.Strings(known)
		return nil, nil, fmt.Errorf("serve: unknown model %q (registered: %v)", sp.Model, known)
	}
	mdl, err := factory()
	if err != nil {
		return nil, nil, err
	}
	pc, err := filter.ParseParallelConfig(sp.ExchangeScheme, sp.Resampler, sp.Policy, sp.Estimator)
	if err != nil {
		return nil, nil, err
	}
	pc.SubFilters, pc.ParticlesPer, pc.ExchangeCount = sp.SubFilters, sp.ParticlesPer, sp.ExchangeCount
	f, err := filter.NewParallel(s.dev, mdl, pc, sp.Seed)
	if err != nil {
		return nil, nil, err
	}
	return f, mdl, nil
}

// Create builds a new session and returns its id.
func (s *Server) Create(sp FilterSpec) (string, error) {
	sp = sp.withDefaults()
	f, mdl, err := s.buildFilter(sp)
	if err != nil {
		return "", err
	}
	return s.install(sp, f, mdl)
}

// install registers a constructed session under a fresh id.
func (s *Server) install(sp FilterSpec, f *filter.Parallel, mdl model.Model) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return "", ErrClosed
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		return "", ErrTooManySessions
	}
	s.nextID++
	id := fmt.Sprintf("s-%d", s.nextID)
	// Wire the session's pipeline into the server's observability:
	// round spans when tracing is on, and stride-gated health sampling.
	f.Pipeline().SetTracer(s.tracer)
	if s.cfg.HealthStride > 0 {
		f.Pipeline().SetHealthEvery(s.cfg.HealthStride)
	}
	sess := newSession(id, sp, f, mdl)
	s.sessions[id] = sess
	s.log.LogAttrs(context.TODO(), slog.LevelInfo, "session created",
		slog.String("session", id), slog.String("model", sp.Model),
		slog.Int("sub_filters", sp.SubFilters), slog.Int("particles_per", sp.ParticlesPer),
		slog.Int64("cost_laneops", sess.cost))
	return id, nil
}

// lookup fetches a live session.
func (s *Server) lookup(id string) (*Session, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	sess, ok := s.sessions[id]
	if !ok {
		return nil, ErrNotFound
	}
	return sess, nil
}

// StepResult is one successful Step's output.
type StepResult struct {
	// Step is the session's step index after this observation.
	Step int `json:"step"`
	// State is the estimated state vector.
	State []float64 `json:"state"`
	// LogWeight is the winning particle's unnormalized log-weight
	// (max-weight estimator; 0 for weighted-mean).
	LogWeight float64 `json:"log_weight"`
}

// Step advances session id by one observation: control u (may be nil for
// uncontrolled models) and measurement z. It is StepCtx without a
// deadline; see StepCtx for the delivery semantics.
func (s *Server) Step(id string, u, z []float64) (StepResult, error) {
	return s.StepCtx(context.Background(), id, u, z)
}

// StepCtx advances session id by one observation under a context: the
// caller's deadline and cancellation propagate into the batching
// scheduler. Steps of one session are serialized in arrival order; steps
// of different sessions are coalesced by the batching scheduler. Returns
// *SaturatedError when the admission queue is full (carrying the
// adaptive retry hint) and ErrDraining once Drain has begun.
//
// Delivery is at-most-once with a hard consistency guarantee: a step is
// either applied to the session's filter and reported with its result,
// or never applied and reported with an error — no step is both applied
// and reported failed. Cancellation is honored while the step is
// queued: the call returns promptly with the context's error, the
// scheduler skips the request at delivery time without executing it,
// and its batch slot is released. Once the scheduler has claimed the
// step for an executing batch, cancellation arrives too late: the call
// waits out the batch and returns the applied step's result, so the
// session's filter state never silently diverges from its reported
// estimates.
func (s *Server) StepCtx(ctx context.Context, id string, u, z []float64) (StepResult, error) {
	sess, err := s.lookup(id)
	if err != nil {
		return StepResult{}, err
	}
	if len(z) != sess.mdl.MeasurementDim() {
		return StepResult{}, fmt.Errorf("serve: measurement has %d values, model %q needs %d",
			len(z), sess.spec.Model, sess.mdl.MeasurementDim())
	}
	if cd := sess.mdl.ControlDim(); len(u) != cd && !(u == nil && cd == 0) {
		return StepResult{}, fmt.Errorf("serve: control has %d values, model %q needs %d",
			len(u), sess.spec.Model, cd)
	}
	if err := ctx.Err(); err != nil {
		return StepResult{}, err
	}
	start := time.Now()

	// Serialize this session's steps: the filter is a strictly ordered
	// Markov recursion, so a session admits one in-flight step at a time.
	sess.stepMu.Lock()
	defer sess.stepMu.Unlock()
	if sess.isClosed() {
		return StepResult{}, ErrNotFound
	}
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if s.draining.Load() {
		return StepResult{}, ErrDraining
	}

	req := &stepReq{sess: sess, u: u, z: z, done: make(chan stepResult, 1)}
	if s.tracer.Enabled() {
		// Propagated trace context (router ingress via the traceparent
		// header) plus this request's own span: the batch that executes
		// the step installs it as the tracer's ambient context, so
		// device/kernel round spans inherit the request's trace ID. A
		// request arriving without a trace mints its own, so standalone
		// (router-less) traces still group by request.
		tc, ok := telemetry.TraceFromContext(ctx)
		if !ok {
			tc = telemetry.TraceContext{Trace: telemetry.NewTraceID()}
		}
		req.tc = tc
		req.span = telemetry.NewSpanID()
	}
	select {
	case s.queue <- req:
	default:
		// Bounded admission: reject, never queue unboundedly.
		s.rejected.Add(1)
		return StepResult{}, &SaturatedError{RetryAfter: s.retryHint()}
	}
	select {
	case res := <-req.done:
		return s.finish(ctx, sess, req, res, start)
	case <-ctx.Done():
		if req.abandon() {
			// Still queued: the scheduler will skip it; the step is
			// never applied.
			s.cancelled.Add(1)
			return StepResult{}, fmt.Errorf("serve: step abandoned while queued: %w", ctx.Err())
		}
		// The scheduler claimed the step first: it will be applied and a
		// result is guaranteed on done. Take it — reporting failure here
		// would desynchronize the session from its own filter.
		return s.finish(ctx, sess, req, <-req.done, start)
	case <-s.quit:
		if req.abandon() {
			// Still queued at shutdown: never applied.
			return StepResult{}, ErrClosed
		}
		// The batch completed (or is completing) concurrently with
		// shutdown: prefer the ready result over quit, so an applied
		// step is never reported as failed and recordStep always runs.
		return s.finish(ctx, sess, req, <-req.done, start)
	}
}

// finish delivers one completed step to the caller, recording it in the
// session bookkeeping so Estimate and Stats stay consistent with the
// filter state.
func (s *Server) finish(ctx context.Context, sess *Session, req *stepReq, res stepResult, start time.Time) (StepResult, error) {
	if res.err != nil {
		s.log.LogAttrs(ctx, slog.LevelWarn, "step failed",
			slog.String("session", sess.id), tlog.Trace(req.tc), slog.String("error", res.err.Error()))
		return StepResult{}, res.err
	}
	elapsed := time.Since(start)
	sess.recordStep(res.est, elapsed)
	s.sloStep.Observe(elapsed)
	s.costHist.Observe(float64(sess.cost))
	if s.cfg.HealthStride > 0 {
		// The caller holds sess.stepMu and the batch that ran this step
		// has delivered, so the pipeline's health sample is stable.
		sess.setHealth(sess.f.Pipeline().LastHealth())
	}
	if s.tracer.Enabled() {
		ev := telemetry.Event{
			Name: "request", Cat: "serve", TS: s.tracer.Stamp(start), Dur: elapsed,
			Trace: req.tc.Trace, Span: req.span, Parent: req.tc.Span,
		}
		ev.SetArg("step", int64(res.step))
		ev.SetArg("cost_laneops", sess.cost)
		s.tracer.Record(ev)
	}
	if s.log.Enabled(ctx, slog.LevelDebug) {
		s.log.LogAttrs(ctx, slog.LevelDebug, "step",
			slog.String("session", sess.id), slog.Int("step", res.step),
			slog.Duration("latency", elapsed), slog.Int64("cost_laneops", sess.cost),
			tlog.Trace(telemetry.TraceContext{Trace: req.tc.Trace, Span: req.span}))
	}
	return StepResult{Step: res.step, State: res.est.State, LogWeight: res.est.LogWeight}, nil
}

// retryHint derives the saturation back-off from live load: the
// expected time for the scheduler to drain the queue as seen now —
// (batches left to run) × (EWMA batch latency) — clamped to a sane
// range. Before any batch has run it falls back to the configured
// constant.
func (s *Server) retryHint() time.Duration {
	lat := time.Duration(s.batchLatNS.Load())
	if lat <= 0 {
		return s.cfg.RetryAfter
	}
	pending := len(s.queue)/s.cfg.MaxBatch + 1
	hint := time.Duration(pending) * lat
	const minHint, maxHint = 200 * time.Microsecond, 2 * time.Second
	if hint < minHint {
		hint = minHint
	}
	if hint > maxHint {
		hint = maxHint
	}
	return hint
}

// Estimate returns the session's latest estimate without stepping (zero
// State before the first step).
func (s *Server) Estimate(id string) (StepResult, error) {
	sess, err := s.lookup(id)
	if err != nil {
		return StepResult{}, err
	}
	return sess.lastResult(), nil
}

// Close tears down one session. In-flight steps finish first (Close
// waits for the session's step lock).
func (s *Server) Close(id string) error {
	sess, err := s.lookup(id)
	if err != nil {
		return err
	}
	sess.stepMu.Lock()
	sess.markClosed()
	sess.stepMu.Unlock()
	s.mu.Lock()
	delete(s.sessions, id)
	s.mu.Unlock()
	s.log.LogAttrs(context.TODO(), slog.LevelInfo, "session closed", slog.String("session", id))
	return nil
}

// Sessions returns the live session ids, sorted.
func (s *Server) Sessions() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.sessions))
	for id := range s.sessions {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Drain begins graceful shutdown: the server stops admitting new steps
// (they fail with ErrDraining; /readyz goes unready) and Drain blocks
// until every already-admitted step has completed and been delivered,
// or ctx expires. It does not stop the scheduler or the device — call
// Shutdown afterwards for that. Drain is idempotent and safe to call
// concurrently.
func (s *Server) Drain(ctx context.Context) error {
	if !s.draining.Swap(true) {
		s.log.LogAttrs(ctx, slog.LevelInfo, "drain started", slog.Int64("inflight", s.inflight.Load()))
	}
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		if s.inflight.Load() == 0 && len(s.queue) == 0 {
			return nil
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			return ctx.Err()
		case <-s.quit:
			return ErrClosed
		}
	}
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// stopped reports whether Shutdown has fired.
func (s *Server) stopped() bool {
	select {
	case <-s.quit:
		return true
	default:
		return false
	}
}

// Ready reports whether the server is admitting new steps: live, not
// draining, not shut down. The /readyz endpoint serves it.
func (s *Server) Ready() bool {
	if s.draining.Load() {
		return false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return !s.closed
}

// Shutdown stops the scheduler and fails pending steps with ErrClosed.
// Steps already claimed by an executing batch still deliver their
// results (at-most-once: an applied step is never reported failed).
// Sessions become unreachable; Shutdown is idempotent. For a graceful
// stop, call Drain first.
func (s *Server) Shutdown() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.log.Info("server shutdown")
	close(s.quit)
	<-s.done
}
