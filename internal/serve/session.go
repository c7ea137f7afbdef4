package serve

import (
	"math"
	"sync"
	"time"

	"esthera/internal/filter"
	"esthera/internal/model"
	"esthera/internal/platform"
	"esthera/internal/telemetry"
)

// Session is one tracked target: a filter plus serving bookkeeping.
type Session struct {
	id   string
	spec FilterSpec
	f    *filter.Parallel
	mdl  model.Model
	// cost is the predicted lane-op price of one fused round over this
	// session's shape, computed once at create time from the platform
	// cost model and stamped on every request (trace arg + histogram).
	cost int64

	// stepMu serializes this session's steps (and checkpoints and close)
	// in arrival order: the filter is a strictly ordered Markov
	// recursion, so one step may be in flight at a time. It is held
	// across the queue wait, which also guarantees a session never
	// appears twice in one scheduler batch.
	stepMu sync.Mutex

	// mu guards the mutable bookkeeping below (read by Stats while the
	// scheduler is stepping other sessions).
	mu      sync.Mutex
	closed  bool
	steps   int64
	lastEst filter.Estimate
	// lat is the end-to-end step latency histogram, in seconds over
	// latBoundsSeconds; it is updated under mu so a Stats snapshot sees
	// it agree with steps.
	lat *telemetry.Histogram
	// health is the pipeline's most recent stride-gated filter-health
	// sample, copied out after each step so Stats and the Prometheus
	// collector can read it without touching the filter.
	health telemetry.FilterHealth
}

func newSession(id string, sp FilterSpec, f *filter.Parallel, mdl model.Model) *Session {
	return &Session{
		id: id, spec: sp, f: f, mdl: mdl, lat: telemetry.NewHistogram(latBoundsSeconds),
		cost: platform.EstimateRoundLaneOps(platform.RoundShape{
			SubFilters:    sp.SubFilters,
			ParticlesPer:  sp.ParticlesPer,
			StateDim:      mdl.StateDim(),
			ExchangeCount: sp.ExchangeCount,
		}),
		// No estimate exists before the first step: log-weight -Inf.
		lastEst: filter.Estimate{LogWeight: math.Inf(-1)},
	}
}

func (sess *Session) isClosed() bool {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.closed
}

func (sess *Session) markClosed() {
	sess.mu.Lock()
	sess.closed = true
	sess.mu.Unlock()
}

func (sess *Session) recordStep(est filter.Estimate, d time.Duration) {
	sess.mu.Lock()
	sess.steps++
	sess.lastEst = est
	sess.lat.Observe(d.Seconds())
	sess.mu.Unlock()
}

func (sess *Session) setHealth(h telemetry.FilterHealth) {
	if h.Round == 0 {
		return // no sample taken yet (stride hasn't fired)
	}
	sess.mu.Lock()
	sess.health = h
	sess.mu.Unlock()
}

// seedResult primes the bookkeeping of a restored session so Estimate
// and Stats reflect the checkpointed run.
func (sess *Session) seedResult(steps int64, est filter.Estimate) {
	sess.mu.Lock()
	sess.steps = steps
	sess.lastEst = est
	sess.mu.Unlock()
}

func (sess *Session) lastResult() StepResult {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	state := append([]float64(nil), sess.lastEst.State...)
	return StepResult{Step: int(sess.steps), State: state, LogWeight: sess.lastEst.LogWeight}
}

// latBoundsSeconds are the step-latency histogram bounds: 2^i µs for
// i = 0..22, so the finite buckets span 1µs .. ~4s in powers of two —
// wide enough for an 8-byte-state session on a loaded box — and slower
// steps land in +Inf. Every session shares them, so series stay
// comparable.
var latBoundsSeconds = func() []float64 {
	b := make([]float64, 23)
	for i := range b {
		b[i] = float64(int64(1)<<i) / 1e6
	}
	return b
}()
