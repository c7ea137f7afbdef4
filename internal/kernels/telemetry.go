package kernels

import "esthera/internal/telemetry"

// Observability hooks on the Pipeline. Everything here reads filter
// state (log-weights, policy decisions) and writes only telemetry-side
// buffers, so enabling it never perturbs RNG consumption or float
// operation order — golden traces stay bit-identical (asserted in
// fused_test.go).

// SetTracer attaches a span tracer recording one "round" span per
// filtering round. Pass nil to detach. Call between rounds, not
// concurrently with one.
func (p *Pipeline) SetTracer(tr *telemetry.Tracer) { p.tracer = tr }

// SetHealthEvery enables stride-gated filter-health sampling: every
// k-th round, the estimate kernel snapshots ESS, weight degeneracy and
// resample acceptance from the current log-weights (after weighting,
// before exchange/resampling — the point where degeneracy shows).
// k <= 0 disables sampling; the gate costs one branch per round.
func (p *Pipeline) SetHealthEvery(k int) {
	if k < 0 {
		k = 0
	}
	p.healthEvery = k
}

// LastHealth returns the most recent stride-gated health sample; its
// Round field says which round it was taken at (zero value before the
// first sample).
func (p *Pipeline) LastHealth() telemetry.FilterHealth { return p.lastHealth }

// Rounds returns the number of filtering rounds completed since Reset,
// continuing from a restored Snapshot's Round (counted at the estimate
// kernel, which every round path passes through exactly once).
func (p *Pipeline) Rounds() int64 { return p.round }

// observeRound advances the round counter and, when the stride fires,
// captures a health sample. Called at the top of KernelEstimate: the
// log-weights are final for the round there, and the estimate kernel
// itself never modifies them.
func (p *Pipeline) observeRound() {
	p.round++
	if p.healthEvery <= 0 || p.round%int64(p.healthEvery) != 0 {
		return
	}
	accepted := 0
	for _, f := range p.resampleFlags {
		accepted += int(f)
	}
	h := telemetry.HealthFromLogWeights(p.logw, accepted, p.cfg.SubFilters)
	h.Round = p.round
	p.lastHealth = h
}
