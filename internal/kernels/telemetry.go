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
// k-th round samples ESS, weight degeneracy and resample acceptance
// from the log-weights after weighting, before exchange/resampling —
// the point where degeneracy shows. Each sub-filter's local sort
// computes its share in parallel (telemetry.GroupHealth), and the
// estimate kernel combines the N shares host-side, in sub-filter order
// (telemetry.CombineHealth). k <= 0 disables sampling; the gate costs
// one branch per sub-filter and round.
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

// samples reports whether round r (counted from 1) takes a health
// sample.
func (p *Pipeline) samples(r int64) bool {
	return p.healthEvery > 0 && r%int64(p.healthEvery) == 0
}

// observeRound advances the round counter and, when the stride fires,
// combines the health partials this round's local sort left. Called at
// the top of the global estimate, which every round path passes through
// once, after the local sort.
func (p *Pipeline) observeRound() {
	p.round++
	if !p.samples(p.round) {
		return
	}
	accepted := 0
	for _, f := range p.resampleFlags {
		accepted += int(f)
	}
	h := telemetry.CombineHealth(p.healthParts, len(p.logw), accepted, p.cfg.SubFilters)
	h.Round = p.round
	p.lastHealth = h
}
