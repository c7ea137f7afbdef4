package kernels

import (
	"testing"

	"esthera/internal/telemetry"
)

// TestTelemetryLeavesTraceBitIdentical is the observability golden-trace
// test: a pipeline with tracing enabled and health sampled every round
// must produce bit-identical estimates, log-weights, and particle
// buffers to an uninstrumented twin. Telemetry reads filter state and
// writes only telemetry-side buffers; this pins that contract for both
// the unfused and fused rounds.
func TestTelemetryLeavesTraceBitIdentical(t *testing.T) {
	for _, fused := range []bool{false, true} {
		name := map[bool]string{false: "unfused", true: "fused"}[fused]
		t.Run(name, func(t *testing.T) {
			bare, traced := fusedTracePair(t, AlgoRWS, false, 11)
			tr := telemetry.New()
			tr.SetEnabled(true)
			traced.Device().SetTracer(tr)
			traced.SetTracer(tr)
			traced.SetHealthEvery(1)

			for k := 1; k <= 12; k++ {
				z := []float64{0.4*float64(k) - 2}
				var sb, st []float64
				var lb, lt float64
				if fused {
					sb, lb = bare.RoundFused(nil, z, k)
					st, lt = traced.RoundFused(nil, z, k)
				} else {
					sb, lb = bare.Round(nil, z, k)
					st, lt = traced.Round(nil, z, k)
				}
				if lb != lt {
					t.Fatalf("step %d: log-weight diverged under telemetry: %v vs %v", k, lb, lt)
				}
				for d := range sb {
					if sb[d] != st[d] {
						t.Fatalf("step %d: estimate[%d] diverged under telemetry: %v vs %v", k, d, sb[d], st[d])
					}
				}
				for i, w := range bare.LogWeights() {
					if w != traced.LogWeights()[i] {
						t.Fatalf("step %d: logw[%d] diverged under telemetry: %v vs %v", k, i, w, traced.LogWeights()[i])
					}
				}
				for i, x := range bare.Particles() {
					if x != traced.Particles()[i] {
						t.Fatalf("step %d: particle[%d] diverged under telemetry: %v vs %v", k, i, x, traced.Particles()[i])
					}
				}
			}

			evs := tr.Drain()
			var rounds int
			for _, ev := range evs {
				if ev.Cat == "filter" && ev.Name == "round" {
					rounds++
				}
			}
			if rounds != 12 {
				t.Errorf("recorded %d round spans, want 12", rounds)
			}
			h := traced.LastHealth()
			if h.Round != 12 {
				t.Errorf("last health sample at round %d, want 12", h.Round)
			}
			if h.Particles != 8*16 {
				t.Errorf("health particles %d, want %d", h.Particles, 8*16)
			}
			if h.ESS <= 0 || h.ESS > float64(h.Particles) {
				t.Errorf("ESS %v out of (0, %d]", h.ESS, h.Particles)
			}
			if h.MaxWeightRatio < 1 {
				t.Errorf("max weight ratio %v, want >= 1", h.MaxWeightRatio)
			}
		})
	}
}

// TestHealthStrideGatesSampling asserts the stride arithmetic: with
// healthEvery=3 over 10 rounds only rounds 3, 6, 9 sample, and with
// sampling disabled LastHealth stays zero.
func TestHealthStrideGatesSampling(t *testing.T) {
	p, q := fusedTracePair(t, AlgoRWS, false, 5)
	p.SetHealthEvery(3)
	for k := 1; k <= 10; k++ {
		z := []float64{float64(k) * 0.2}
		p.RoundFused(nil, z, k)
		q.RoundFused(nil, z, k)
		want := int64(k / 3 * 3)
		if got := p.LastHealth().Round; got != want {
			t.Fatalf("after round %d: sampled at round %d, want %d", k, got, want)
		}
	}
	if q.LastHealth().Round != 0 {
		t.Errorf("unsampled pipeline has health at round %d", q.LastHealth().Round)
	}
	if p.Rounds() != 10 || q.Rounds() != 10 {
		t.Errorf("round counters %d/%d, want 10/10", p.Rounds(), q.Rounds())
	}
}

// TestResetClearsTelemetryState asserts Reset rewinds the round counter
// and the health sample along with the filter state.
func TestResetClearsTelemetryState(t *testing.T) {
	p, _ := fusedTracePair(t, AlgoRWS, false, 3)
	p.SetHealthEvery(1)
	for k := 1; k <= 4; k++ {
		p.RoundFused(nil, []float64{0.1}, k)
	}
	if p.Rounds() != 4 || p.LastHealth().Round != 4 {
		t.Fatalf("pre-reset rounds=%d health.Round=%d", p.Rounds(), p.LastHealth().Round)
	}
	p.Reset(3)
	if p.Rounds() != 0 {
		t.Errorf("post-reset rounds %d, want 0", p.Rounds())
	}
	if p.LastHealth() != (telemetry.FilterHealth{}) {
		t.Errorf("post-reset health %+v, want zero", p.LastHealth())
	}
}
