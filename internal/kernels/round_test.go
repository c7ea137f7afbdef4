package kernels

import (
	"fmt"
	"math"
	"testing"

	"esthera/internal/device"
	"esthera/internal/exchange"
	"esthera/internal/model"
	"esthera/internal/rng"
	"esthera/internal/telemetry"
)

// ringPipe builds a UNGM ring t=1 pipeline of N×m on dev.
func ringPipe(t testing.TB, dev *device.Device, N, m int, mean bool, seed uint64) *Pipeline {
	t.Helper()
	top, err := exchange.NewTopology(exchange.Ring, N)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(dev, model.NewUNGM(), Config{
		SubFilters: N, ParticlesPer: m, ExchangeCount: 1, Topology: top, MeanEstimate: mean,
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// poisonZ is a finite measurement every UNGM likelihood underflows on:
// each particle's log-weight becomes −Inf.
var poisonZ = []float64{1e200}

// TestPoisonedRoundReturnsNegInf steps pipelines whose sub-filter count
// (12) or size (24) is not a power of two through a round in which
// every log-weight is −Inf. The estimate reduction runs over N heads and
// the resampling reduction over m weights, each padded to a power of
// two; the round must report a −Inf log-weight, not index a padding
// lane, and the filter must recover on the next measurement.
func TestPoisonedRoundReturnsNegInf(t *testing.T) {
	for _, sh := range []struct{ n, m int }{{12, 16}, {4, 24}} {
		for _, fused := range []bool{false, true} {
			t.Run(fmt.Sprintf("%dx%d/fused=%v", sh.n, sh.m, fused), func(t *testing.T) {
				dev := device.New(device.Config{Workers: 2, LocalMemBytes: -1})
				defer dev.Close()
				p := ringPipe(t, dev, sh.n, sh.m, false, 3)
				round := p.Round
				if fused {
					round = p.RoundFused
				}
				round(nil, []float64{0.5}, 1)
				if _, lw := round(nil, poisonZ, 2); !math.IsInf(lw, -1) {
					t.Fatalf("poisoned round log-weight %v, want -Inf", lw)
				}
				if _, lw := round(nil, []float64{0.5}, 3); math.IsInf(lw, 0) || math.IsNaN(lw) {
					t.Fatalf("round after the poisoned one: log-weight %v, want finite", lw)
				}
			})
		}
	}
}

// TestBatchPoisonedPipelineLeavesNeighbourIntact batches a pipeline
// whose weights all underflow with a healthy one: the batch must
// succeed, and the healthy pipeline must stay bit-identical to a solo
// twin, so a poisoned session cannot half-step the sessions batched
// with it.
func TestBatchPoisonedPipelineLeavesNeighbourIntact(t *testing.T) {
	dev := device.New(device.Config{Workers: 2, LocalMemBytes: -1})
	defer dev.Close()
	poisoned := ringPipe(t, dev, 12, 16, false, 1)
	healthy := ringPipe(t, dev, 12, 16, false, 2)
	solo := device.New(device.Config{Workers: 1, LocalMemBytes: -1})
	defer solo.Close()
	twin := ringPipe(t, solo, 12, 16, false, 2)
	b := NewBatcher(dev)
	for k := 1; k <= 4; k++ {
		z := []float64{0.4 * float64(k)}
		bad := &BatchRound{P: poisoned, Z: poisonZ, K: k}
		good := &BatchRound{P: healthy, Z: z, K: k}
		if err := b.Round([]*BatchRound{bad, good}); err != nil {
			t.Fatal(err)
		}
		if !math.IsInf(bad.LogW, -1) {
			t.Fatalf("round %d: poisoned log-weight %v, want -Inf", k, bad.LogW)
		}
		state, lw := twin.Round(nil, z, k)
		if lw != good.LogW || state[0] != good.State[0] {
			t.Fatalf("round %d: healthy pipeline (%v, %v) diverged from its twin (%v, %v)",
				k, good.State[0], good.LogW, state[0], lw)
		}
	}
	assertSameState(t, "healthy", twin, healthy)
}

// assertSameState fails unless two pipelines hold bit-identical
// log-weights and particles.
func assertSameState(t *testing.T, what string, want, got *Pipeline) {
	t.Helper()
	for i, w := range want.LogWeights() {
		if g := got.LogWeights()[i]; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: logw[%d] = %v, want %v", what, i, g, w)
		}
	}
	gx := got.Particles()
	for i, x := range want.Particles() {
		if math.Float64bits(gx[i]) != math.Float64bits(x) {
			t.Fatalf("%s: particle word %d = %v, want %v", what, i, gx[i], x)
		}
	}
}

// TestHealthPartialsMatchReference pins the in-kernel health sample —
// per-sub-filter partials from the local sort, combined by the estimate
// kernel — against telemetry.HealthFromLogWeights, the one-pass serial
// reference, over the weights the sort receives.
func TestHealthPartialsMatchReference(t *testing.T) {
	const N, m = 6, 24
	ninf := math.Inf(-1)
	r := rng.New(rng.NewPhilox(9))
	cases := []struct {
		name string
		fill func(lw []float64)
	}{
		{"random", func(lw []float64) {
			for i := range lw {
				lw[i] = 3 * r.NormFloat64()
			}
		}},
		{"wide", func(lw []float64) {
			for i := range lw {
				lw[i] = -700 * r.Float64()
			}
		}},
		{"ties", func(lw []float64) {
			for i := range lw {
				lw[i] = float64(i%3) - 5
			}
		}},
		{"one group -Inf", func(lw []float64) {
			for i := range lw {
				lw[i] = r.NormFloat64()
				if i/m == 2 {
					lw[i] = ninf
				}
			}
		}},
		{"all -Inf", func(lw []float64) {
			for i := range lw {
				lw[i] = ninf
			}
		}},
		{"NaN", func(lw []float64) {
			for i := range lw {
				lw[i] = r.NormFloat64()
			}
			lw[m+5] = math.NaN()
		}},
		{"+Inf", func(lw []float64) {
			for i := range lw {
				lw[i] = r.NormFloat64()
			}
			lw[4*m+1] = math.Inf(1)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dev := device.New(device.Config{Workers: 2, LocalMemBytes: -1})
			defer dev.Close()
			p, err := New(dev, model.NewUNGM(), Config{SubFilters: N, ParticlesPer: m}, 1)
			if err != nil {
				t.Fatal(err)
			}
			p.SetHealthEvery(1)
			for s := range p.resampleFlags {
				p.resampleFlags[s] = uint8(s % 2)
			}
			c.fill(p.LogWeights())
			want := telemetry.HealthFromLogWeights(append([]float64(nil), p.LogWeights()...), N/2, N)
			p.KernelSortLocal()
			p.KernelEstimate()
			got := p.LastHealth()
			if got.Round != p.Rounds() || got.NonFiniteWeights != want.NonFiniteWeights ||
				got.ResampleAccept != want.ResampleAccept || got.Particles != want.Particles {
				t.Fatalf("sample %+v at round %d, reference %+v", got, p.Rounds(), want)
			}
			for _, c := range []struct {
				what      string
				got, want float64
			}{
				{"ESS", got.ESS, want.ESS},
				{"ESSFrac", got.ESSFrac, want.ESSFrac},
				{"MaxWeightRatio", got.MaxWeightRatio, want.MaxWeightRatio},
			} {
				if math.Abs(c.got-c.want) > 1e-12*math.Abs(c.want) {
					t.Errorf("%s = %v, reference %v", c.what, c.got, c.want)
				}
			}
		})
	}
}

// TestHealthSamplingLeavesProfilerCounters asserts that health sampling
// charges no device work: a pipeline sampled every round records the
// same per-kernel launches and counters as an unsampled twin, and the
// fused and unfused rounds take the same samples.
func TestHealthSamplingLeavesProfilerCounters(t *testing.T) {
	for _, fused := range []bool{false, true} {
		t.Run(fmt.Sprintf("fused=%v", fused), func(t *testing.T) {
			bare, sampled := fusedTracePair(t, AlgoRWS, true, 4)
			ref, _ := fusedTracePair(t, AlgoRWS, true, 4)
			sampled.SetHealthEvery(1)
			ref.SetHealthEvery(1)
			for k := 1; k <= 6; k++ {
				z := []float64{0.3 * float64(k)}
				if fused {
					bare.RoundFused(nil, z, k)
					sampled.RoundFused(nil, z, k)
				} else {
					bare.Round(nil, z, k)
					sampled.Round(nil, z, k)
				}
				ref.Round(nil, z, k)
				if sampled.LastHealth() != ref.LastHealth() {
					t.Fatalf("round %d: sample %+v, unfused round's %+v", k, sampled.LastHealth(), ref.LastHealth())
				}
			}
			want := bare.Device().Profiler().Snapshot()
			got := sampled.Device().Profiler().Snapshot()
			if len(got) != len(want) {
				t.Fatalf("%d profiler entries sampled, %d bare", len(got), len(want))
			}
			for i, w := range want {
				if g := got[i]; g.Name != w.Name || g.Launches != w.Launches || g.Count != w.Count {
					t.Errorf("%s: sampled %d launches %+v, bare %s %d launches %+v",
						g.Name, g.Launches, g.Count, w.Name, w.Launches, w.Count)
				}
			}
		})
	}
}

// launchCounts drains tr and returns the number of device launches
// recorded, and how many of them ran more than one work-group.
func launchCounts(tr *telemetry.Tracer) (launches, multiGroup int) {
	for _, ev := range tr.Drain() {
		if ev.Cat != "launch" {
			continue
		}
		launches++
		for _, a := range ev.Args {
			if a.Name == "groups" && a.Value > 1 {
				multiGroup++
			}
		}
	}
	return launches, multiGroup
}

// TestFusedRoundLaunchCounts counts device launches through the
// tracer: a solo ring t=1 max-weight RoundFused issues three (the two
// fused launches and the estimate's one-group reduction), and a Batcher
// round over B ring sessions 2 + B, of which exactly two run more than
// one work-group.
func TestFusedRoundLaunchCounts(t *testing.T) {
	dev := device.New(device.Config{Workers: 2, LocalMemBytes: -1})
	defer dev.Close()
	tr := telemetry.New()
	tr.SetEnabled(true)
	dev.SetTracer(tr)

	solo := ringPipe(t, dev, 16, 64, false, 1)
	for k := 1; k <= 3; k++ {
		solo.RoundFused(nil, []float64{0.2}, k)
		if n, multi := launchCounts(tr); n != 3 || multi != 2 {
			t.Fatalf("solo round %d: %d launches (%d multi-group), want 3 (2)", k, n, multi)
		}
	}

	const B = 5
	batch := make([]*BatchRound, B)
	for i := range batch {
		batch[i] = &BatchRound{P: ringPipe(t, dev, 16, 64, i%2 == 1, uint64(i+2)), Z: []float64{0.3}}
	}
	b := NewBatcher(dev)
	for k := 1; k <= 3; k++ {
		for _, e := range batch {
			e.K = k
		}
		if err := b.Round(batch); err != nil {
			t.Fatal(err)
		}
		if n, multi := launchCounts(tr); n != 2+B || multi != 2 {
			t.Fatalf("batch round %d: %d launches (%d multi-group), want %d (2)", k, n, multi, 2+B)
		}
	}
}
