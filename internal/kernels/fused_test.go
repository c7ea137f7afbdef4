package kernels

import (
	"fmt"
	"testing"

	"esthera/internal/device"
	"esthera/internal/exchange"
	"esthera/internal/model"
)

// fusedTracePair builds two identically configured and seeded pipelines
// on independent devices: one stepped with the unfused Round, one with
// RoundFused.
func fusedTracePair(t *testing.T, algo Algo, mean bool, seed uint64) (unfused, fused *Pipeline) {
	t.Helper()
	mk := func() *Pipeline {
		dev := device.New(device.Config{Workers: 4, LocalMemBytes: -1})
		top, err := exchange.NewTopology(exchange.Ring, 8)
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(dev, model.NewUNGM(), Config{
			SubFilters:    8,
			ParticlesPer:  16,
			ExchangeCount: 1,
			Topology:      top,
			Resampler:     algo,
			MeanEstimate:  mean,
		}, seed)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	return mk(), mk()
}

// TestFusedRoundBitIdentical is the golden-trace test: across multiple
// seeds, both resampling kernels of the paper, and both estimators, the
// fused round must consume the random streams in the same order and
// produce bit-identical estimates, log-weights, and particle buffers as
// the unfused kernel-per-launch round.
func TestFusedRoundBitIdentical(t *testing.T) {
	for _, algo := range []Algo{AlgoRWS, AlgoVose} {
		for _, mean := range []bool{false, true} {
			for _, seed := range []uint64{1, 2, 3} {
				name := fmt.Sprintf("%s/mean=%v/seed=%d", algo, mean, seed)
				t.Run(name, func(t *testing.T) {
					u, f := fusedTracePair(t, algo, mean, seed)
					for k := 1; k <= 12; k++ {
						z := []float64{0.3*float64(k) - 1}
						su, lu := u.Round(nil, z, k)
						sf, lf := f.RoundFused(nil, z, k)
						if lu != lf {
							t.Fatalf("step %d: log-weight diverged: %v vs %v", k, lu, lf)
						}
						for d := range su {
							if su[d] != sf[d] {
								t.Fatalf("step %d: estimate[%d] diverged: %v vs %v", k, d, su[d], sf[d])
							}
						}
						bu, _ := u.Best()
						bf, _ := f.Best()
						if bu != bf {
							t.Fatalf("step %d: best sub-filter diverged: %d vs %d", k, bu, bf)
						}
						for i, w := range u.LogWeights() {
							if w != f.LogWeights()[i] {
								t.Fatalf("step %d: logw[%d] diverged: %v vs %v", k, i, w, f.LogWeights()[i])
							}
						}
						for i, x := range u.Particles() {
							if x != f.Particles()[i] {
								t.Fatalf("step %d: particle[%d] diverged: %v vs %v", k, i, x, f.Particles()[i])
							}
						}
					}
				})
			}
		}
	}
}

// TestFusedProfilerAttribution asserts that fusing the group-local
// kernels leaves the per-kernel profiler attribution intact: the fused
// device must report entries under the same six kernel names, and the
// work counters of the fused phases must equal the unfused launches'
// exactly (the Fig. 4 kernel-breakdown inputs survive fusion).
func TestFusedProfilerAttribution(t *testing.T) {
	u, f := fusedTracePair(t, AlgoRWS, false, 7)
	for k := 1; k <= 5; k++ {
		z := []float64{0.5 * float64(k)}
		u.Round(nil, z, k)
		f.RoundFused(nil, z, k)
	}
	indexed := func(p *Pipeline) map[string]device.KernelStats {
		out := map[string]device.KernelStats{}
		for _, e := range p.Device().Profiler().Snapshot() {
			out[e.Name] = e
		}
		return out
	}
	us, fs := indexed(u), indexed(f)
	for _, name := range []string{"rand", "sampling", "local sort", "global estimate", "exchange", "resampling"} {
		ue, ok := us[name]
		if !ok {
			t.Fatalf("unfused profiler missing %q", name)
		}
		fe, ok := fs[name]
		if !ok {
			t.Fatalf("fused profiler missing %q", name)
		}
		if ue.Count != fe.Count {
			t.Errorf("%s counters diverged under fusion:\n unfused %+v\n fused   %+v", name, ue.Count, fe.Count)
		}
		if ue.Launches != fe.Launches {
			t.Errorf("%s launches = %d fused vs %d unfused", name, fe.Launches, ue.Launches)
		}
		if fe.Elapsed < 0 {
			t.Errorf("%s fused elapsed negative", name)
		}
	}
}
