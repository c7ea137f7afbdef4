package filter_test

import (
	"math"
	"testing"

	"esthera/internal/device"
	"esthera/internal/exchange"
	"esthera/internal/filter"
	"esthera/internal/kernels"
	"esthera/internal/model"
)

func adaptCfg() filter.AdaptConfig {
	return filter.AdaptConfig{Every: 2, Gain: 0.5, MinWindow: 4, MaxWindow: 64}
}

func newAdaptiveParallel(t *testing.T, algo kernels.Algo, seed uint64) *filter.Parallel {
	t.Helper()
	dev := device.New(device.Config{Workers: 4, LocalMemBytes: -1})
	f, err := filter.NewParallel(dev, model.NewUNGM(), filter.ParallelConfig{
		SubFilters:    8,
		ParticlesPer:  16,
		Scheme:        exchange.Ring,
		ExchangeCount: 1,
		Resampler:     algo,
		Adapt:         adaptCfg(),
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestAdaptiveWindowsComputation pins the allocator rule on hand-picked
// signals: the budget is exactly conserved, clamps hold, degenerate
// sub-filters gain particles from healthy ones, and the function is a
// pure deterministic map of its inputs.
func TestAdaptiveWindowsComputation(t *testing.T) {
	cfg := adaptCfg()
	cur := []int{16, 16, 16, 16}
	ess := []float64{1, 1, 0.05, 1} // sub-filter 2 is degenerating
	next := filter.AdaptiveWindows(cur, ess, 64, cfg)

	sum := 0
	for s, l := range next {
		sum += l
		if l < cfg.MinWindow || l > cfg.MaxWindow {
			t.Fatalf("window %d = %d outside [%d, %d]", s, l, cfg.MinWindow, cfg.MaxWindow)
		}
	}
	if sum != 64 {
		t.Fatalf("allocator leaked particles: sum %d, want 64", sum)
	}
	if next[2] <= cur[2] {
		t.Fatalf("degenerate sub-filter shrank: %d -> %d", cur[2], next[2])
	}
	for _, s := range []int{0, 1, 3} {
		if next[s] >= cur[s] {
			t.Fatalf("healthy sub-filter %d grew: %d -> %d", s, cur[s], next[s])
		}
	}

	again := filter.AdaptiveWindows(cur, ess, 64, cfg)
	for s := range next {
		if next[s] != again[s] {
			t.Fatal("AdaptiveWindows is not deterministic")
		}
	}
}

// TestAdaptiveWindowsDefensiveInputs feeds the allocator out-of-range
// and non-finite ESS fractions (the degeneracy signals that lie): NaN
// and negative read as fully degenerate, >1 as fully healthy, and the
// budget still balances under hard clamp pressure.
func TestAdaptiveWindowsDefensiveInputs(t *testing.T) {
	cfg := adaptCfg()
	cur := []int{16, 16, 16, 16}
	ess := []float64{math.NaN(), -0.3, 2.5, 0.9}
	next := filter.AdaptiveWindows(cur, ess, 64, cfg)
	sum := 0
	for s, l := range next {
		sum += l
		if l < cfg.MinWindow || l > cfg.MaxWindow {
			t.Fatalf("window %d = %d outside clamp", s, l)
		}
	}
	if sum != 64 {
		t.Fatalf("sum %d, want 64", sum)
	}
	if next[0] <= next[2] {
		t.Fatalf("NaN-ESS sub-filter (%d) must out-allocate the healthy one (%d)", next[0], next[2])
	}

	// Extreme clamp pressure: everything wants to shrink to MinWindow,
	// but the budget must still be placed somewhere.
	allHealthy := []float64{1, 1, 1, 1}
	next = filter.AdaptiveWindows([]int{4, 4, 4, 52}, allHealthy, 64, cfg)
	sum = 0
	for _, l := range next {
		sum += l
	}
	if sum != 64 {
		t.Fatalf("clamped repair lost particles: sum %d", sum)
	}
}

// TestParallelAdaptiveReallocates runs the full adaptive filter and
// checks the allocator actually fires, conserves the particle budget,
// and keeps the filter finite — for both the prefix-sum (RWS) and
// alias-table (Vose) local schemes.
func TestParallelAdaptiveReallocates(t *testing.T) {
	for _, algo := range []kernels.Algo{kernels.AlgoRWS, kernels.AlgoVose} {
		f := newAdaptiveParallel(t, algo, 1)
		for k := 1; k <= 20; k++ {
			z := []float64{0.4*float64(k) - 2}
			est := f.Step(nil, z)
			if math.IsNaN(est.State[0]) {
				t.Fatalf("%v: NaN estimate at step %d", algo, k)
			}
			sum := 0
			for _, l := range f.Pipeline().Windows() {
				sum += l
			}
			if sum != f.TotalParticles() {
				t.Fatalf("%v: step %d windows sum to %d, want %d", algo, k, sum, f.TotalParticles())
			}
		}
		if f.Pipeline().Reallocations() == 0 {
			t.Fatalf("%v: adaptive allocator never reallocated in 20 rounds", algo)
		}
		min, max := math.MaxInt, 0
		for _, l := range f.Pipeline().Windows() {
			if l < min {
				min = l
			}
			if l > max {
				max = l
			}
		}
		cfg := adaptCfg()
		if min < cfg.MinWindow || max > cfg.MaxWindow {
			t.Fatalf("%v: windows [%d, %d] escaped clamp [%d, %d]", algo, min, max, cfg.MinWindow, cfg.MaxWindow)
		}
	}
}

// TestParallelAdaptiveSnapshotRoundTrip checks adaptive runs restore
// bit-exactly: the snapshot carries the resized windows and the restored
// filter re-derives the same reallocation decisions at the same rounds.
func TestParallelAdaptiveSnapshotRoundTrip(t *testing.T) {
	f := newAdaptiveParallel(t, kernels.AlgoRWS, 2)
	for k := 1; k <= 7; k++ {
		f.Step(nil, []float64{0.4*float64(k) - 2})
	}
	if f.Pipeline().Reallocations() == 0 {
		t.Fatal("adaptive filter never reallocated before the snapshot")
	}
	snap := f.Snapshot()

	g := newAdaptiveParallel(t, kernels.AlgoRWS, 99)
	if err := g.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	for s, l := range g.Pipeline().Windows() {
		if l != f.Pipeline().Windows()[s] {
			t.Fatalf("restored window %d = %d, want %d", s, l, f.Pipeline().Windows()[s])
		}
	}
	for k := 8; k <= 16; k++ {
		z := []float64{0.4*float64(k) - 2}
		ef, eg := f.Step(nil, z), g.Step(nil, z)
		if ef.LogWeight != eg.LogWeight {
			t.Fatalf("step %d: log-weight diverged after restore: %v vs %v", k, ef.LogWeight, eg.LogWeight)
		}
		for d := range ef.State {
			if ef.State[d] != eg.State[d] {
				t.Fatalf("step %d: estimate diverged after restore", k)
			}
		}
		for s, l := range f.Pipeline().Windows() {
			if g.Pipeline().Windows()[s] != l {
				t.Fatalf("step %d: window partition diverged after restore", k)
			}
		}
	}
}

// TestParallelAdaptiveBatchMatchesSolo pins the serve-path contract:
// an adaptive filter stepped through the batcher produces the same
// trajectory (estimates and window partitions) as one stepped solo.
func TestParallelAdaptiveBatchMatchesSolo(t *testing.T) {
	solo := newAdaptiveParallel(t, kernels.AlgoRWS, 3)
	dev := device.New(device.Config{Workers: 4, LocalMemBytes: -1})
	batched, err := filter.NewParallel(dev, model.NewUNGM(), filter.ParallelConfig{
		SubFilters:    8,
		ParticlesPer:  16,
		Scheme:        exchange.Ring,
		ExchangeCount: 1,
		Resampler:     kernels.AlgoRWS,
		Adapt:         adaptCfg(),
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	bs := filter.NewBatchStepper(dev)
	for k := 1; k <= 12; k++ {
		z := []float64{0.4*float64(k) - 2}
		es := solo.Step(nil, z)
		out, err := bs.StepBatch([]*filter.Parallel{batched}, [][]float64{nil}, [][]float64{z})
		if err != nil {
			t.Fatal(err)
		}
		if es.LogWeight != out[0].LogWeight {
			t.Fatalf("step %d: batched log-weight diverged", k)
		}
		for d := range es.State {
			if es.State[d] != out[0].State[d] {
				t.Fatalf("step %d: batched estimate diverged", k)
			}
		}
		for s, l := range solo.Pipeline().Windows() {
			if batched.Pipeline().Windows()[s] != l {
				t.Fatalf("step %d: batched window partition diverged", k)
			}
		}
	}
	if batched.Pipeline().Reallocations() != solo.Pipeline().Reallocations() {
		t.Fatalf("reallocation counts diverged: batched %d, solo %d",
			batched.Pipeline().Reallocations(), solo.Pipeline().Reallocations())
	}
}
