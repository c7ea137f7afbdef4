package kernels

import (
	"math"
	"testing"

	"esthera/internal/device"
	"esthera/internal/exchange"
	"esthera/internal/model"
	"esthera/internal/model/arm"
	"esthera/internal/resample"
	"esthera/internal/rng"
)

func newPipeline(t *testing.T, cfg Config, seed uint64) *Pipeline {
	t.Helper()
	dev := device.New(device.Config{Workers: 4, LocalMemBytes: -1})
	if cfg.Topology == nil && cfg.ExchangeCount > 0 {
		top, err := exchange.NewTopology(exchange.Ring, cfg.SubFilters)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Topology = top
	}
	p, err := New(dev, model.NewUNGM(), cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAlgoByName(t *testing.T) {
	for _, algo := range []Algo{AlgoRWS, AlgoVose, AlgoSystematic} {
		got, err := AlgoByName(algo.String())
		if err != nil || got != algo {
			t.Fatalf("AlgoByName(%q) = %v, %v; want %v", algo.String(), got, err, algo)
		}
	}
	if got, err := AlgoByName(""); err != nil || got != AlgoRWS {
		t.Fatalf(`AlgoByName("") = %v, %v; want rws`, got, err)
	}
	for _, name := range []string{"bogus", "metropolis"} {
		if _, err := AlgoByName(name); err == nil {
			t.Fatalf("AlgoByName(%q) must error", name)
		}
	}
}

func TestValidation(t *testing.T) {
	dev := device.New(device.Config{Workers: 1})
	m := model.NewUNGM()
	if _, err := New(dev, m, Config{SubFilters: 0, ParticlesPer: 4}, 1); err == nil {
		t.Fatal("zero sub-filters must error")
	}
	top, _ := exchange.NewTopology(exchange.Ring, 8)
	if _, err := New(dev, m, Config{SubFilters: 4, ParticlesPer: 4, Topology: top}, 1); err == nil {
		t.Fatal("topology size mismatch must error")
	}
	top4, _ := exchange.NewTopology(exchange.Ring, 4)
	if _, err := New(dev, m, Config{SubFilters: 4, ParticlesPer: 4, Topology: top4, ExchangeCount: 2}, 1); err == nil {
		t.Fatal("incoming >= m must error")
	}
	if _, err := New(dev, m, Config{SubFilters: 4, ParticlesPer: 4, Topology: top4, ExchangeCount: -1}, 1); err == nil {
		t.Fatal("negative exchange count must error")
	}
}

func TestKernelNamesMatchPaperBreakdown(t *testing.T) {
	p := newPipeline(t, Config{SubFilters: 8, ParticlesPer: 16, ExchangeCount: 1}, 1)
	z := []float64{0.5}
	p.Round(nil, z, 1)
	want := map[string]bool{
		"rand": true, "sampling": true, "local sort": true,
		"global estimate": true, "exchange": true, "resampling": true,
	}
	snap := p.Device().Profiler().Snapshot()
	got := map[string]bool{}
	for _, e := range snap {
		got[e.Name] = true
	}
	for name := range want {
		if !got[name] {
			t.Errorf("kernel %q missing from profile (have %v)", name, got)
		}
	}
	if len(got) != len(want) {
		t.Errorf("unexpected kernels in profile: %v", got)
	}
}

func TestSortKernelOrdersEveryBlock(t *testing.T) {
	p := newPipeline(t, Config{SubFilters: 8, ParticlesPer: 32}, 2)
	// Scatter arbitrary log-weights, run the sort kernel, check order and
	// payload association.
	r := rng.New(rng.NewPhilox(3))
	lw := p.LogWeights()
	for i := range lw {
		lw[i] = r.Float64() * 10
	}
	// Tag each particle's state with its own weight so we can verify the
	// payload moved with the key (UNGM dim = 1).
	x := p.Particles()
	for i := range lw {
		x[i] = lw[i]
	}
	p.SetParticles(x)
	p.KernelSortLocal()
	lw = p.LogWeights()
	x = p.Particles()
	m := 32
	for s := 0; s < 8; s++ {
		for i := 1; i < m; i++ {
			if lw[s*m+i] > lw[s*m+i-1] {
				t.Fatalf("block %d not descending at %d", s, i)
			}
		}
		for i := 0; i < m; i++ {
			if x[s*m+i] != lw[s*m+i] {
				t.Fatalf("payload did not follow key: block %d slot %d", s, i)
			}
		}
	}
}

func TestEstimateKernelPicksGlobalBest(t *testing.T) {
	p := newPipeline(t, Config{SubFilters: 16, ParticlesPer: 8}, 3)
	lw := p.LogWeights()
	for i := range lw {
		lw[i] = -float64(i)
	}
	// Plant the best at block 11, and make block heads reflect sorted
	// order (estimate assumes sorted blocks: head = block max).
	lw[11*8] = 100
	x := p.Particles()
	x[11*8] = 123.456
	p.SetParticles(x)
	state, best := p.KernelEstimate()
	if best != 100 {
		t.Fatalf("best log-weight %v, want 100", best)
	}
	if sub, _ := p.Best(); sub != 11 {
		t.Fatalf("best sub-filter %d, want 11", sub)
	}
	if state[0] != 123.456 {
		t.Fatalf("best state %v, want 123.456", state[0])
	}
}

func TestExchangeRingMovesBestToNeighborsWorstSlots(t *testing.T) {
	const N, m, tc = 4, 8, 2
	top, _ := exchange.NewTopology(exchange.Ring, N)
	p := newPipeline(t, Config{SubFilters: N, ParticlesPer: m, ExchangeCount: tc, Topology: top}, 4)
	lw := p.LogWeights()
	x := p.Particles()
	// Give block s weights descending from 100s (pre-sorted), tag states.
	for s := 0; s < N; s++ {
		for i := 0; i < m; i++ {
			lw[s*m+i] = float64(100*s) - float64(i)
			x[s*m+i] = float64(1000*s + i)
		}
	}
	p.SetParticles(x)
	p.KernelExchange()
	lw = p.LogWeights()
	x = p.Particles()
	// Block 0's neighbors are 3 and 1; its worst 4 slots (2 neighbors × 2)
	// must now hold their top-2 particles.
	wantStates := []float64{3000, 3001, 1000, 1001}
	wantW := []float64{300, 299, 100, 99}
	for i := 0; i < 4; i++ {
		slot := m - 4 + i
		if x[slot] != wantStates[i] || lw[slot] != wantW[i] {
			t.Fatalf("slot %d: state %v weight %v, want %v/%v", slot, x[slot], lw[slot], wantStates[i], wantW[i])
		}
	}
	// Untouched slots keep native particles.
	for i := 0; i < m-4; i++ {
		if x[i] != float64(i) {
			t.Fatalf("native slot %d overwritten: %v", i, x[i])
		}
	}
}

func TestExchangeAllToAllBroadcastsGlobalBest(t *testing.T) {
	const N, m, tc = 4, 8, 2
	top, _ := exchange.NewTopology(exchange.AllToAll, N)
	p := newPipeline(t, Config{SubFilters: N, ParticlesPer: m, ExchangeCount: tc, Topology: top}, 5)
	lw := p.LogWeights()
	x := p.Particles()
	for s := 0; s < N; s++ {
		for i := 0; i < m; i++ {
			lw[s*m+i] = float64(10*s) - float64(i)
			x[s*m+i] = float64(1000*s + i)
		}
	}
	p.SetParticles(x)
	p.KernelExchange()
	lw = p.LogWeights()
	x = p.Particles()
	// Global best two of the pooled (top-2 per block) are 30, 29 from
	// block 3; every block's worst 2 slots must hold exactly those.
	for s := 0; s < N; s++ {
		for i := 0; i < tc; i++ {
			slot := s*m + m - tc + i
			if lw[slot] != float64(30-i) || x[slot] != float64(3000+i) {
				t.Fatalf("block %d slot %d: got w=%v x=%v", s, i, lw[slot], x[slot])
			}
		}
	}
}

func TestExchangeCountZeroIsNoOp(t *testing.T) {
	p := newPipeline(t, Config{SubFilters: 4, ParticlesPer: 8}, 6)
	before := append([]float64(nil), p.Particles()...)
	p.KernelExchange()
	for i, v := range p.Particles() {
		if v != before[i] {
			t.Fatal("exchange with t=0 modified particles")
		}
	}
}

func TestResampleKernelResetsWeightsAndConcentrates(t *testing.T) {
	for _, algo := range []Algo{AlgoRWS, AlgoVose, AlgoSystematic} {
		p := newPipeline(t, Config{SubFilters: 4, ParticlesPer: 64, Resampler: algo}, 7)
		lw := p.LogWeights()
		x := p.Particles()
		// One dominant particle per block (slot 5).
		for s := 0; s < 4; s++ {
			for i := 0; i < 64; i++ {
				lw[s*64+i] = -1000
				x[s*64+i] = float64(i)
			}
			lw[s*64+5] = 0
		}
		p.SetParticles(x)
		p.KernelResample()
		lw = p.LogWeights()
		x = p.Particles()
		for s := 0; s < 4; s++ {
			for i := 0; i < 64; i++ {
				if lw[s*64+i] != 0 {
					t.Fatalf("%v: weight not reset at block %d slot %d", algo, s, i)
				}
				if x[s*64+i] != 5 {
					t.Fatalf("%v: slot %d of block %d = %v, want the dominant particle 5", algo, i, s, x[s*64+i])
				}
			}
		}
	}
}

func TestResampleKernelProportions(t *testing.T) {
	// Statistical check: two particles with weights 0.25/0.75 in each
	// block; after resampling, survivor counts must reflect that.
	for _, algo := range []Algo{AlgoRWS, AlgoVose, AlgoSystematic} {
		p := newPipeline(t, Config{SubFilters: 64, ParticlesPer: 64, Resampler: algo}, 8)
		lw := p.LogWeights()
		x := p.Particles()
		for i := range lw {
			if i%2 == 0 {
				lw[i] = math.Log(0.25)
				x[i] = 0
			} else {
				lw[i] = math.Log(0.75)
				x[i] = 1
			}
		}
		p.SetParticles(x)
		p.KernelResample()
		ones := 0
		for _, v := range p.Particles() {
			if v == 1 {
				ones++
			}
		}
		frac := float64(ones) / float64(len(p.Particles()))
		if frac < 0.70 || frac > 0.80 {
			t.Fatalf("%v: heavy-particle fraction %v, want ≈ 0.75", algo, frac)
		}
	}
}

func TestResamplePolicyNeverKeepsPopulation(t *testing.T) {
	p := newPipeline(t, Config{SubFilters: 4, ParticlesPer: 16, Policy: resample.Never{}}, 9)
	lw := p.LogWeights()
	x := p.Particles()
	for i := range lw {
		lw[i] = float64(i)
		x[i] = float64(i)
	}
	p.SetParticles(x)
	p.KernelResample()
	for i, v := range p.Particles() {
		if v != float64(i) {
			t.Fatal("policy Never still resampled")
		}
	}
	if p.LogWeights()[3] != 3 {
		t.Fatal("policy Never reset weights")
	}
}

func TestRandKernelFeedsSampling(t *testing.T) {
	// After the rand kernel, the sampling kernel must be deterministic
	// given the seed: two pipelines with the same seed produce identical
	// particle sets after a round.
	mk := func() *Pipeline {
		return newPipeline(t, Config{SubFilters: 8, ParticlesPer: 16, ExchangeCount: 1}, 42)
	}
	a, b := mk(), mk()
	z := []float64{1.2}
	a.Round(nil, z, 1)
	b.Round(nil, z, 1)
	for i := range a.Particles() {
		if a.Particles()[i] != b.Particles()[i] {
			t.Fatalf("same-seed pipelines diverge at particle %d", i)
		}
	}
}

func TestLocalMemoryFitsGPUDefaults(t *testing.T) {
	// The paper's GPU sub-filter sizes (128–512 particles) must fit the
	// default 48 KiB local memory across all kernels.
	dev := device.New(device.Config{Workers: 2}) // default 48 KiB
	m, _, err := arm.NewScenario(arm.Config{}, arm.DefaultLemniscate())
	if err != nil {
		t.Fatal(err)
	}
	top, _ := exchange.NewTopology(exchange.Ring, 4)
	p, err := New(dev, m, Config{SubFilters: 4, ParticlesPer: 512, ExchangeCount: 1, Topology: top}, 1)
	if err != nil {
		t.Fatal(err)
	}
	z := make([]float64, m.MeasurementDim())
	u := make([]float64, m.ControlDim())
	p.Round(u, z, 1) // panics on local-memory overflow
}

func TestMeanEstimateKernel(t *testing.T) {
	dev := device.New(device.Config{Workers: 2, LocalMemBytes: -1})
	p, err := New(dev, model.NewUNGM(), Config{SubFilters: 4, ParticlesPer: 8, MeanEstimate: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Uniform weights: the mean estimate is the plain average of states.
	lw := p.LogWeights()
	x := p.Particles()
	want := 0.0
	for i := range lw {
		lw[i] = 0
		x[i] = float64(i)
		want += float64(i)
	}
	p.SetParticles(x)
	want /= float64(len(x))
	state, _ := p.KernelEstimate()
	if math.Abs(state[0]-want) > 1e-9 {
		t.Fatalf("uniform-weight mean = %v, want %v", state[0], want)
	}
	// One dominant particle: the mean collapses onto it. The estimate
	// kernel reads block heads for the global max (blocks are sorted in
	// a real round), so the dominant particle sits at a block head.
	for i := range lw {
		lw[i] = -1e6
	}
	lw[1*8] = 0 // head of block 1
	state, bestLW := p.KernelEstimate()
	if math.Abs(state[0]-x[1*8]) > 1e-6 {
		t.Fatalf("dominated mean = %v, want %v", state[0], x[1*8])
	}
	if bestLW != 0 {
		t.Fatalf("best log-weight %v, want 0", bestLW)
	}
}

func TestMeanEstimateDegenerateWeights(t *testing.T) {
	dev := device.New(device.Config{Workers: 1, LocalMemBytes: -1})
	p, err := New(dev, model.NewUNGM(), Config{SubFilters: 2, ParticlesPer: 4, MeanEstimate: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	lw := p.LogWeights()
	for i := range lw {
		lw[i] = math.Inf(-1)
	}
	state, _ := p.KernelEstimate()
	if math.IsNaN(state[0]) {
		t.Fatal("degenerate weights produced NaN estimate")
	}
}
