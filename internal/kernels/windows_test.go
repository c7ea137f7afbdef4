package kernels

import (
	"math"
	"testing"

	"esthera/internal/device"
	"esthera/internal/exchange"
	"esthera/internal/model"
)

func newWindowPipeline(t *testing.T, algo Algo, seed uint64) *Pipeline {
	t.Helper()
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
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func stepRounds(p *Pipeline, from, n int) ([]float64, float64) {
	var state []float64
	var lw float64
	for k := from; k < from+n; k++ {
		z := []float64{0.4*float64(k) - 1}
		state, lw = p.RoundFused(nil, z, k)
	}
	return state, lw
}

func TestReallocateValidation(t *testing.T) {
	p := newWindowPipeline(t, AlgoRWS, 1)
	cases := []struct {
		name  string
		sizes []int
	}{
		{"wrong-count", []int{64, 64}},
		{"sum-mismatch", []int{16, 16, 16, 16, 16, 16, 16, 17}},
		{"zero-window", []int{0, 32, 16, 16, 16, 16, 16, 16}},
		// Ring degree 2 × t=1 ⇒ 2 incoming; a window of 2 cannot hold them.
		{"window-below-incoming", []int{2, 30, 16, 16, 16, 16, 16, 16}},
	}
	for _, c := range cases {
		if err := p.Reallocate(c.sizes); err == nil {
			t.Errorf("%s: Reallocate(%v) must fail", c.name, c.sizes)
		}
	}
	// A failed call must leave the uniform windows untouched.
	for s, l := range p.Windows() {
		if l != 16 {
			t.Fatalf("window %d = %d after failed Reallocate, want 16", s, l)
		}
	}
	if p.Reallocations() != 0 {
		t.Fatalf("failed Reallocate counted: %d", p.Reallocations())
	}
}

func TestReallocateMovesParticles(t *testing.T) {
	p := newWindowPipeline(t, AlgoRWS, 2)
	// Tag every particle with its arena row so moves are observable.
	x := p.Particles()
	lw := p.LogWeights()
	for i := range x {
		x[i] = float64(i)
		lw[i] = float64(i) / 100
	}
	p.SetParticles(x)

	sizes := []int{24, 8, 16, 16, 24, 8, 16, 16}
	if err := p.Reallocate(sizes); err != nil {
		t.Fatal(err)
	}
	if p.Reallocations() != 1 {
		t.Fatalf("Reallocations = %d, want 1", p.Reallocations())
	}
	got := p.Windows()
	for s := range sizes {
		if got[s] != sizes[s] {
			t.Fatalf("window %d = %d, want %d", s, got[s], sizes[s])
		}
	}

	// Shrunk window 1 (rows 16..31 before) keeps its leading 8 rows;
	// grown window 0 cycle-clones its 16 rows over 24 slots. Log-weights
	// travel with their particles.
	rec := make([]float64, 1)
	for j := 0; j < 24; j++ {
		p.ReadParticle(0, j, rec)
		want := float64(j % 16)
		if rec[0] != want {
			t.Fatalf("grown window slot %d = %v, want cycle-cloned row %v", j, rec[0], want)
		}
	}
	for j := 0; j < 8; j++ {
		p.ReadParticle(1, j, rec)
		want := float64(16 + j)
		if rec[0] != want {
			t.Fatalf("shrunk window slot %d = %v, want prefix row %v", j, rec[0], want)
		}
	}
	lw = p.LogWeights()
	if lw[16] != float64(16%16)/100 {
		t.Fatalf("grown window clone log-weight = %v", lw[16])
	}
	if lw[24+5] != float64(16+5)/100 {
		t.Fatalf("shrunk window log-weight = %v", lw[24+5])
	}

	// No-op reallocation (same sizes) must not count.
	if err := p.Reallocate(sizes); err != nil {
		t.Fatal(err)
	}
	if p.Reallocations() != 1 {
		t.Fatalf("no-op Reallocate counted: %d", p.Reallocations())
	}
}

// TestReallocateCheckpointRoundTrip pins the adaptive allocator's
// restore contract: a snapshot taken after a window resize restores into
// a fresh pipeline bit-exactly — both filters produce identical
// estimates, log-weights, and particle buffers for every subsequent
// round.
func TestReallocateCheckpointRoundTrip(t *testing.T) {
	for _, algo := range []Algo{AlgoRWS, AlgoVose} {
		p := newWindowPipeline(t, algo, 3)
		stepRounds(p, 1, 3)
		if err := p.Reallocate([]int{24, 8, 16, 16, 24, 8, 16, 16}); err != nil {
			t.Fatal(err)
		}
		stepRounds(p, 4, 3)

		snap := p.Snapshot()
		if snap.Windows == nil {
			t.Fatal("snapshot of a resized pipeline must carry windows")
		}

		q := newWindowPipeline(t, algo, 99) // different seed: restore must overwrite
		if err := q.Restore(snap); err != nil {
			t.Fatal(err)
		}
		for s, l := range q.Windows() {
			if l != snap.Windows[s] {
				t.Fatalf("%v: restored window %d = %d, want %d", algo, s, l, snap.Windows[s])
			}
		}
		for k := 7; k <= 12; k++ {
			z := []float64{0.4*float64(k) - 1}
			sp, lp := p.RoundFused(nil, z, k)
			sq, lq := q.RoundFused(nil, z, k)
			if lp != lq {
				t.Fatalf("%v: step %d log-weight diverged: %v vs %v", algo, k, lp, lq)
			}
			for d := range sp {
				if sp[d] != sq[d] {
					t.Fatalf("%v: step %d estimate diverged", algo, k)
				}
			}
			for i, w := range p.LogWeights() {
				if w != q.LogWeights()[i] {
					t.Fatalf("%v: step %d logw[%d] diverged", algo, k, i)
				}
			}
			for i, x := range p.Particles() {
				if x != q.Particles()[i] {
					t.Fatalf("%v: step %d particle[%d] diverged", algo, k, i)
				}
			}
		}
	}
}

// TestUniformSnapshotHasNoWindows pins the wire format: pipelines that
// never reallocated serialize exactly as before the adaptive allocator
// existed (Windows omitted).
func TestUniformSnapshotHasNoWindows(t *testing.T) {
	p := newWindowPipeline(t, AlgoRWS, 4)
	stepRounds(p, 1, 2)
	if snap := p.Snapshot(); snap.Windows != nil {
		t.Fatalf("uniform pipeline snapshot carries windows %v", snap.Windows)
	}
}

// TestAdaptiveWindowsFilterStepsSanely runs non-uniform windows through
// full rounds for every local scheme and checks the filter stays finite
// and the window partition is preserved.
func TestAdaptiveWindowsFilterStepsSanely(t *testing.T) {
	for _, algo := range []Algo{AlgoRWS, AlgoVose, AlgoSystematic} {
		p := newWindowPipeline(t, algo, 5)
		stepRounds(p, 1, 2)
		sizes := []int{32, 4, 12, 16, 28, 8, 20, 8}
		if err := p.Reallocate(sizes); err != nil {
			t.Fatal(err)
		}
		state, lw := stepRounds(p, 3, 6)
		if math.IsNaN(state[0]) || math.IsNaN(lw) {
			t.Fatalf("%v: adaptive windows produced NaN estimate", algo)
		}
		for s, l := range p.Windows() {
			if l != sizes[s] {
				t.Fatalf("%v: window %d drifted to %d", algo, s, l)
			}
		}
		essf := p.SubESSFrac(nil)
		if len(essf) != 8 {
			t.Fatalf("SubESSFrac returned %d entries", len(essf))
		}
		for s, f := range essf {
			if !(f >= 0 && f <= 1.0000001) {
				t.Fatalf("%v: SubESSFrac[%d] = %v out of range", algo, s, f)
			}
		}
	}
}

// TestResampleESSFracIsHonest pins the allocator-signal bugfix: under an
// always-resample policy the post-round log-weights are freshly reset, so
// their ESS fraction reads a lying "fully healthy" 1.0 for every
// sub-filter, every round. The signal recorded inside the round at the
// resample decision point retains the actual pre-reset degeneracy — the
// adaptive allocator must read that one.
func TestResampleESSFracIsHonest(t *testing.T) {
	p := newWindowPipeline(t, AlgoRWS, 7)
	for s, f := range p.ResampleESSFrac(nil) {
		if f != 1 {
			t.Fatalf("pre-round recorded ESS frac [%d] = %v, want healthy prior 1", s, f)
		}
	}
	stepRounds(p, 1, 5)
	post := p.SubESSFrac(nil)
	rec := p.ResampleESSFrac(nil)
	for s, f := range post {
		if math.Abs(f-1) > 1e-9 {
			t.Fatalf("post-round live ESS frac [%d] = %v — resampled weights must read uniform (that is the lie)", s, f)
		}
	}
	anyDegraded := false
	for s, f := range rec {
		if !(f >= 0 && f <= 1.0000001) {
			t.Fatalf("recorded ESS frac [%d] = %v out of range", s, f)
		}
		if f < 0.999 {
			anyDegraded = true
		}
	}
	if !anyDegraded {
		t.Fatal("recorded resample-point ESS reads fully healthy everywhere — the honest signal was not captured")
	}
}

// TestSubESSFracSignals checks the allocator's input signal: uniform
// weights read ≈1, a collapsed window reads ≈0, and poisoned windows
// clamp to exactly 0.
func TestSubESSFracSignals(t *testing.T) {
	p := newPipeline(t, Config{SubFilters: 4, ParticlesPer: 16}, 6)
	lw := p.LogWeights()
	for i := 0; i < 16; i++ { // window 0: uniform
		lw[i] = -2
	}
	for i := 16; i < 32; i++ { // window 1: collapsed onto slot 0
		lw[i] = -900
	}
	lw[16] = 0
	for i := 32; i < 48; i++ { // window 2: poisoned
		lw[i] = -1
	}
	lw[40] = math.NaN()
	for i := 48; i < 64; i++ { // window 3: fully underflowed
		lw[i] = math.Inf(-1)
	}
	f := p.SubESSFrac(nil)
	if math.Abs(f[0]-1) > 1e-12 {
		t.Fatalf("uniform window ESS frac = %v, want 1", f[0])
	}
	if f[1] > 0.07 {
		t.Fatalf("collapsed window ESS frac = %v, want ≈ 1/16", f[1])
	}
	if f[2] != 0 {
		t.Fatalf("poisoned window ESS frac = %v, want exactly 0", f[2])
	}
	if f[3] != 0 {
		t.Fatalf("underflowed window ESS frac = %v, want exactly 0", f[3])
	}
}
