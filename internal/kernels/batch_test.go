package kernels_test

import (
	"math"
	"runtime"
	"testing"

	"esthera/internal/device"
	"esthera/internal/exchange"
	"esthera/internal/kernels"
	"esthera/internal/model"
)

func newPipe(t testing.TB, dev *device.Device, sub, per int, seed uint64) *kernels.Pipeline {
	t.Helper()
	m := model.NewUNGM()
	top, err := exchange.NewTopology(exchange.Ring, sub)
	if err != nil {
		t.Fatal(err)
	}
	p, err := kernels.New(dev, m, kernels.Config{
		SubFilters:    sub,
		ParticlesPer:  per,
		ExchangeCount: 1,
		Topology:      top,
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRoundBatchMatchesSequential steps identical pipelines through
// merged batch launches — one persistent Batcher reused across rounds,
// as the serve scheduler drives it — and through plain sequential
// rounds, and requires bit-identical estimates and particle
// populations: batching is a scheduling optimization, never an
// algorithmic change.
func TestRoundBatchMatchesSequential(t *testing.T) {
	dev := device.New(device.Config{Workers: 4, LocalMemBytes: -1})
	const sessions = 5
	seq := make([]*kernels.Pipeline, sessions)
	bat := make([]*kernels.Pipeline, sessions)
	for i := range seq {
		seed := uint64(100 + i)
		seq[i] = newPipe(t, dev, 8, 16, seed)
		bat[i] = newPipe(t, dev, 8, 16, seed)
	}
	batcher := kernels.NewBatcher(dev)
	u := []float64{}
	for k := 1; k <= 10; k++ {
		z := []float64{float64(k) * 0.3}
		batch := make([]*kernels.BatchRound, sessions)
		for i := range batch {
			batch[i] = &kernels.BatchRound{P: bat[i], U: u, Z: z, K: k}
		}
		if err := batcher.Round(batch); err != nil {
			t.Fatal(err)
		}
		for i := range seq {
			state, lw := seq[i].Round(u, z, k)
			if lw != batch[i].LogW {
				t.Fatalf("step %d session %d: log-weight %v (seq) != %v (batch)", k, i, lw, batch[i].LogW)
			}
			for d := range state {
				if state[d] != batch[i].State[d] {
					t.Fatalf("step %d session %d dim %d: %v != %v", k, i, d, state[d], batch[i].State[d])
				}
			}
		}
	}
	for i := range seq {
		a, b := seq[i].Particles(), bat[i].Particles()
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("session %d particle word %d diverged", i, j)
			}
		}
	}
}

// TestRoundBatchMixedGroupSizes verifies the partition path: pipelines
// with different sub-filter sizes share a batch but not a grid.
func TestRoundBatchMixedGroupSizes(t *testing.T) {
	dev := device.New(device.Config{Workers: 4, LocalMemBytes: -1})
	a := newPipe(t, dev, 8, 16, 1)
	b := newPipe(t, dev, 4, 32, 2)
	ref := newPipe(t, dev, 4, 32, 2)
	batcher := kernels.NewBatcher(dev)
	u := []float64{}
	for k := 1; k <= 5; k++ {
		z := []float64{0.7}
		batch := []*kernels.BatchRound{
			{P: a, U: u, Z: z, K: k},
			{P: b, U: u, Z: z, K: k},
		}
		if err := batcher.Round(batch); err != nil {
			t.Fatal(err)
		}
		state, lw := ref.Round(u, z, k)
		if lw != batch[1].LogW || state[0] != batch[1].State[0] {
			t.Fatalf("step %d: mixed-size batch diverged from sequential", k)
		}
	}
}

// TestRoundBatchRejectsDuplicates ensures one session cannot have two
// rounds coalesced into a single batch, and that the rejection leaves
// the Batcher usable for the next, valid round.
func TestRoundBatchRejectsDuplicates(t *testing.T) {
	dev := device.New(device.Config{Workers: 2, LocalMemBytes: -1})
	p := newPipe(t, dev, 4, 16, 1)
	batcher := kernels.NewBatcher(dev)
	batch := []*kernels.BatchRound{
		{P: p, Z: []float64{0}, K: 1},
		{P: p, Z: []float64{0}, K: 2},
	}
	if err := batcher.Round(batch); err == nil {
		t.Fatal("duplicate pipeline accepted")
	}
	if err := batcher.Round(batch[:1]); err != nil {
		t.Fatalf("batcher unusable after a rejected round: %v", err)
	}
}

// TestSnapshotRestoreResumesIdentically checkpoints a pipeline mid-run,
// keeps stepping the original, then restores the snapshot into a fresh
// pipeline and requires the two estimate series to be bit-identical.
func TestSnapshotRestoreResumesIdentically(t *testing.T) {
	dev := device.New(device.Config{Workers: 2, LocalMemBytes: -1})
	p := newPipe(t, dev, 8, 16, 7)
	u := []float64{}
	for k := 1; k <= 6; k++ {
		p.Round(u, []float64{float64(k)}, k)
	}
	snap := p.Snapshot()

	q := newPipe(t, dev, 8, 16, 999) // different seed: state fully overwritten by Restore
	if err := q.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for k := 7; k <= 16; k++ {
		z := []float64{float64(k)}
		ws, wlw := p.Round(u, z, k)
		gs, glw := q.Round(u, z, k)
		if wlw != glw {
			t.Fatalf("step %d: restored log-weight %v != %v", k, glw, wlw)
		}
		for d := range ws {
			if ws[d] != gs[d] {
				t.Fatalf("step %d dim %d: restored %v != %v", k, d, gs[d], ws[d])
			}
		}
	}
}

// TestRestoreRejectsShapeMismatch ensures a snapshot cannot be restored
// into a differently shaped pipeline.
func TestRestoreRejectsShapeMismatch(t *testing.T) {
	dev := device.New(device.Config{Workers: 2, LocalMemBytes: -1})
	p := newPipe(t, dev, 8, 16, 1)
	q := newPipe(t, dev, 4, 16, 1)
	if err := q.Restore(p.Snapshot()); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

// TestRestoreRejectsMalformedStreamUntouched restores a snapshot whose
// last stream state no buffer saves (its block end sits at its start).
// Restore must fail, and the pipeline, whose earlier streams it had
// already restored, must go on exactly as an untouched twin.
func TestRestoreRejectsMalformedStreamUntouched(t *testing.T) {
	dev := device.New(device.Config{Workers: 2, LocalMemBytes: -1})
	p, twin := newPipe(t, dev, 8, 16, 3), newPipe(t, dev, 8, 16, 3)
	src := newPipe(t, dev, 8, 16, 5)
	u := []float64{}
	for k := 1; k <= 3; k++ {
		for _, q := range []*kernels.Pipeline{p, twin, src} {
			q.Round(u, []float64{float64(k)}, k)
		}
	}
	bad := src.Snapshot()
	last := &bad.Rands[len(bad.Rands)-1].Sub[0] // the rand state's buffer
	last.Sub[1] = last.Sub[0]
	if err := p.Restore(bad); err == nil {
		t.Fatal("a buffer state ending at its start was accepted")
	}
	for k := 4; k <= 8; k++ {
		z := []float64{float64(k)}
		ws, wlw := twin.Round(u, z, k)
		gs, glw := p.Round(u, z, k)
		if math.Float64bits(wlw) != math.Float64bits(glw) || math.Float64bits(ws[0]) != math.Float64bits(gs[0]) {
			t.Fatalf("step %d: after a rejected restore the pipeline reads %v (%v), want %v (%v)", k, gs, glw, ws, wlw)
		}
	}
}

// TestRoundBatchSteadyStateAllocs pins the batched serving path's fixed
// steady-state cost: a persistent Batcher driving reused BatchRound
// entries performs zero heap allocations per round. Rebuilding the
// partition maps, group tables, and launch closures on every round is
// pure overhead next to the sequential path (whose rounds are
// allocation-free) and erases the batched path's win.
func TestRoundBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on allocation-free paths")
	}
	dev := device.New(device.Config{LocalMemBytes: -1})
	defer dev.Close()
	const sessions = 4
	batcher := kernels.NewBatcher(dev)
	batch := make([]*kernels.BatchRound, sessions)
	for i := range batch {
		batch[i] = &kernels.BatchRound{P: newPipe(t, dev, 4, 32, uint64(i+1))}
	}
	k := 0
	z := []float64{0}
	round := func() {
		k++
		z[0] = float64(k % 7)
		for _, e := range batch {
			e.Z = z
			e.K = k
		}
		if err := batcher.Round(batch); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up: first rounds grow the partition tables and the entries'
	// State buffers to their steady-state capacities.
	for i := 0; i < 3; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
		t.Fatalf("steady-state batched round allocates %.1f objects/round, want 0", allocs)
	}
}

// TestRoundFusedMultiWorkerMallocs pins the fused round allocation-free
// on a 2-worker device with two Ps, solo and batched at the serve-busy
// shape (32 UNGM 16×64 ring t=1 sessions in one Batcher round). It
// counts mallocs with runtime.ReadMemStats because testing.AllocsPerRun
// sets GOMAXPROCS to 1, where a launch never races its queued helper
// for the recycled launch task and so never allocates a fresh one.
func TestRoundFusedMultiWorkerMallocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on allocation-free paths")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	dev := device.New(device.Config{Workers: 2, LocalMemBytes: -1})
	defer dev.Close()
	p := newPipe(t, dev, 64, 128, 1)
	batcher := kernels.NewBatcher(dev)
	batch := make([]*kernels.BatchRound, 32)
	for i := range batch {
		batch[i] = &kernels.BatchRound{P: newPipe(t, dev, 16, 64, uint64(i+2))}
	}
	z := []float64{0}
	k := 0
	for _, c := range []struct {
		name  string
		round func()
	}{
		{"solo 64x128", func() { p.RoundFused(nil, z, k) }},
		{"batch 32 x 16x64", func() {
			for _, e := range batch {
				e.Z, e.K = z, k
			}
			if err := batcher.Round(batch); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		k = 0
		round := func() {
			k++
			z[0] = float64(k % 7)
			c.round()
		}
		for i := 0; i < 10; i++ {
			round()
		}
		const rounds = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			round()
		}
		runtime.ReadMemStats(&after)
		if perRound := float64(after.Mallocs-before.Mallocs) / rounds; perRound > 0.5 {
			t.Errorf("%s fused round on 2 workers mallocs %.2f objects/round, want ~0", c.name, perRound)
		}
	}
}
