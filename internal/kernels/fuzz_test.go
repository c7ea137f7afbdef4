package kernels

import (
	"math"
	"testing"

	"esthera/internal/device"
	"esthera/internal/exchange"
)

// fuzzSession is one pipeline under test with the inputs that drive it.
type fuzzSession struct {
	model string
	cfg   Config
	seed  uint64
	off   float64 // measurement offset, so batched sessions see distinct inputs
}

// build constructs the session's pipeline on dev, or reports why New
// rejects its configuration.
func (fs fuzzSession) build(t *testing.T, dev *device.Device, scheme exchange.Scheme, seed uint64) (*Pipeline, error) {
	t.Helper()
	top, err := exchange.NewTopology(scheme, fs.cfg.SubFilters)
	if err != nil {
		return nil, err
	}
	cfg := fs.cfg
	cfg.Topology = top
	return New(dev, goldenModel(t, fs.model), cfg, seed)
}

// inputs returns round k's control and measurement; poison is added to
// the measurement on round poisonRound.
func (fs fuzzSession) inputs(p *Pipeline, k int, poison float64) (u, z []float64) {
	u = make([]float64, p.mdl.ControlDim())
	z = make([]float64, p.mdl.MeasurementDim())
	for j := range u {
		u[j] = 0.05 * float64(k+j)
	}
	for j := range z {
		z[j] = 0.3*float64(k) - 0.1*float64(j) - 1 + fs.off
		if k == poisonRound {
			z[j] += poison
		}
	}
	return u, z
}

const (
	fuzzRounds  = 6
	poisonRound = 3
	// snapRound is the round after which the fused pipeline is
	// snapshotted and restored into a fresh one.
	snapRound = 3
)

// sameRound fails unless got's last round is bit-identical to want's:
// estimate, log-weight, best sub-filter, log-weights and particles.
func sameRound(t *testing.T, what string, k int, want, got *Pipeline, ws, gs []float64, wlw, glw float64) {
	t.Helper()
	if math.Float64bits(wlw) != math.Float64bits(glw) {
		t.Fatalf("%s round %d: log-weight %v, reference %v", what, k, glw, wlw)
	}
	for d := range ws {
		if math.Float64bits(ws[d]) != math.Float64bits(gs[d]) {
			t.Fatalf("%s round %d: estimate[%d] %v, reference %v", what, k, d, gs[d], ws[d])
		}
	}
	if wb, _ := want.Best(); true {
		if gb, _ := got.Best(); gb != wb {
			t.Fatalf("%s round %d: best sub-filter %d, reference %d", what, k, gb, wb)
		}
	}
	assertSameState(t, what, want, got)
}

// FuzzRoundEquivalence is the differential net under every fast path:
// for a fuzzed configuration — N from 1 to 12, m from 2 to 64, exchange
// count, model, topology, resampler and estimator — RoundFused, a
// Batcher round over a mix of sessions, and a pipeline restored from a
// mid-stream Snapshot must each match the paper-baseline Round on a
// one-worker device bit for bit, every round. The fast paths run on a
// device of one or two workers; poison is added to one round's
// measurement, so huge values drive every log-weight to −Inf.
// Configurations New rejects are skipped. The batch split picks how
// many companion sessions (same group size, another group size) share
// the batch and where the fuzzed session sits in it.
func FuzzRoundEquivalence(f *testing.F) {
	// n, m, t, model, topology, resampler, mean, seed, workers, split, poison
	f.Add(uint8(7), uint8(14), uint8(1), uint8(0), uint8(2), uint8(0), false, uint64(1), uint8(1), uint8(3), 0.0)
	f.Add(uint8(11), uint8(22), uint8(1), uint8(0), uint8(2), uint8(1), true, uint64(2), uint8(0), uint8(6), 1e200)
	f.Add(uint8(3), uint8(30), uint8(2), uint8(2), uint8(3), uint8(2), false, uint64(3), uint8(1), uint8(1), 0.0)
	f.Add(uint8(5), uint8(6), uint8(1), uint8(1), uint8(1), uint8(0), true, uint64(4), uint8(1), uint8(2), 0.0)
	f.Fuzz(func(t *testing.T, n, m, tc, mdl, top, algo uint8, mean bool, seed uint64, workers, split uint8, poison float64) {
		target := fuzzSession{
			model: []string{"ungm", "bearings", "arm"}[mdl%3],
			cfg: Config{
				SubFilters:    1 + int(n)%12,
				ParticlesPer:  2 + int(m)%63,
				ExchangeCount: int(tc) % 4,
				Resampler:     Algo(algo % 3),
				MeanEstimate:  mean,
			},
			seed: seed,
		}
		scheme := []exchange.Scheme{exchange.None, exchange.Ring, exchange.Torus2D, exchange.AllToAll}[top%4]
		refDev := device.New(device.Config{Workers: 1, LocalMemBytes: -1})
		defer refDev.Close()
		dev := device.New(device.Config{Workers: 1 + int(workers)%2, LocalMemBytes: -1})
		defer dev.Close()

		ref, err := target.build(t, refDev, scheme, seed)
		if err != nil {
			t.Skip(err)
		}
		fused, _ := target.build(t, dev, scheme, seed)
		restored, _ := target.build(t, dev, scheme, seed^0x5eed)

		// The batch: the fuzzed session plus up to three companions —
		// another session of its shape, a 3-sub-filter all-to-all UNGM
		// session sharing its group size, and a bearings 4×8 ring session
		// that usually forces a second partition.
		companions := []fuzzSession{
			{target.model, target.cfg, seed + 1, 0.25},
			{"ungm", Config{SubFilters: 3, ParticlesPer: target.cfg.ParticlesPer, ExchangeCount: 1, MeanEstimate: true}, seed + 2, 0.5},
			{"bearings", Config{SubFilters: 4, ParticlesPer: 8, ExchangeCount: 1}, seed + 3, 0.75},
		}
		companionSchemes := []exchange.Scheme{scheme, exchange.AllToAll, exchange.Ring}
		sessions := companions[:int(split)%4]
		schemes := companionSchemes[:len(sessions)]
		at := int(split/4) % (len(sessions) + 1)
		sessions = append(sessions[:at:at], append([]fuzzSession{target}, sessions[at:]...)...)
		schemes = append(schemes[:at:at], append([]exchange.Scheme{scheme}, schemes[at:]...)...)
		var refs, batched []*Pipeline
		for i, fs := range sessions {
			r, err := fs.build(t, refDev, schemes[i], fs.seed)
			if err != nil {
				t.Fatalf("companion %d: %v", i, err)
			}
			b, _ := fs.build(t, dev, schemes[i], fs.seed)
			refs, batched = append(refs, r), append(batched, b)
		}
		batch := make([]*BatchRound, len(sessions))
		for i := range batch {
			batch[i] = &BatchRound{P: batched[i]}
		}
		batcher := NewBatcher(dev)

		for k := 1; k <= fuzzRounds; k++ {
			u, z := target.inputs(ref, k, poison)
			ws, wlw := ref.Round(u, z, k)
			gs, glw := fused.RoundFused(u, z, k)
			sameRound(t, "RoundFused", k, ref, fused, ws, gs, wlw, glw)
			if k > snapRound {
				gs, glw = restored.RoundFused(u, z, k)
				sameRound(t, "restored", k, ref, restored, ws, gs, wlw, glw)
			}
			if k == snapRound {
				if err := restored.Restore(fused.Snapshot()); err != nil {
					t.Fatal(err)
				}
			}

			for i, e := range batch {
				e.U, e.Z = sessions[i].inputs(e.P, k, poison)
				e.K = k
			}
			if err := batcher.Round(batch); err != nil {
				t.Fatal(err)
			}
			for i, e := range batch {
				ru, rz := sessions[i].inputs(refs[i], k, poison)
				ws, wlw := refs[i].Round(ru, rz, k)
				sameRound(t, "batched "+sessions[i].model, k, refs[i], e.P, ws, e.State, wlw, e.LogW)
			}
		}
	})
}
