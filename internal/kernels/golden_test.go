package kernels

import (
	"bufio"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"esthera/internal/device"
	"esthera/internal/exchange"
	"esthera/internal/model"
	"esthera/internal/model/arm"
)

// -update-golden regenerates testdata/golden_fused.txt from the current
// tree. Only run it on a tree whose output is known-good: the recorded
// hashes are the bit-exact contract every layout or RNG refactor must
// preserve.
var updateGolden = flag.Bool("update-golden", false, "rewrite the pinned fused-round trace hashes")

const goldenFile = "testdata/golden_fused.txt"

// goldenModel builds a fresh instance of one of the pinned models. Every
// model that ships a vectorized (VecModel) implementation must be listed
// here so the SoA/vector path stays trace-locked against these pins.
func goldenModel(t *testing.T, name string) model.Model {
	t.Helper()
	switch name {
	case "ungm":
		return model.NewUNGM()
	case "bearings":
		return model.NewBearings()
	case "arm":
		m, _, err := arm.NewScenario(arm.Config{}, arm.DefaultLemniscate())
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	t.Fatalf("unknown golden model %q", name)
	return nil
}

// goldenTraceHash runs 10 fused rounds with a deterministic synthetic
// measurement sequence and folds every observable filter output — the
// per-step estimate, best log-weight, best sub-filter, and the full
// log-weight and particle buffers — into one FNV-1a 64 hash. Any
// draw-order, accumulation-order, or layout drift changes the hash.
func goldenTraceHash(t *testing.T, modelName string, algo Algo, mean bool, seed uint64) uint64 {
	t.Helper()
	mdl := goldenModel(t, modelName)
	dev := device.New(device.Config{Workers: 4, LocalMemBytes: -1})
	top, err := exchange.NewTopology(exchange.Ring, 8)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(dev, mdl, Config{
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
	h := fnv.New64a()
	put := func(vs ...float64) { hashFloats(h, vs) }
	u := make([]float64, mdl.ControlDim())
	z := make([]float64, mdl.MeasurementDim())
	for k := 1; k <= 10; k++ {
		for j := range u {
			u[j] = 0.05 * float64(k+j)
		}
		for j := range z {
			z[j] = 0.3*float64(k) - 0.1*float64(j) - 1
		}
		state, lw := p.RoundFused(u, z, k)
		put(state...)
		put(lw)
		sub, _ := p.Best()
		put(float64(sub))
		put(p.LogWeights()...)
		put(p.Particles()...)
	}
	return h.Sum64()
}

// hashFloats folds the IEEE-754 bits of vs into h, little-endian.
func hashFloats(h hash.Hash, vs []float64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}

// batchedTraceHash runs 10 rounds of one Batcher over three UNGM 16×64
// ring t=1 sessions (the serve-busy shape) and one bearings 8×16
// session, whose group size forces a second partition, and folds every
// session's estimate, log-weight buffer and particles, in batch order,
// into one FNV-1a 64 hash.
func batchedTraceHash(t *testing.T, algo Algo, seed uint64) uint64 {
	t.Helper()
	dev := device.New(device.Config{Workers: 4, LocalMemBytes: -1})
	shapes := []struct {
		model string
		n, m  int
	}{{"ungm", 16, 64}, {"bearings", 8, 16}, {"ungm", 16, 64}, {"ungm", 16, 64}}
	batch := make([]*BatchRound, len(shapes))
	for i, sh := range shapes {
		mdl := goldenModel(t, sh.model)
		top, err := exchange.NewTopology(exchange.Ring, sh.n)
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(dev, mdl, Config{
			SubFilters:    sh.n,
			ParticlesPer:  sh.m,
			ExchangeCount: 1,
			Topology:      top,
			Resampler:     algo,
		}, 100*seed+uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		batch[i] = &BatchRound{P: p, U: make([]float64, mdl.ControlDim()), Z: make([]float64, mdl.MeasurementDim())}
	}
	b := NewBatcher(dev)
	h := fnv.New64a()
	for k := 1; k <= 10; k++ {
		for i, e := range batch {
			for j := range e.Z {
				e.Z[j] = 0.3*float64(k) - 0.1*float64(j) - 1 + 0.25*float64(i)
			}
			e.K = k
		}
		if err := b.Round(batch); err != nil {
			t.Fatal(err)
		}
		for _, e := range batch {
			hashFloats(h, e.State)
			hashFloats(h, []float64{e.LogW})
			hashFloats(h, e.P.LogWeights())
			hashFloats(h, e.P.Particles())
		}
	}
	return h.Sum64()
}

// goldenKeys lists the pinned traces: per model, solo fused rounds with
// RWS and Vose under the max-weight estimate and RWS under the weighted
// mean; then the batched family ("batch/..."), RWS and Vose.
func goldenKeys() []string {
	var keys []string
	for _, m := range []string{"ungm", "bearings", "arm"} {
		for _, variant := range []string{"rws", "vose", "rws+mean"} {
			for _, seed := range []uint64{1, 2, 3} {
				keys = append(keys, fmt.Sprintf("%s/%s/seed=%d", m, variant, seed))
			}
		}
	}
	for _, variant := range []string{"rws", "vose"} {
		for _, seed := range []uint64{1, 2, 3} {
			keys = append(keys, fmt.Sprintf("batch/%s/seed=%d", variant, seed))
		}
	}
	return keys
}

// goldenHash computes the trace hash a key pins.
func goldenHash(t *testing.T, key string) uint64 {
	t.Helper()
	m, algo, mean, seed := parseGoldenKey(t, key)
	if m == "batch" {
		return batchedTraceHash(t, algo, seed)
	}
	return goldenTraceHash(t, m, algo, mean, seed)
}

func parseGoldenKey(t *testing.T, key string) (modelName string, algo Algo, mean bool, seed uint64) {
	t.Helper()
	parts := strings.Split(key, "/")
	if len(parts) != 3 {
		t.Fatalf("malformed golden key %q", key)
	}
	algoName := parts[1]
	if v, ok := strings.CutSuffix(algoName, "+mean"); ok {
		algoName, mean = v, true
	}
	algo, err := AlgoByName(algoName)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Sscanf(parts[2], "seed=%d", &seed); err != nil {
		t.Fatalf("malformed golden key %q: %v", key, err)
	}
	return parts[0], algo, mean, seed
}

func readGoldenPins(t *testing.T) map[string]uint64 {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatalf("no golden pins recorded (run with -update-golden on a known-good tree): %v", err)
	}
	defer f.Close()
	pins := map[string]uint64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var key string
		var hash uint64
		if _, err := fmt.Sscanf(line, "%s %x", &key, &hash); err != nil {
			t.Fatalf("malformed golden pin line %q: %v", line, err)
		}
		pins[key] = hash
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return pins
}

// TestFusedGoldenPins locks the fused round's output for every model
// with a vectorized implementation (arm, UNGM, bearings) to hashes
// recorded before the SoA refactor. Unlike TestFusedRoundBitIdentical —
// which only compares the fused round against the unfused one and would
// accept a change that shifted both — these pins are absolute: the
// refactored pipeline must reproduce the pre-refactor byte stream
// exactly, seed for seed, for both RWS and Vose resampling. The batch
// family pins the Batcher's merged launches the same way, so an edit to
// a group body that the solo and batched paths share cannot hide behind
// a differential test.
func TestFusedGoldenPins(t *testing.T) {
	keys := goldenKeys()
	if *updateGolden {
		var sb strings.Builder
		sb.WriteString("# Pinned FNV-1a 64 hashes of 10 fused rounds (estimate, best\n")
		sb.WriteString("# log-weight, best sub-filter, log-weights, particles per step).\n")
		sb.WriteString("# Regenerate only from a known-good tree: go test -run TestFusedGoldenPins -update-golden ./internal/kernels\n")
		for _, key := range keys {
			if key == "batch/rws/seed=1" {
				sb.WriteString("# batch/*: 10 Batcher rounds of three UNGM 16x64 sessions and one bearings 8x16 session.\n")
			}
			fmt.Fprintf(&sb, "%s %016x\n", key, goldenHash(t, key))
		}
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d pins", goldenFile, len(keys))
		return
	}
	pins := readGoldenPins(t)
	var missing []string
	for _, key := range keys {
		if _, ok := pins[key]; !ok {
			missing = append(missing, key)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		t.Fatalf("golden pins missing for %v (run -update-golden on a known-good tree)", missing)
	}
	for _, key := range keys {
		key := key
		t.Run(key, func(t *testing.T) {
			got := goldenHash(t, key)
			if got != pins[key] {
				t.Fatalf("fused-round trace drifted: hash %016x, pinned %016x — the round is no longer bit-identical to the pre-refactor pipeline", got, pins[key])
			}
		})
	}
}
