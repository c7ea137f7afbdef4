package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"esthera/internal/rng"
)

// TestCheckpointDeterminism is the checkpoint/restore acceptance test:
// run a session, snapshot it mid-run, keep stepping the original while
// feeding the same observations to a restore into a *fresh* server, and
// require the two estimate series to be bit-identical. The checkpoint
// travels through JSON on the way, so the wire format itself is proven
// bit-exact.
func TestCheckpointDeterminism(t *testing.T) {
	spec := FilterSpec{
		Model:        "ungm",
		SubFilters:   8,
		ParticlesPer: 32,
		Seed:         42,
	}
	const cut = 12   // checkpoint after this many steps
	const total = 40 // compare estimates up to here

	a := newTestServer(t, Config{Workers: 4})
	idA, err := a.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= cut; k++ {
		if _, err := a.Step(idA, nil, obs(0, k)); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := a.Checkpoint(idA)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Step != cut {
		t.Fatalf("checkpoint at step %d, want %d", cp.Step, cut)
	}

	// Roundtrip the checkpoint through its JSON wire format.
	wire, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	var cp2 Checkpoint
	if err := json.Unmarshal(wire, &cp2); err != nil {
		t.Fatal(err)
	}

	// Restore into a fresh server — nothing shared with a but the bytes.
	b := newTestServer(t, Config{Workers: 3})
	idB, err := b.Restore(&cp2)
	if err != nil {
		t.Fatal(err)
	}
	estB, err := b.Estimate(idB)
	if err != nil {
		t.Fatal(err)
	}
	estA, err := a.Estimate(idA)
	if err != nil {
		t.Fatal(err)
	}
	if estB.Step != cut {
		t.Fatalf("restored session reports step %d, want %d", estB.Step, cut)
	}
	if math.Float64bits(estB.LogWeight) != math.Float64bits(estA.LogWeight) {
		t.Fatalf("restored log-weight %x != original %x",
			math.Float64bits(estB.LogWeight), math.Float64bits(estA.LogWeight))
	}
	for d := range estA.State {
		if math.Float64bits(estB.State[d]) != math.Float64bits(estA.State[d]) {
			t.Fatalf("restored estimate dim %d: %v != %v", d, estB.State[d], estA.State[d])
		}
	}

	// Resume both and require bit-identical estimate series.
	for k := cut + 1; k <= total; k++ {
		z := obs(0, k)
		ra, err := a.Step(idA, nil, z)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Step(idB, nil, z)
		if err != nil {
			t.Fatal(err)
		}
		if ra.Step != rb.Step {
			t.Fatalf("step index diverged: %d vs %d", ra.Step, rb.Step)
		}
		if math.Float64bits(ra.LogWeight) != math.Float64bits(rb.LogWeight) {
			t.Fatalf("step %d: log-weights diverged: %v vs %v", k, ra.LogWeight, rb.LogWeight)
		}
		for d := range ra.State {
			if math.Float64bits(ra.State[d]) != math.Float64bits(rb.State[d]) {
				t.Fatalf("step %d dim %d: estimates diverged: %v vs %v", k, d, ra.State[d], rb.State[d])
			}
		}
	}
}

// TestParentCheckpointRestores restores checkpoints that the previous
// release's server wrote (testdata/parent_*.ckpt.json, taken through
// GET /v1/sessions/{id}/checkpoint) through POST /v1/restore. A Philox
// session — 4×8 UNGM, ring exchange of one particle, checkpointed after
// five steps — must resume with exactly the estimate bits that server
// went on to produce (testdata/parent_ring.want.json), so no change to
// the stream or checkpoint code may move a saved word. A checkpoint of
// the retired "mtgp" stream family carries a spec field this server no
// longer has and must be refused with 400.
func TestParentCheckpointRestores(t *testing.T) {
	h := NewHandler(newTestServer(t, Config{Workers: 2}))
	post := func(path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	t.Run("ring", func(t *testing.T) {
		rec := post("/v1/restore", read("parent_ring.ckpt.json"))
		if rec.Code != http.StatusCreated {
			t.Fatalf("restore: %d %s", rec.Code, rec.Body)
		}
		var created struct{ ID string }
		if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
			t.Fatal(err)
		}
		var want []struct {
			Z             []float64 `json:"z"`
			Step          int       `json:"step"`
			StateBits     []uint64  `json:"state_bits"`
			LogWeightBits uint64    `json:"log_weight_bits"`
		}
		if err := json.Unmarshal(read("parent_ring.want.json"), &want); err != nil {
			t.Fatal(err)
		}
		if len(want) != 10 {
			t.Fatalf("want file holds %d steps, want 10", len(want))
		}
		for _, w := range want {
			body, err := json.Marshal(map[string][]float64{"z": w.Z})
			if err != nil {
				t.Fatal(err)
			}
			rec := post("/v1/sessions/"+created.ID+"/step", body)
			if rec.Code != http.StatusOK {
				t.Fatalf("step %d: %d %s", w.Step, rec.Code, rec.Body)
			}
			var got StepReply
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				t.Fatal(err)
			}
			if got.Step != w.Step || got.LogWeightBits != w.LogWeightBits || len(got.State) != len(w.StateBits) {
				t.Fatalf("step %d: got step %d log-weight bits %#x, want step %d bits %#x",
					w.Step, got.Step, got.LogWeightBits, w.Step, w.LogWeightBits)
			}
			for d, bits := range w.StateBits {
				if math.Float64bits(got.State[d]) != bits {
					t.Fatalf("step %d dim %d: state bits %#x, want %#x", w.Step, d, math.Float64bits(got.State[d]), bits)
				}
			}
		}
	})

	t.Run("mtgp", func(t *testing.T) {
		if rec := post("/v1/restore", read("parent_mtgp.ckpt.json")); rec.Code != http.StatusBadRequest {
			t.Fatalf("restore of an mtgp checkpoint: %d %s, want 400", rec.Code, rec.Body)
		}
	})
}

// restorePinned restores a checkpoint through POST /v1/restore and
// steps the new session through a want file's observations, requiring
// every pinned estimate bit for bit. It returns the session's id.
func restorePinned(t *testing.T, h http.Handler, ckpt []byte, wantFile string) string {
	t.Helper()
	post := func(path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}
	rec := post("/v1/restore", ckpt)
	if rec.Code != http.StatusCreated {
		t.Fatalf("restore: %d %s", rec.Code, rec.Body)
	}
	var created struct{ ID string }
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join("testdata", wantFile))
	if err != nil {
		t.Fatal(err)
	}
	var want []struct {
		Z             []float64 `json:"z"`
		Step          int       `json:"step"`
		StateBits     []uint64  `json:"state_bits"`
		LogWeightBits uint64    `json:"log_weight_bits"`
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != 10 {
		t.Fatalf("%s holds %d steps, want 10", wantFile, len(want))
	}
	for _, w := range want {
		body, err := json.Marshal(map[string][]float64{"z": w.Z})
		if err != nil {
			t.Fatal(err)
		}
		rec := post("/v1/sessions/"+created.ID+"/step", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("step %d: %d %s", w.Step, rec.Code, rec.Body)
		}
		var got StepReply
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		if got.Step != w.Step || got.LogWeightBits != w.LogWeightBits || len(got.State) != len(w.StateBits) {
			t.Fatalf("step %d: got step %d log-weight bits %#x, want step %d bits %#x",
				w.Step, got.Step, got.LogWeightBits, w.Step, w.LogWeightBits)
		}
		for d, bits := range w.StateBits {
			if math.Float64bits(got.State[d]) != bits {
				t.Fatalf("step %d dim %d: state bits %#x, want %#x", w.Step, d, math.Float64bits(got.State[d]), bits)
			}
		}
	}
	return created.ID
}

// streamForms counts a checkpoint's buffer states by form: compact
// (the read position, block start and end) or verbatim (the read
// position and the block's words, with the fallback).
func streamForms(t *testing.T, cp *Checkpoint) (compact, verbatim int) {
	t.Helper()
	for i, r := range cp.Rands {
		if len(r.Sub) != 1 {
			t.Fatalf("stream %d: rand state has %d sub-states, want 1", i, len(r.Sub))
		}
		switch b := r.Sub[0]; {
		case len(b.Words) == 1 && len(b.Sub) == 2:
			compact++
		case len(b.Words) > 1 && len(b.Sub) == 1:
			verbatim++
		default:
			t.Fatalf("stream %d: buffer state of %d words and %d sub-states", i, len(b.Words), len(b.Sub))
		}
	}
	return compact, verbatim
}

// TestV2CheckpointRestores restores a version 2 checkpoint this tree
// wrote (testdata/v2_ring.ckpt.json: the session parent_ring.ckpt.json
// holds, 4×8 UNGM with ring exchange of one particle after five steps,
// its streams saved as positions) and requires the next ten estimates
// that session produced (testdata/v2_ring.want.json), so a change to
// the compact stream form cannot move a restored stream.
func TestV2CheckpointRestores(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "v2_ring.ckpt.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cp Checkpoint
	if err := json.Unmarshal(raw, &cp); err != nil {
		t.Fatal(err)
	}
	if compact, verbatim := streamForms(t, &cp); cp.Version != 2 || compact != 4 || verbatim != 0 {
		t.Fatalf("v2_ring is version %d with %d compact and %d verbatim streams, want version 2 and 4 compact", cp.Version, compact, verbatim)
	}
	restorePinned(t, NewHandler(newTestServer(t, Config{Workers: 2})), raw, "v2_ring.want.json")
}

// TestParentCheckpointChain restores the version 1 parent_ring
// checkpoint, checkpoints the restored session before any step — its
// blocks are still the verbatim words the parent wrote, so they are
// written back in that form — restores that checkpoint, and requires
// the ten estimates the parent's session went on to produce.
func TestParentCheckpointChain(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 2})
	raw, err := os.ReadFile(filepath.Join("testdata", "parent_ring.ckpt.json"))
	if err != nil {
		t.Fatal(err)
	}
	var parent Checkpoint
	if err := json.Unmarshal(raw, &parent); err != nil {
		t.Fatal(err)
	}
	id, err := srv.Restore(&parent)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := srv.Checkpoint(id)
	if err != nil {
		t.Fatal(err)
	}
	if compact, verbatim := streamForms(t, cp); cp.Version != CheckpointVersion || compact != 0 || verbatim != 4 {
		t.Fatalf("checkpoint of a restored v1 session is version %d with %d compact and %d verbatim streams, want version %d and 4 verbatim",
			cp.Version, compact, verbatim, CheckpointVersion)
	}
	blob, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(srv)
	restorePinned(t, h, blob, "parent_ring.want.json")
	// Once stepped, the restored session's blocks are its own, and its
	// checkpoint carries positions only.
	if _, err := srv.Step(id, nil, obs(0, 6)); err != nil {
		t.Fatal(err)
	}
	stepped, err := srv.Checkpoint(id)
	if err != nil {
		t.Fatal(err)
	}
	if compact, _ := streamForms(t, stepped); compact != 4 {
		t.Fatalf("a stepped session's checkpoint has %d compact streams, want 4", compact)
	}
}

// malformedStreams returns copies of a version 2 checkpoint whose
// second stream's buffer state no buffer saves, by what is wrong with
// it.
func malformedStreams(t testing.TB, good *Checkpoint) map[string]*Checkpoint {
	t.Helper()
	if len(good.Rands) < 2 || len(good.Rands[1].Sub) != 1 || len(good.Rands[1].Sub[0].Sub) != 2 {
		t.Fatal("checkpoint's second stream is not a compact buffer state")
	}
	out := map[string]*Checkpoint{}
	edit := func(name string, f func(b *rng.State)) {
		cp := *good
		cp.Rands = append([]rng.State(nil), good.Rands...)
		cp.Rands[1] = good.Rands[1].Clone()
		f(&cp.Rands[1].Sub[0])
		out[name] = &cp
	}
	// startAt is the block's start skipped by n words.
	startAt := func(b *rng.State, n int) rng.State {
		var p rng.Philox4x32
		if err := p.RestoreState(b.Sub[0]); err != nil {
			t.Fatal(err)
		}
		p.Skip(n)
		return p.SaveState()
	}
	edit("no position", func(b *rng.State) { b.Words = nil })
	edit("position out of range", func(b *rng.State) { b.Words[0] = 1 << 31 })
	edit("an end of the wrong kind", func(b *rng.State) { b.Sub[1].Kind = "buffer" })
	edit("no end", func(b *rng.State) { b.Sub = b.Sub[:1] })
	edit("start and end keys that differ", func(b *rng.State) { b.Sub[1].Words[1] ^= 1 })
	edit("an end short of start + size", func(b *rng.State) { b.Sub[1] = startAt(b, 2) })
	edit("an end past the block with words unread", func(b *rng.State) {
		b.Words[0] = 0
		b.Sub[1] = startAt(b, 1<<20)
	})
	return out
}

func TestRestoreRejectsBadCheckpoints(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	id, err := s.Create(FilterSpec{Model: "ungm", SubFilters: 4, ParticlesPer: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(id, nil, obs(0, 1)); err != nil {
		t.Fatal(err)
	}
	good, err := s.Checkpoint(id)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := s.Restore(nil); err == nil {
		t.Error("nil checkpoint accepted")
	}
	bad := *good
	bad.Version = 99
	if _, err := s.Restore(&bad); err == nil {
		t.Error("wrong version accepted")
	}
	bad = *good
	bad.Spec.Model = "no-such-model"
	if _, err := s.Restore(&bad); err == nil {
		t.Error("unknown model accepted")
	}
	bad = *good
	bad.SubFilters = 8 // shape no longer matches the spec
	if _, err := s.Restore(&bad); err == nil {
		t.Error("shape mismatch accepted")
	}
	bad = *good
	bad.Particles = bad.Particles[:len(bad.Particles)-8]
	if _, err := s.Restore(&bad); err == nil {
		t.Error("truncated particle array accepted")
	}
	bad = *good
	bad.Rands = bad.Rands[:len(bad.Rands)-1]
	if _, err := s.Restore(&bad); err == nil {
		t.Error("missing random-stream state accepted")
	}

	for name, cp := range malformedStreams(t, good) {
		if _, err := s.Restore(cp); err == nil {
			t.Errorf("stream state with %s accepted", name)
		}
	}
	if ids := s.Sessions(); len(ids) != 1 {
		t.Errorf("sessions %v after the rejects, want only %s", ids, id)
	}

	// The good checkpoint still restores after all the rejects.
	if _, err := s.Restore(good); err != nil {
		t.Fatalf("good checkpoint rejected after bad attempts: %v", err)
	}
}

// TestRestoreContinuesHealthRound checks that a restored session keeps
// counting rounds where the checkpoint left off: its health samples are
// stamped with the step index, and the HealthStride phase carries on
// rather than restarting at the restore.
func TestRestoreContinuesHealthRound(t *testing.T) {
	const stride, cut = 3, 5
	spec := FilterSpec{Model: "ungm", SubFilters: 4, ParticlesPer: 16, Seed: 9}
	a := newTestServer(t, Config{Workers: 2, HealthStride: stride})
	idA, err := a.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= cut; k++ {
		if _, err := a.Step(idA, nil, obs(0, k)); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := a.Checkpoint(idA)
	if err != nil {
		t.Fatal(err)
	}
	b := newTestServer(t, Config{Workers: 2, HealthStride: stride})
	idB, err := b.Restore(cp)
	if err != nil {
		t.Fatal(err)
	}
	for k := cut + 1; k <= cut+3*stride; k++ {
		res, err := b.Step(idB, nil, obs(0, k))
		if err != nil {
			t.Fatal(err)
		}
		if res.Step != k {
			t.Fatalf("restored session reports step %d, want %d", res.Step, k)
		}
		var round int64
		for _, sess := range b.Stats().Sessions {
			if sess.ID == idB && sess.Health != nil {
				round = sess.Health.Round
			}
		}
		if want := int64(k - k%stride); round != want {
			t.Fatalf("after step %d: health sampled at round %d, want %d", k, round, want)
		}
	}
}
