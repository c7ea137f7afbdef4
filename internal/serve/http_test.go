package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"esthera/internal/telemetry"
)

func newHTTPServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(NewHandler(s))
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body, out any) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

func createSession(t *testing.T, base string, sp FilterSpec) string {
	t.Helper()
	var created struct {
		ID string `json:"id"`
	}
	if code := postJSON(t, base+"/v1/sessions", map[string]any{"spec": sp}, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if created.ID == "" {
		t.Fatal("create: empty id")
	}
	return created.ID
}

// TestHTTPConcurrentSessions is the serving demo as a test: ≥8 sessions
// created and stepped concurrently over HTTP, each required to match its
// own single-filter reference bit-for-bit, then the introspection
// endpoint checked for latency histograms and the kernel breakdown.
func TestHTTPConcurrentSessions(t *testing.T) {
	_, ts := newHTTPServer(t, Config{Workers: 4})
	const sessions = 8
	const steps = 15

	ids := make([]string, sessions)
	for i := range ids {
		ids[i] = createSession(t, ts.URL, FilterSpec{
			Model: "ungm", SubFilters: 8, ParticlesPer: 32, Seed: uint64(100 + i),
		})
	}

	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ref := refFilter(t, FilterSpec{Model: "ungm", SubFilters: 8, ParticlesPer: 32, Seed: uint64(100 + i)})
			for k := 1; k <= steps; k++ {
				z := obs(i, k)
				var reply StepReply
				for {
					buf, _ := json.Marshal(map[string]any{"z": z})
					resp, err := http.Post(ts.URL+"/v1/sessions/"+ids[i]+"/step", "application/json", bytes.NewReader(buf))
					if err != nil {
						errs <- err
						return
					}
					if resp.StatusCode == http.StatusTooManyRequests {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						time.Sleep(2 * time.Millisecond)
						continue
					}
					if resp.StatusCode != http.StatusOK {
						body, _ := io.ReadAll(resp.Body)
						resp.Body.Close()
						errs <- fmt.Errorf("session %d step %d: status %d: %s", i, k, resp.StatusCode, body)
						return
					}
					err = json.NewDecoder(resp.Body).Decode(&reply)
					resp.Body.Close()
					if err != nil {
						errs <- err
						return
					}
					break
				}
				want := ref.Step(nil, z)
				if reply.Step != k {
					errs <- fmt.Errorf("session %d: step index %d, want %d", i, reply.Step, k)
					return
				}
				if len(reply.State) != 1 || math.Float64bits(reply.State[0]) != math.Float64bits(want.State[0]) {
					errs <- fmt.Errorf("session %d step %d: state %v != reference %v", i, k, reply.State, want.State)
					return
				}
				if reply.LogWeightBits != math.Float64bits(want.LogWeight) {
					errs <- fmt.Errorf("session %d step %d: log-weight bits %x != reference %x",
						i, k, reply.LogWeightBits, math.Float64bits(want.LogWeight))
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Introspection: /metrics must report every session with its latency
	// histogram, the batching counters, and the device kernel breakdown.
	body, ctype := scrape(t, ts.URL+"/metrics", "")
	if ctype != telemetry.PrometheusContentType {
		t.Fatalf("/metrics content type %q", ctype)
	}
	if err := telemetry.LintPrometheus(strings.NewReader(body)); err != nil {
		t.Fatalf("/metrics lint: %v", err)
	}
	if v, _ := promValue(body, "esthera_serve_sessions"); v != sessions {
		t.Fatalf("/metrics reports %v sessions, want %d", v, sessions)
	}
	for _, id := range ids {
		label := fmt.Sprintf("{session=%q}", id)
		n, _ := promValue(body, "esthera_session_steps_total"+label)
		count, _ := promValue(body, "esthera_step_latency_seconds_count"+label)
		inf, _ := promValue(body, fmt.Sprintf(`esthera_step_latency_seconds_bucket{session=%q,le="+Inf"}`, id))
		if n != steps || count != steps || inf != steps {
			t.Fatalf("session %s: steps=%v latency count=%v +Inf bucket=%v, want %d", id, n, count, inf, steps)
		}
		if sum, _ := promValue(body, "esthera_step_latency_seconds_sum"+label); sum <= 0 {
			t.Fatalf("session %s: latency sum %v, want > 0", id, sum)
		}
	}
	if v, _ := promValue(body, "esthera_serve_batched_steps_total"); v != sessions*steps {
		t.Fatalf("batched steps %v, want %d", v, sessions*steps)
	}
	if v, _ := promValue(body, "esthera_kernel_launches_total"); v <= 0 {
		t.Fatalf("device kernel launches %v, want > 0", v)
	}
	if _, ok := promValue(body, `esthera_kernel_runs_total{kernel="resampling"}`); !ok {
		t.Fatal("/metrics missing the per-kernel breakdown")
	}
}

func TestHTTPLifecycleAndErrors(t *testing.T) {
	_, ts := newHTTPServer(t, Config{Workers: 2})

	// Unknown model → 400.
	if code := postJSON(t, ts.URL+"/v1/sessions", map[string]any{"spec": FilterSpec{Model: "nope"}}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad spec: status %d, want 400", code)
	}
	// Malformed body → 400.
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", resp.StatusCode)
	}
	// A spec field this server does not implement (the retired adaptive
	// allocator's adapt_every) → 400, not silently dropped.
	retired := map[string]any{"spec": map[string]any{"model": "ungm", "adapt_every": 4}}
	if code := postJSON(t, ts.URL+"/v1/sessions", retired, nil); code != http.StatusBadRequest {
		t.Fatalf("spec with adapt_every: status %d, want 400", code)
	}

	id := createSession(t, ts.URL, FilterSpec{Model: "ungm", SubFilters: 4, ParticlesPer: 16, Seed: 2})

	// Listing includes it.
	var listing struct {
		Sessions []string `json:"sessions"`
	}
	if code := getJSON(t, ts.URL+"/v1/sessions", &listing); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	if len(listing.Sessions) != 1 || listing.Sessions[0] != id {
		t.Fatalf("list: %v", listing.Sessions)
	}

	// Estimate before any step: -Inf log-weight omitted, bits exact.
	var est StepReply
	if code := getJSON(t, ts.URL+"/v1/sessions/"+id, &est); code != http.StatusOK {
		t.Fatalf("estimate: status %d", code)
	}
	if est.LogWeight != nil {
		t.Fatalf("pre-step estimate has finite log-weight %v", *est.LogWeight)
	}
	if est.LogWeightBits != math.Float64bits(math.Inf(-1)) {
		t.Fatalf("pre-step log-weight bits %x, want -Inf", est.LogWeightBits)
	}

	// Step with a wrong-dimension measurement → 400.
	if code := postJSON(t, ts.URL+"/v1/sessions/"+id+"/step", map[string]any{"z": []float64{1, 2, 3}}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad measurement: status %d, want 400", code)
	}
	// Good step → 200 with finite estimate.
	var stepped StepReply
	if code := postJSON(t, ts.URL+"/v1/sessions/"+id+"/step", map[string]any{"z": []float64{0.5}}, &stepped); code != http.StatusOK {
		t.Fatalf("step: status %d", code)
	}
	if stepped.Step != 1 || len(stepped.State) != 1 || stepped.LogWeight == nil {
		t.Fatalf("step reply: %+v", stepped)
	}

	// Delete → 204, then everything on it → 404.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+id, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d, want 204", resp.StatusCode)
	}
	if code := getJSON(t, ts.URL+"/v1/sessions/"+id, nil); code != http.StatusNotFound {
		t.Fatalf("estimate after delete: status %d, want 404", code)
	}
	if code := postJSON(t, ts.URL+"/v1/sessions/"+id+"/step", map[string]any{"z": []float64{0}}, nil); code != http.StatusNotFound {
		t.Fatalf("step after delete: status %d, want 404", code)
	}
}

// TestHTTPStepUnderflowingMeasurement steps sessions whose sub-filter
// count (12) or size (24) is not a power of two with a finite
// measurement every UNGM likelihood underflows on. The step answers 200
// with the −Inf log-weight omitted and its bits in log_weight_bits, and
// the session steps on normally.
func TestHTTPStepUnderflowingMeasurement(t *testing.T) {
	_, ts := newHTTPServer(t, Config{Workers: 2})
	for _, sp := range []FilterSpec{
		{Model: "ungm", SubFilters: 12, Seed: 3},
		{Model: "ungm", ParticlesPer: 24, Seed: 4},
	} {
		sp = sp.withDefaults()
		url := ts.URL + "/v1/sessions/" + createSession(t, ts.URL, sp) + "/step"
		var poisoned StepReply
		if code := postJSON(t, url, map[string]any{"z": []float64{1e200}}, &poisoned); code != http.StatusOK {
			t.Fatalf("%d×%d: underflowing step: status %d, want 200", sp.SubFilters, sp.ParticlesPer, code)
		}
		if poisoned.LogWeight != nil || poisoned.LogWeightBits != math.Float64bits(math.Inf(-1)) {
			t.Fatalf("%d×%d: underflowing step reply %+v, want log-weight -Inf", sp.SubFilters, sp.ParticlesPer, poisoned)
		}
		var next StepReply
		if code := postJSON(t, url, map[string]any{"z": []float64{0.5}}, &next); code != http.StatusOK || next.LogWeight == nil {
			t.Fatalf("%d×%d: step after it: status %d, reply %+v", sp.SubFilters, sp.ParticlesPer, code, next)
		}
	}
}

// TestHTTPCheckpointRestore drives the checkpoint roundtrip through the
// HTTP endpoints: GET the checkpoint from one server, POST it to a
// second, and require the resumed estimate series to match bit-for-bit.
func TestHTTPCheckpointRestore(t *testing.T) {
	_, tsA := newHTTPServer(t, Config{Workers: 2})
	_, tsB := newHTTPServer(t, Config{Workers: 4})

	id := createSession(t, tsA.URL, FilterSpec{Model: "ungm", SubFilters: 8, ParticlesPer: 32, Seed: 11})
	for k := 1; k <= 10; k++ {
		if code := postJSON(t, tsA.URL+"/v1/sessions/"+id+"/step", map[string]any{"z": obs(0, k)}, nil); code != http.StatusOK {
			t.Fatalf("step %d: status %d", k, code)
		}
	}

	var cp Checkpoint
	if code := getJSON(t, tsA.URL+"/v1/sessions/"+id+"/checkpoint", &cp); code != http.StatusOK {
		t.Fatalf("checkpoint: status %d", code)
	}
	var restored struct {
		ID string `json:"id"`
	}
	if code := postJSON(t, tsB.URL+"/v1/restore", cp, &restored); code != http.StatusCreated {
		t.Fatalf("restore: status %d", code)
	}

	for k := 11; k <= 25; k++ {
		z := obs(0, k)
		var ra, rb StepReply
		if code := postJSON(t, tsA.URL+"/v1/sessions/"+id+"/step", map[string]any{"z": z}, &ra); code != http.StatusOK {
			t.Fatalf("server A step %d: status %d", k, code)
		}
		if code := postJSON(t, tsB.URL+"/v1/sessions/"+restored.ID+"/step", map[string]any{"z": z}, &rb); code != http.StatusOK {
			t.Fatalf("server B step %d: status %d", k, code)
		}
		if ra.Step != rb.Step || ra.LogWeightBits != rb.LogWeightBits ||
			math.Float64bits(ra.State[0]) != math.Float64bits(rb.State[0]) {
			t.Fatalf("step %d diverged after restore: %+v vs %+v", k, ra, rb)
		}
	}

	// A spec naming an unknown resampler → 400, retired names included.
	unknown := cp
	unknown.Spec.Resampler = "metropolis"
	if code := postJSON(t, tsB.URL+"/v1/restore", unknown, nil); code != http.StatusBadRequest {
		t.Fatalf("restore naming resampler %q: status %d, want 400", unknown.Spec.Resampler, code)
	}

	// A checkpoint carrying a field this server does not implement → 400:
	// an adaptive session's window partition, or its adapt_every spec,
	// would otherwise restore as a fixed-window session and diverge.
	windows := make([]int, cp.SubFilters)
	for i := range windows {
		windows[i] = cp.ParticlesPer
	}
	windows[0], windows[1] = cp.ParticlesPer-1, cp.ParticlesPer+1
	for _, row := range []struct {
		name string
		add  func(body map[string]any)
	}{
		{"windows", func(body map[string]any) { body["windows"] = windows }},
		{"spec.adapt_every", func(body map[string]any) { body["spec"].(map[string]any)["adapt_every"] = 3 }},
	} {
		wire, err := json.Marshal(cp)
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]any
		if err := json.Unmarshal(wire, &body); err != nil {
			t.Fatal(err)
		}
		row.add(body)
		if code := postJSON(t, tsB.URL+"/v1/restore", body, nil); code != http.StatusBadRequest {
			t.Fatalf("restore with %s: status %d, want 400", row.name, code)
		}
	}

	// Restoring garbage → 400.
	cp.Particles = "!!!not base64!!!"
	if code := postJSON(t, tsB.URL+"/v1/restore", cp, nil); code != http.StatusBadRequest {
		t.Fatalf("corrupt restore: status %d, want 400", code)
	}
}

// TestHTTPSaturation verifies the backpressure contract on the wire:
// 429 plus Retry-After headers when the admission queue is full.
func TestHTTPSaturation(t *testing.T) {
	_, ts := newHTTPServer(t, Config{
		Workers:    2,
		QueueDepth: 1,
		MaxBatch:   1,
		RetryAfter: 3 * time.Millisecond,
	})
	const sessions = 10
	ids := make([]string, sessions)
	for i := range ids {
		ids[i] = createSession(t, ts.URL, FilterSpec{
			Model: "slow-ungm", SubFilters: 4, ParticlesPer: 32, Seed: uint64(i + 1),
		})
	}

	var mu sync.Mutex
	var saw429 int
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 1; k <= 4; k++ {
				for {
					buf, _ := json.Marshal(map[string]any{"z": obs(i, k)})
					resp, err := http.Post(ts.URL+"/v1/sessions/"+ids[i]+"/step", "application/json", bytes.NewReader(buf))
					if err != nil {
						t.Error(err)
						return
					}
					code := resp.StatusCode
					retryAfter := resp.Header.Get("Retry-After")
					retryMs := resp.Header.Get("Retry-After-Ms")
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if code == http.StatusOK {
						break
					}
					if code != http.StatusTooManyRequests {
						t.Errorf("session %d: status %d", i, code)
						return
					}
					if retryAfter == "" || retryMs == "" {
						t.Errorf("429 without Retry-After headers (%q, %q)", retryAfter, retryMs)
						return
					}
					mu.Lock()
					saw429++
					mu.Unlock()
					time.Sleep(3 * time.Millisecond)
				}
			}
		}(i)
	}
	wg.Wait()
	if saw429 == 0 {
		t.Fatal("depth-1 queue under 10 concurrent slow sessions never returned 429")
	}
	body, _ := scrape(t, ts.URL+"/metrics", "")
	if rejected, _ := promValue(body, "esthera_serve_rejected_total"); rejected < float64(saw429) {
		t.Fatalf("metrics count %v rejects, clients saw %d", rejected, saw429)
	}
	t.Logf("%d requests shed with 429", saw429)
}

// probe fetches url and returns the status code plus the decoded
// {"status": ...} body regardless of code (getJSON only decodes 2xx).
func probe(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp.StatusCode, body.Status
}

// TestHTTPHealthEndpoints walks /healthz and /readyz through the
// lifecycle: ready while serving, unready-draining after Drain,
// unready-closed after Shutdown, liveness green throughout.
func TestHTTPHealthEndpoints(t *testing.T) {
	s := NewServer(Config{Workers: 2}, testModels())
	ts := httptest.NewServer(NewHandler(s))
	t.Cleanup(ts.Close)
	t.Cleanup(s.Shutdown)

	if code, status := probe(t, ts.URL+"/healthz"); code != http.StatusOK || status != "ok" {
		t.Fatalf("/healthz: %d %q", code, status)
	}
	if code, status := probe(t, ts.URL+"/readyz"); code != http.StatusOK || status != "ready" {
		t.Fatalf("/readyz: %d %q", code, status)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if code, status := probe(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable || status != "draining" {
		t.Fatalf("/readyz while draining: %d %q", code, status)
	}
	// A draining server rejects new steps with 503 so load balancers and
	// the retry client route around it.
	id := "s-1" // no sessions exist; the draining check runs first for any id
	if code := postJSON(t, ts.URL+"/v1/sessions/"+id+"/step", map[string]any{"z": []float64{0}}, nil); code != http.StatusNotFound {
		// Unknown session wins over draining (lookup runs first): accept 404.
		t.Fatalf("step on draining server: status %d", code)
	}

	s.Shutdown()
	if code, status := probe(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable || status != "closed" {
		t.Fatalf("/readyz after shutdown: %d %q", code, status)
	}
	if code, status := probe(t, ts.URL+"/healthz"); code != http.StatusOK || status != "ok" {
		t.Fatalf("/healthz after shutdown: %d %q", code, status)
	}
}

// TestHTTPDrainingStepRejected covers the admission path: a live
// session's step during drain maps ErrDraining to 503 with headers the
// retry client understands.
func TestHTTPDrainingStepRejected(t *testing.T) {
	s, ts := newHTTPServer(t, Config{Workers: 2})
	id := createSession(t, ts.URL, FilterSpec{Model: "ungm", SubFilters: 4, ParticlesPer: 16, Seed: 9})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if code := postJSON(t, ts.URL+"/v1/sessions/"+id+"/step", map[string]any{"z": []float64{0}}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("step while draining: status %d, want 503", code)
	}
}

// TestHTTPErrorMapping unit-tests WriteError's status mapping, including
// the sub-millisecond Retry-After-Ms clamp and the retry hint on every
// 503.
func TestHTTPErrorMapping(t *testing.T) {
	// No batch has run, so the server's retry hint is its configured
	// constant.
	s := newTestServer(t, Config{Workers: 1, RetryAfter: 40 * time.Millisecond})
	check := func(err error, wantCode int) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		WriteError(rec, s, err)
		if rec.Code != wantCode {
			t.Fatalf("%v → status %d, want %d", err, rec.Code, wantCode)
		}
		return rec
	}

	// Sub-millisecond hint: both headers clamp to 1 so clients never see
	// a zero ("retry immediately") hint.
	rec := check(&SaturatedError{RetryAfter: 200 * time.Microsecond}, http.StatusTooManyRequests)
	if ra, ms := rec.Header().Get("Retry-After"), rec.Header().Get("Retry-After-Ms"); ra != "1" || ms != "1" {
		t.Fatalf("sub-ms hint headers: Retry-After=%q Retry-After-Ms=%q, want 1/1", ra, ms)
	}
	rec = check(&SaturatedError{RetryAfter: 1500 * time.Millisecond}, http.StatusTooManyRequests)
	if ra, ms := rec.Header().Get("Retry-After"), rec.Header().Get("Retry-After-Ms"); ra != "1" || ms != "1500" {
		t.Fatalf("1.5s hint headers: Retry-After=%q Retry-After-Ms=%q, want 1/1500", ra, ms)
	}

	check(fmt.Errorf("step: %w", context.Canceled), StatusClientClosedRequest)
	check(fmt.Errorf("step: %w", context.DeadlineExceeded), http.StatusGatewayTimeout)
	for _, err := range []error{ErrDraining, ErrClosed, ErrTooManySessions} {
		rec := check(err, http.StatusServiceUnavailable)
		if ra, ms := rec.Header().Get("Retry-After"), rec.Header().Get("Retry-After-Ms"); ra != "1" || ms != "40" {
			t.Fatalf("%v: Retry-After=%q Retry-After-Ms=%q, want 1/40", err, ra, ms)
		}
	}
	check(ErrNotFound, http.StatusNotFound)
	check(errors.New("bad spec"), http.StatusBadRequest)
}

// TestHTTPLogz pins serve's /logz wiring: a create through NewHandler
// lands in the log ring as one "session created" line stamped with the
// server's name.
func TestHTTPLogz(t *testing.T) {
	_, ts := newHTTPServer(t, Config{Workers: 1, Name: "replica-a"})
	id := createSession(t, ts.URL, FilterSpec{Model: "ungm", SubFilters: 4, ParticlesPer: 16, Seed: 2})
	resp, err := http.Get(ts.URL + "/logz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "application/x-ndjson" {
		t.Fatalf("GET /logz: %d %q", resp.StatusCode, ct)
	}
	var created []map[string]any
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var line map[string]any
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		if line["msg"] == "session created" {
			created = append(created, line)
		}
	}
	if len(created) != 1 || created[0]["proc"] != "replica-a" || created[0]["session"] != id || created[0]["model"] != "ungm" {
		t.Fatalf("session created lines = %v, want one for %s from replica-a", created, id)
	}
}
