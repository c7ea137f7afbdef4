package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"esthera/internal/model"
	"esthera/internal/serve"
	"esthera/internal/telemetry"
)

func testModels() map[string]serve.ModelFactory {
	return map[string]serve.ModelFactory{
		"ungm": func() (model.Model, error) { return model.NewUNGM(), nil },
	}
}

// replica is one in-process esthera-serve stand-in: a serve.Server, its
// HTTP session API and its agent's control listener. hits counts the
// requests the session API received; calls counts the requests both
// listeners received, by requestKind; webConns and ctlConns count the
// connections each listener accepted.
type replica struct {
	name     string
	srv      *serve.Server
	web      *httptest.Server
	tl       *Listener
	spec     ShardSpec
	hits     atomic.Int64
	webConns atomic.Int64
	ctlConns atomic.Int64

	mu    sync.Mutex
	kinds map[string]int
}

func startReplica(t *testing.T, name string) *replica {
	t.Helper()
	r := &replica{name: name, kinds: make(map[string]int)}
	if err := r.start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.kill)
	return r
}

// start brings the replica up on the given session-API and control
// addresses with a fresh server: no sessions, empty dedup logs.
func (r *replica) start(webAddr, ctlAddr string) error {
	ln, err := net.Listen("tcp", webAddr)
	if err != nil {
		return err
	}
	r.srv = serve.NewServer(serve.Config{Workers: 2}, testModels())
	api := serve.NewHandler(r.srv)
	r.web = httptest.NewUnstartedServer(r.count(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		r.hits.Add(1)
		api.ServeHTTP(w, req)
	})))
	r.web.Listener.Close()
	r.web.Listener = ln
	r.web.Config.ConnState = countNew(&r.webConns)
	r.web.Start()
	r.tl = NewListener(r.name, r.count(NewAgent(r.name, r.srv)))
	r.tl.srv.ConnState = countNew(&r.ctlConns)
	if err := r.tl.ListenAndServe(ctlAddr); err != nil {
		r.kill()
		return err
	}
	r.spec = ShardSpec{Name: r.name, BaseURL: r.web.URL, TransportAddr: r.tl.Addr().String()}
	return nil
}

// countNew returns a ConnState hook that counts accepted connections.
func countNew(n *atomic.Int64) func(net.Conn, http.ConnState) {
	return func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			n.Add(1)
		}
	}
}

// count wraps h to tally each request by kind.
func (r *replica) count(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		r.mu.Lock()
		r.kinds[requestKind(req)]++
		r.mu.Unlock()
		h.ServeHTTP(w, req)
	})
}

// calls reports how many requests of kind the replica has received.
func (r *replica) calls(kind string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.kinds[kind]
}

// requestKind classifies a router→replica request: a session create,
// step, read, delete or checkpoint read, or an agent probe, export or
// restore.
func requestKind(req *http.Request) string {
	switch p := req.URL.Path; {
	case p == pingPath:
		return "probe"
	case p == exportPath:
		return "export"
	case p == restorePath:
		return "restore"
	case p == "/v1/sessions" && req.Method == http.MethodPost:
		return "create"
	case strings.HasSuffix(p, "/step"):
		return "step"
	case strings.HasSuffix(p, "/checkpoint"):
		return "checkpoint"
	default:
		return req.Method + " " + p
	}
}

// kill tears the replica down hard (idempotent): session API refused,
// control endpoints refused, device stopped.
func (r *replica) kill() {
	r.web.CloseClientConnections()
	r.web.Close()
	r.tl.Close()
	r.srv.Shutdown()
}

func newTestRouter(t *testing.T, cfg RouterConfig, reps ...*replica) *Router {
	t.Helper()
	for _, rep := range reps {
		cfg.Shards = append(cfg.Shards, rep.spec)
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = -1 // most tests drive liveness from the step path
	}
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// obs is the deterministic observation stream shared by routed and
// reference runs.
func obs(k int) []float64 {
	return []float64{math.Sin(float64(k)) * 5}
}

func sameResult(t *testing.T, k int, got, want serve.StepResult) {
	t.Helper()
	if got.Step != want.Step {
		t.Fatalf("step %d: counter %d, want %d", k, got.Step, want.Step)
	}
	if math.Float64bits(got.LogWeight) != math.Float64bits(want.LogWeight) {
		t.Fatalf("step %d: log-weight bits %016x, want %016x", k,
			math.Float64bits(got.LogWeight), math.Float64bits(want.LogWeight))
	}
	if len(got.State) != len(want.State) {
		t.Fatalf("step %d: state dim %d, want %d", k, len(got.State), len(want.State))
	}
	for i := range got.State {
		if math.Float64bits(got.State[i]) != math.Float64bits(want.State[i]) {
			t.Fatalf("step %d: state[%d] bits %016x, want %016x", k, i,
				math.Float64bits(got.State[i]), math.Float64bits(want.State[i]))
		}
	}
}

// TestMigrationDeterminism is the tentpole acceptance test: a session
// stepped K times on one replica, live-migrated over HTTP to another,
// and stepped K more must produce an estimate stream bit-identical to
// the same spec stepped 2K times on one uninterrupted server.
func TestMigrationDeterminism(t *testing.T) {
	const K = 8
	a := startReplica(t, "a")
	b := startReplica(t, "b")
	router := newTestRouter(t, RouterConfig{}, a, b)
	ctx := context.Background()

	spec := serve.FilterSpec{Model: "ungm", Seed: 7}
	id, err := router.Create(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	source, err := router.ShardOf(id)
	if err != nil {
		t.Fatal(err)
	}
	target := "a"
	if source == "a" {
		target = "b"
	}

	var routed []serve.StepResult
	for k := 0; k < K; k++ {
		res, err := router.Step(ctx, id, nil, obs(k))
		if err != nil {
			t.Fatalf("pre-migration step %d: %v", k, err)
		}
		routed = append(routed, res)
	}
	if err := router.Migrate(ctx, id, target); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if got, _ := router.ShardOf(id); got != target {
		t.Fatalf("after migration session sits on %q, want %q", got, target)
	}
	for k := K; k < 2*K; k++ {
		res, err := router.Step(ctx, id, nil, obs(k))
		if err != nil {
			t.Fatalf("post-migration step %d: %v", k, err)
		}
		routed = append(routed, res)
	}

	// The source replica must no longer hold a copy (drain-on-export):
	// exactly one live copy exists, on the target.
	srcSrv := a.srv
	tgtSrv := b.srv
	if source == "b" {
		srcSrv, tgtSrv = b.srv, a.srv
	}
	if n := len(srcSrv.Sessions()); n != 0 {
		t.Fatalf("source replica still holds %d sessions after migration", n)
	}
	if n := len(tgtSrv.Sessions()); n != 1 {
		t.Fatalf("target replica holds %d sessions, want 1", n)
	}

	// Reference: one uninterrupted server, same spec, same observations.
	ref := serve.NewServer(serve.Config{Workers: 2}, testModels())
	defer ref.Shutdown()
	rid, err := ref.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2*K; k++ {
		want, err := ref.StepCtx(ctx, rid, nil, obs(k))
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, k, routed[k], want)
	}

	if st := router.Stats(); st.Migrations != 1 {
		t.Fatalf("migrations counter = %d, want 1", st.Migrations)
	}
}

// TestMigrationAtMostOnce covers the duplicate-migration paths: a
// second Migrate while one is in flight is rejected at the router, and
// a replayed transfer, sequential or concurrent, is deduplicated at the
// agent.
func TestMigrationAtMostOnce(t *testing.T) {
	a := startReplica(t, "a")
	b := startReplica(t, "b")
	router := newTestRouter(t, RouterConfig{}, a, b)
	ctx := context.Background()

	id, err := router.Create(ctx, serve.FilterSpec{Model: "ungm", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	// Freeze the route mid-migration (what a concurrent Migrate would
	// observe) and assert both surfaces of the hold.
	router.mu.Lock()
	router.routes[id].migrating = true
	router.mu.Unlock()
	if err := router.Migrate(ctx, id, "b"); !errors.Is(err, ErrMigrationInFlight) {
		t.Fatalf("second migrate: %v, want ErrMigrationInFlight", err)
	}
	if _, err := router.Step(ctx, id, nil, obs(0)); !errors.Is(err, ErrMigrating) {
		t.Fatalf("step during migration: %v, want ErrMigrating", err)
	}
	router.mu.Lock()
	router.routes[id].migrating = false
	router.mu.Unlock()

	// Agent-level dedup: replaying the export and restore halves of one
	// migration id must be idempotent.
	srcName, _ := router.ShardOf(id)
	src := a
	if srcName == "b" {
		src = b
	}
	remoteID := src.srv.Sessions()[0]
	control := func(rep *replica) *serve.Client {
		return serve.NewClient(serve.ClientConfig{BaseURL: "http://" + rep.spec.TransportAddr})
	}

	const mid = "t-x#9"
	export := func() CheckpointMsg {
		var msg CheckpointMsg
		if err := control(src).Post(ctx, exportPath, ExportMsg{MigrationID: mid, SessionID: remoteID}, &msg); err != nil {
			t.Fatalf("export: %v", err)
		}
		return msg
	}
	cp1 := export()
	cp2 := export() // the session is closed now; only the dedup log can answer
	if cp1.Checkpoint == nil || cp2.Checkpoint == nil || cp1.Checkpoint.Particles != cp2.Checkpoint.Particles {
		t.Fatal("replayed export did not return the original checkpoint")
	}

	restore := func() RestoredMsg {
		var msg RestoredMsg
		if err := control(b).Post(ctx, restorePath, RestoreMsg{MigrationID: mid, Checkpoint: cp1.Checkpoint}, &msg); err != nil {
			t.Fatalf("restore: %v", err)
		}
		return msg
	}
	before := len(b.srv.Sessions())
	r1 := restore()
	r2 := restore()
	if r1.SessionID != r2.SessionID {
		t.Fatalf("replayed restore installed a second copy: %q vs %q", r1.SessionID, r2.SessionID)
	}
	if r1.Duplicate || !r2.Duplicate {
		t.Fatalf("duplicate flags %v/%v, want false/true", r1.Duplicate, r2.Duplicate)
	}
	if after := len(b.srv.Sessions()); after != before+1 {
		t.Fatalf("restore replay changed session count %d → %d, want +1", before, after)
	}

	// Concurrent replays of one new migration id: one installs the
	// session, every other reply is that session's id marked duplicate.
	const replays = 8
	replies := make([]RestoredMsg, replays)
	errs := make([]error, replays)
	var wg sync.WaitGroup
	for i := range replies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = control(b).Post(ctx, restorePath, RestoreMsg{MigrationID: mid + "-concurrent", Checkpoint: cp1.Checkpoint}, &replies[i])
		}(i)
	}
	wg.Wait()
	fresh := 0
	for i, r := range replies {
		if errs[i] != nil {
			t.Fatalf("concurrent restore %d: %v", i, errs[i])
		}
		if r.SessionID != replies[0].SessionID {
			t.Fatalf("concurrent restores installed %q and %q", replies[0].SessionID, r.SessionID)
		}
		if !r.Duplicate {
			fresh++
		}
	}
	if fresh != 1 {
		t.Fatalf("%d of %d concurrent restores were not duplicates, want 1", fresh, replays)
	}
	if after := len(b.srv.Sessions()); after != before+2 {
		t.Fatalf("concurrent restores changed session count %d → %d, want +2 in all", before, after)
	}
}

// TestShardDeathMidStep kills a replica out from under its sessions:
// the step surfaces as the retryable ErrShardDown, failover rehomes the
// session onto the survivor, and stepping resumes.
func TestShardDeathMidStep(t *testing.T) {
	a := startReplica(t, "a")
	b := startReplica(t, "b")
	router := newTestRouter(t, RouterConfig{FailAfter: 1}, a, b)
	ctx := context.Background()

	id, err := router.Create(ctx, serve.FilterSpec{Model: "ungm", Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := router.Step(ctx, id, nil, obs(0)); err != nil {
		t.Fatal(err)
	}

	source, _ := router.ShardOf(id)
	victim, survivor := a, b
	if source == "b" {
		victim, survivor = b, a
	}
	victim.kill()

	if _, err := router.Step(ctx, id, nil, obs(1)); !errors.Is(err, ErrShardDown) && !errors.Is(err, ErrMigrating) {
		t.Fatalf("step against dead shard: %v, want ErrShardDown", err)
	}

	// Failover runs in the background; the session must land on the
	// survivor and accept steps again.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if sh, _ := router.ShardOf(id); sh == survivor.name {
			if _, err := router.Step(ctx, id, nil, obs(2)); err == nil {
				break
			}
		}
		if time.Now().After(deadline) {
			sh, _ := router.ShardOf(id)
			t.Fatalf("session never recovered onto %q (still on %q)", survivor.name, sh)
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := router.Stats()
	if st.Failovers < 1 {
		t.Fatalf("failover counter = %d, want ≥ 1", st.Failovers)
	}
	if st.Restored+st.Recreated < 1 {
		t.Fatalf("no session was restored or recreated: %+v", st)
	}
}

// TestRouterHTTPRetryableStates drives the HTTP front-end: a migrating
// session answers 503 with both Retry-After headers (so serve.Client
// retries transparently), a duplicate migration answers 409, and an
// unknown session 404.
func TestRouterHTTPRetryableStates(t *testing.T) {
	a := startReplica(t, "a")
	b := startReplica(t, "b")
	router := newTestRouter(t, RouterConfig{}, a, b)
	front := httptest.NewServer(NewRouterHandler(router))
	defer front.Close()
	ctx := context.Background()

	id, err := router.Create(ctx, serve.FilterSpec{Model: "ungm", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	router.mu.Lock()
	router.routes[id].migrating = true
	router.mu.Unlock()

	resp, err := http.Post(front.URL+"/v1/sessions/"+id+"/step", "application/json", strings.NewReader(`{"z":[0.5]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("step during migration: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" || resp.Header.Get("Retry-After-Ms") == "" {
		t.Fatalf("503 without retry hints: %+v", resp.Header)
	}

	resp, err = http.Post(front.URL+"/v1/sessions/"+id+"/migrate", "application/json", strings.NewReader(`{"target":"b"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate migrate: status %d, want 409", resp.StatusCode)
	}

	router.mu.Lock()
	router.routes[id].migrating = false
	router.mu.Unlock()

	resp, err = http.Get(front.URL + "/v1/sessions/no-such-session")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session: status %d, want 404", resp.StatusCode)
	}

	// With the hold released, a serve.Client steps through the router
	// exactly as it would against a single replica.
	client := serve.NewClient(serve.ClientConfig{BaseURL: front.URL})
	if _, err := client.Step(ctx, id, nil, obs(0)); err != nil {
		t.Fatalf("client step through router: %v", err)
	}
	if err := client.Close(ctx, id); err != nil {
		t.Fatalf("client close through router: %v", err)
	}
	if _, err := router.ShardOf(id); !errors.Is(err, serve.ErrNotFound) {
		t.Fatalf("route survived close: %v", err)
	}
}

// TestRouterHTTPRejectsUnknownSpecFields checks that the router's create
// endpoint decodes as strictly as a replica's: a spec field no replica
// implements (the retired adaptive allocator's adapt_every) is a 400,
// and no session is placed.
func TestRouterHTTPRejectsUnknownSpecFields(t *testing.T) {
	a := startReplica(t, "a")
	router := newTestRouter(t, RouterConfig{}, a)
	front := httptest.NewServer(NewRouterHandler(router))
	defer front.Close()
	resp, err := http.Post(front.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"spec":{"model":"ungm","adapt_every":4}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("create with adapt_every through the router: status %d, want 400", resp.StatusCode)
	}
	if n := len(router.Sessions()); n != 0 {
		t.Fatalf("rejected create left %d sessions", n)
	}
}

// TestRouterRelaysRetryHint puts the router in front of a stub replica
// that refuses everything with a bare 429 or 503: once the forwarding
// client gives up, the relayed status must carry both retry headers.
func TestRouterRelaysRetryHint(t *testing.T) {
	for _, code := range []int{http.StatusTooManyRequests, http.StatusServiceUnavailable} {
		stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			serve.WriteJSON(w, code, map[string]string{"error": "busy"})
		}))
		t.Cleanup(stub.Close)
		router := newTestRouter(t, RouterConfig{Shards: []ShardSpec{{Name: "stub", BaseURL: stub.URL}}})
		front := httptest.NewServer(NewRouterHandler(router))
		t.Cleanup(front.Close)
		resp, err := http.Post(front.URL+"/v1/sessions", "application/json", strings.NewReader(`{"spec":{"model":"ungm"}}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != code {
			t.Fatalf("create through a stub answering %d: status %d", code, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" || resp.Header.Get("Retry-After-Ms") == "" {
			t.Fatalf("relayed %d without retry hints: %+v", code, resp.Header)
		}
	}
}

// TestCreateOnUnreachableShardIs503 closes one shard's session API
// listener: a create that hashes to it cannot reach the replica, so the
// router answers the retryable 503 with both retry headers, and the
// shard takes a strike toward failover.
func TestCreateOnUnreachableShardIs503(t *testing.T) {
	a := startReplica(t, "a")
	b := startReplica(t, "b")
	router := newTestRouter(t, RouterConfig{}, a, b)
	front := httptest.NewServer(NewRouterHandler(router))
	defer front.Close()
	b.web.Close()

	for i := 0; ; i++ {
		if i == 64 {
			t.Fatal("no create hashed to the closed shard in 64 tries")
		}
		resp, err := http.Post(front.URL+"/v1/sessions", "application/json", strings.NewReader(`{"spec":{"model":"ungm"}}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusCreated {
			continue
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("create on the closed shard: status %d, want 503", resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" || resp.Header.Get("Retry-After-Ms") == "" {
			t.Fatalf("503 without retry hints: %+v", resp.Header)
		}
		break
	}
	strikes := map[string]int{}
	for _, sh := range router.Stats().Shards {
		strikes[sh.Name] = sh.Strikes
	}
	if strikes["a"] != 0 || strikes["b"] != 1 {
		t.Fatalf("strikes %v, want a:0 b:1", strikes)
	}
}

// TestRouterRebalance piles sessions onto an imbalanced router and
// checks Rebalance levels them with live migrations.
func TestRouterRebalance(t *testing.T) {
	a := startReplica(t, "a")
	b := startReplica(t, "b")
	router := newTestRouter(t, RouterConfig{RebalanceThreshold: 1}, a, b)
	ctx := context.Background()

	var ids []string
	for i := 0; i < 6; i++ {
		id, err := router.Create(ctx, serve.FilterSpec{Model: "ungm", Seed: uint64(20 + i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Force every session onto shard a to create a maximal imbalance.
	for _, id := range ids {
		if sh, _ := router.ShardOf(id); sh != "a" {
			if err := router.Migrate(ctx, id, "a"); err != nil {
				t.Fatal(err)
			}
		}
	}
	moved := router.Rebalance(ctx)
	if moved == 0 {
		t.Fatal("rebalance moved nothing off a 6-0 split")
	}
	_, _, spread := router.loadSpread()
	if spread > 1 {
		t.Fatalf("spread %d after rebalance, want ≤ 1", spread)
	}
	// Rebalanced sessions must still step.
	for k, id := range ids {
		if _, err := router.Step(ctx, id, nil, obs(k)); err != nil {
			t.Fatalf("step %s after rebalance: %v", id, err)
		}
	}
}

// waitFor polls cond for up to ten seconds and fails the test, naming
// what it waited for, if cond never holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRouterProbeFailover exercises the health loop end to end. Each
// probe's pong lands in the shard's stats with the replica's name and
// a clock exchange; then killing a replica fails its sessions over
// without any step traffic provoking it.
func TestRouterProbeFailover(t *testing.T) {
	a := startReplica(t, "a")
	b := startReplica(t, "b")
	router := newTestRouter(t, RouterConfig{ProbeInterval: 25 * time.Millisecond, FailAfter: 2}, a, b)
	ctx := context.Background()

	waitFor(t, "a pong from every shard", func() bool {
		for _, sh := range router.Stats().Shards {
			if sh.LastPong == nil {
				return false
			}
		}
		return true
	})
	for _, sh := range router.Stats().Shards {
		if sh.LastPong.Name != sh.Name {
			t.Fatalf("shard %s: last pong names %q", sh.Name, sh.LastPong.Name)
		}
		if sh.RTTNS <= 0 {
			t.Fatalf("shard %s: probe rtt %d ns, want > 0", sh.Name, sh.RTTNS)
		}
		// Router and replica share one clock here, so the NTP-style
		// estimate must sit within a round trip of zero.
		if off := sh.ClockOffsetNS; off < -sh.RTTNS || off > sh.RTTNS {
			t.Fatalf("shard %s: clock offset %d ns on a shared clock (rtt %d ns)", sh.Name, off, sh.RTTNS)
		}
	}

	id, err := router.Create(ctx, serve.FilterSpec{Model: "ungm", Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	source, _ := router.ShardOf(id)
	victim, survivor := a, b
	if source == "b" {
		victim, survivor = b, a
	}
	victim.kill()

	waitFor(t, "the probe loop to fail the session over", func() bool {
		sh, _ := router.ShardOf(id)
		return sh == survivor.name
	})
	if _, err := router.Step(ctx, id, nil, obs(0)); err != nil {
		t.Fatalf("step after probe-driven failover: %v", err)
	}
	if st := router.Stats(); st.ProbeFailures == 0 {
		t.Fatalf("probe failures = 0 after killing a replica: %+v", st)
	}
}

// spansNamed filters drained events down to one span name.
func spansNamed(evs []telemetry.Event, name string) []telemetry.Event {
	var out []telemetry.Event
	for _, ev := range evs {
		if ev.Name == name {
			out = append(out, ev)
		}
	}
	return out
}

// TestMigrationTraceContinuity is the span-continuity acceptance test:
// a session stepped under one propagated trace context, live-migrated
// mid-load, and stepped again must yield spans sharing that single
// trace ID in the router (route.step, the migrate.hold window, export
// and restore) and on both replicas (request spans before and after
// the move, plus the agent's export/restore spans) — one request
// identity across every process it touched.
func TestMigrationTraceContinuity(t *testing.T) {
	a := startReplica(t, "a")
	b := startReplica(t, "b")
	a.srv.Tracer().SetEnabled(true)
	b.srv.Tracer().SetEnabled(true)
	router := newTestRouter(t, RouterConfig{Trace: true}, a, b)
	ctx := context.Background()

	id, err := router.Create(ctx, serve.FilterSpec{Model: "ungm", Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	source, _ := router.ShardOf(id)
	target := "a"
	if source == "a" {
		target = "b"
	}

	// Every call below carries the same propagated trace context, as an
	// upstream caller with a traceparent header would.
	tc := telemetry.TraceContext{Trace: telemetry.NewTraceID(), Span: telemetry.NewSpanID()}
	tctx := telemetry.ContextWithTrace(ctx, tc)

	for k := 0; k < 4; k++ {
		if _, err := router.Step(tctx, id, nil, obs(k)); err != nil {
			t.Fatalf("pre-migration step %d: %v", k, err)
		}
	}

	// Migrate mid-load: a background loader keeps stepping (riding out
	// the hold window's ErrMigrating, as serve.Client's retry loop
	// would) while the migration runs.
	stop := make(chan struct{})
	var loader sync.WaitGroup
	loader.Add(1)
	go func() {
		defer loader.Done()
		for k := 4; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := router.Step(tctx, id, nil, obs(k)); err != nil && !errors.Is(err, ErrMigrating) {
				t.Errorf("mid-load step %d: %v", k, err)
				return
			}
		}
	}()
	if err := router.Migrate(tctx, id, target); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	close(stop)
	loader.Wait()
	if _, err := router.Step(tctx, id, nil, obs(100)); err != nil {
		t.Fatalf("post-migration step: %v", err)
	}

	// Router side: the forwarded steps and the whole migration protocol
	// share the propagated trace ID, and the hold window is a real span.
	revs := router.Tracer().Drain()
	for _, name := range []string{"route.step", "migrate.hold", "migrate.export", "migrate.restore"} {
		spans := spansNamed(revs, name)
		if len(spans) == 0 {
			t.Fatalf("router recorded no %q span", name)
		}
		for _, ev := range spans {
			if ev.Trace != tc.Trace {
				t.Fatalf("router %q span has trace %s, want %s", name, ev.Trace, tc.Trace)
			}
		}
	}
	hold := spansNamed(revs, "migrate.hold")[0]
	if hold.Dur <= 0 {
		t.Fatalf("migrate.hold span has non-positive duration %v", hold.Dur)
	}
	if hold.Parent != tc.Span {
		t.Fatalf("migrate.hold parent span %x, want the caller's %x", hold.Parent, tc.Span)
	}

	// Replica side: the source saw traced request spans and the export;
	// the target saw the restore and the post-migration request spans —
	// all under the same trace ID.
	src, tgt := a, b
	if source == "b" {
		src, tgt = b, a
	}
	sevs := src.srv.Tracer().Drain()
	tevs := tgt.srv.Tracer().Drain()
	for _, check := range []struct {
		proc string
		evs  []telemetry.Event
		span string
	}{
		{src.name, sevs, "request"},
		{src.name, sevs, "agent.export"},
		{tgt.name, tevs, "agent.restore"},
		{tgt.name, tevs, "request"},
	} {
		spans := spansNamed(check.evs, check.span)
		if len(spans) == 0 {
			t.Fatalf("replica %s recorded no %q span", check.proc, check.span)
		}
		found := false
		for _, ev := range spans {
			if ev.Trace == tc.Trace {
				found = true
			}
		}
		if !found {
			t.Fatalf("replica %s has no %q span with trace %s", check.proc, check.span, tc.Trace)
		}
	}
}

// TestCreateSpreadsByHash sanity-checks initial placement: with enough
// sessions both shards get some.
func TestCreateSpreadsByHash(t *testing.T) {
	a := startReplica(t, "a")
	b := startReplica(t, "b")
	router := newTestRouter(t, RouterConfig{}, a, b)
	ctx := context.Background()
	counts := map[string]int{}
	for i := 0; i < 12; i++ {
		id, err := router.Create(ctx, serve.FilterSpec{Model: "ungm", Seed: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		sh, _ := router.ShardOf(id)
		counts[sh]++
	}
	if counts["a"] == 0 || counts["b"] == 0 {
		t.Fatalf("all 12 sessions landed on one shard: %v", counts)
	}
	var names []string
	for _, sh := range router.Stats().Shards {
		names = append(names, sh.Name)
	}
	if fmt.Sprint(names) != "[a b]" {
		t.Fatalf("shard names %v", names)
	}
}

// TestRouterDefaultClientKeepsConnections steps 16 sessions
// concurrently through a router built without an HTTPClient to one
// replica and counts the connections the replica accepts. Each forward
// in flight holds a connection, so 16 are needed at most; a pool that
// keeps fewer idle (http.DefaultClient keeps 2 per host) closes the rest
// as replies come back and dials again for later steps. The replica
// holds each reply for a millisecond so the 16 forwards overlap.
func TestRouterDefaultClientKeepsConnections(t *testing.T) {
	const sessions, steps = 16, 100
	srv := serve.NewServer(serve.Config{Workers: 2}, testModels())
	api := serve.NewHandler(srv)
	var dials atomic.Int64
	web := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		time.Sleep(time.Millisecond)
		api.ServeHTTP(w, req)
	}))
	web.Config.ConnState = countNew(&dials)
	web.Start()
	t.Cleanup(func() {
		web.Close()
		srv.Shutdown()
	})
	router, err := NewRouter(RouterConfig{
		Shards:        []ShardSpec{{Name: "a", BaseURL: web.URL}},
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(router.Close)
	ctx := context.Background()
	ids := make([]string, sessions)
	for i := range ids {
		if ids[i], err = router.Create(ctx, serve.FilterSpec{Model: "ungm", Seed: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for k := 0; k < steps; k++ {
				if _, err := router.Step(ctx, id, nil, obs(k)); err != nil {
					errs <- err
					return
				}
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	n := dials.Load()
	t.Logf("%d routed steps took %d connections", sessions*steps, n)
	// A few more than one per session allows for the transport dialing
	// while a busy connection frees up.
	if limit := int64(sessions + 4); n > limit {
		t.Fatalf("%d routed steps over %d sessions dialed %d connections, want at most %d",
			sessions*steps, sessions, n, limit)
	}
}

// TestLargeRepliesKeepConnections reads a session's checkpoint ten times
// through the router, then migrates it back and forth ten times, and
// counts the connections the replicas accept after a warm-up. A
// checkpoint or export reply is over 2 KB, so it is sent chunked, and a
// client that closes it before reading to EOF (past the decoded value's
// end, through the last chunk) loses the connection and dials again for
// the next call. Every call here runs after the previous one returned,
// so each listener needs one connection.
func TestLargeRepliesKeepConnections(t *testing.T) {
	const calls = 10
	a := startReplica(t, "a")
	b := startReplica(t, "b")
	router := newTestRouter(t, RouterConfig{}, a, b)
	ctx := context.Background()
	id, err := router.Create(ctx, serve.FilterSpec{Model: "ungm", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := router.Step(ctx, id, nil, obs(0)); err != nil {
		t.Fatal(err)
	}
	other := map[string]string{"a": "b", "b": "a"}
	conns := func() int64 {
		return a.webConns.Load() + a.ctlConns.Load() + b.webConns.Load() + b.ctlConns.Load()
	}

	// Warm-up: one read, and a migration each way, open a connection to
	// the session API and to both agents.
	if _, err := router.Checkpoint(ctx, id); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		src, err := router.ShardOf(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := router.Migrate(ctx, id, other[src]); err != nil {
			t.Fatal(err)
		}
	}

	before := conns()
	for i := 0; i < calls; i++ {
		if _, err := router.Checkpoint(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	if n := conns() - before; n != 0 {
		t.Errorf("%d checkpoint reads opened %d connections, want 0", calls, n)
	}

	before = conns()
	for i := 0; i < calls; i++ {
		src, err := router.ShardOf(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := router.Migrate(ctx, id, other[src]); err != nil {
			t.Fatal(err)
		}
	}
	if n := conns() - before; n != 0 {
		t.Errorf("%d migrations (an export and a restore each) opened %d connections, want 0", calls, n)
	}
	if st := router.Stats(); st.Migrations != calls+2 {
		t.Fatalf("migrations = %d, want %d", st.Migrations, calls+2)
	}
}
