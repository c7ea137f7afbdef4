package shard

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"testing"
	"time"

	"esthera/internal/serve"
)

// referenceRun steps a fresh single-server session of spec through
// obs(0..n-1): the uninterrupted stream a routed session must match.
func referenceRun(t *testing.T, spec serve.FilterSpec, n int) []serve.StepResult {
	t.Helper()
	ref := serve.NewServer(serve.Config{Workers: 2}, testModels())
	defer ref.Shutdown()
	id, err := ref.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]serve.StepResult, n)
	for k := range out {
		if out[k], err = ref.StepCtx(context.Background(), id, nil, obs(k)); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// killOwner kills the replica owning id, provokes failover with one
// step (FailAfter must be 1), and waits until the session is placed on
// the other replica. It returns the survivor.
func killOwner(t *testing.T, router *Router, id string, a, b *replica) *replica {
	t.Helper()
	owner, err := router.ShardOf(id)
	if err != nil {
		t.Fatal(err)
	}
	victim, survivor := a, b
	if owner == b.name {
		victim, survivor = b, a
	}
	victim.kill()
	// The step is never applied: the dead shard refuses it, and the
	// router answers retryable while failover runs.
	if _, err := router.Step(context.Background(), id, nil, obs(-1)); !errors.Is(err, ErrShardDown) && !errors.Is(err, ErrMigrating) {
		t.Fatalf("step against dead shard: %v, want ErrShardDown", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if sh, _ := router.ShardOf(id); sh == survivor.name {
			return survivor
		}
		if time.Now().After(deadline) {
			sh, _ := router.ShardOf(id)
			t.Fatalf("session never failed over onto %q (on %q)", survivor.name, sh)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFailoverRecreatesFromSpec pins the failover path of a session that
// was never checkpointed: create takes no checkpoint, so the router
// recreates the session from its spec, rolling it back to step 0, and
// the recreated stream is bit-identical to a fresh session's.
func TestFailoverRecreatesFromSpec(t *testing.T) {
	const K = 6
	a := startReplica(t, "a")
	b := startReplica(t, "b")
	router := newTestRouter(t, RouterConfig{FailAfter: 1}, a, b)
	ctx := context.Background()

	spec := serve.FilterSpec{Model: "ungm", Seed: 17}
	want := referenceRun(t, spec, 2*K)
	id, err := router.Create(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < K; k++ {
		res, err := router.Step(ctx, id, nil, obs(k))
		if err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
		sameResult(t, k, res, want[k])
	}

	killOwner(t, router, id, a, b)
	if st := router.Stats(); st.Recreated != 1 || st.Restored != 0 {
		t.Fatalf("failover recreated %d and restored %d sessions, want 1 and 0", st.Recreated, st.Restored)
	}
	for k := 0; k < 2*K; k++ {
		res, err := router.Step(ctx, id, nil, obs(k))
		if err != nil {
			t.Fatalf("step %d after failover: %v", k, err)
		}
		sameResult(t, k, res, want[k])
	}
}

// TestFailoverRestoresCheckpoint keeps the restore path covered now that
// create takes no checkpoint: an explicit Checkpoint at step K becomes
// the failover insurance, so killing the owner M steps later rolls the
// session back to step K, and its estimates from step K+1 match an
// uninterrupted run bit for bit. The replicas count the requests they
// answer by kind: create sends no checkpoint read and no export,
// Checkpoint one checkpoint read, and failover one restore.
func TestFailoverRestoresCheckpoint(t *testing.T) {
	const K, M = 5, 3
	a := startReplica(t, "a")
	b := startReplica(t, "b")
	router := newTestRouter(t, RouterConfig{FailAfter: 1}, a, b)
	ctx := context.Background()
	total := func(kind string) int { return a.calls(kind) + b.calls(kind) }

	spec := serve.FilterSpec{Model: "ungm", Seed: 19}
	want := referenceRun(t, spec, 2*K+M)
	id, err := router.Create(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if n, m := total("checkpoint"), total("export"); n != 0 || m != 0 {
		t.Fatalf("create sent %d checkpoint reads and %d exports, want 0 and 0", n, m)
	}
	for k := 0; k < K; k++ {
		if _, err := router.Step(ctx, id, nil, obs(k)); err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
	}
	cp, err := router.Checkpoint(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Step != K {
		t.Fatalf("checkpoint at step %d, want %d", cp.Step, K)
	}
	if n := total("checkpoint"); n != 1 {
		t.Fatalf("Checkpoint sent %d checkpoint reads, want 1", n)
	}
	for k := K; k < K+M; k++ {
		if _, err := router.Step(ctx, id, nil, obs(k)); err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
	}

	survivor := killOwner(t, router, id, a, b)
	if st := router.Stats(); st.Restored != 1 || st.Recreated != 0 {
		t.Fatalf("failover restored %d and recreated %d sessions, want 1 and 0", st.Restored, st.Recreated)
	}
	if n := survivor.calls("restore"); n != 1 {
		t.Fatalf("survivor answered %d restore requests, want 1", n)
	}
	// The restored session resumes at the checkpoint: its latest estimate
	// is step K's, and the steps after it replay the reference.
	last, err := router.Estimate(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, K-1, last, want[K-1])
	for k := K; k < 2*K+M; k++ {
		res, err := router.Step(ctx, id, nil, obs(k))
		if err != nil {
			t.Fatalf("step %d after failover: %v", k, err)
		}
		sameResult(t, k, res, want[k])
	}
	if n, m := total("checkpoint"), total("export"); n != 1 || m != 0 {
		t.Fatalf("%d checkpoint reads and %d exports in all, want 1 and 0", n, m)
	}
}

// faultTransport is the router's one http.RoundTripper in a test: it
// counts every request by requestKind and fails the next failRestores
// restore requests before they leave the router.
type faultTransport struct {
	base http.RoundTripper

	mu           sync.Mutex
	sent         map[string]int
	failRestores int
}

func (f *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	kind := requestKind(req)
	f.mu.Lock()
	f.sent[kind]++
	fail := kind == "restore" && f.failRestores > 0
	if fail {
		f.failRestores--
	}
	f.mu.Unlock()
	if fail {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, errors.New("injected restore failure")
	}
	return f.base.RoundTrip(req)
}

func (f *faultTransport) count(kind string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sent[kind]
}

// TestOneTransportCarriesEveryRequest passes the router a counting
// RoundTripper and checks that every create, step, probe, export,
// restore and checkpoint request the replicas answer went through it.
// The first restore fails in the transport: Migrate parks the session
// holding the checkpoint it exported, placement restores it on a live
// shard, and its next estimates match an unmigrated run bit for bit.
func TestOneTransportCarriesEveryRequest(t *testing.T) {
	const K = 5
	a := startReplica(t, "a")
	b := startReplica(t, "b")
	base := http.DefaultTransport.(*http.Transport).Clone()
	t.Cleanup(base.CloseIdleConnections)
	ft := &faultTransport{base: base, sent: make(map[string]int), failRestores: 1}
	router := newTestRouter(t, RouterConfig{HTTPClient: &http.Client{Transport: ft}, ProbeInterval: 10 * time.Millisecond}, a, b)
	ctx := context.Background()

	spec := serve.FilterSpec{Model: "ungm", Seed: 23}
	want := referenceRun(t, spec, 2*K)
	id, err := router.Create(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < K; k++ {
		if _, err := router.Step(ctx, id, nil, obs(k)); err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
	}
	if _, err := router.Checkpoint(ctx, id); err != nil {
		t.Fatal(err)
	}
	source, _ := router.ShardOf(id)
	target := "a"
	if source == "a" {
		target = "b"
	}
	if err := router.Migrate(ctx, id, target); err == nil {
		t.Fatal("migrate succeeded through a transport that fails its restore")
	}
	router.mu.Lock()
	held := router.routes[id].lastCP
	router.mu.Unlock()
	if held == nil || held.Step != K {
		t.Fatalf("parked route holds checkpoint %+v, want the export at step %d", held, K)
	}
	waitFor(t, "placement to re-place the parked session", func() bool {
		sh, _ := router.ShardOf(id)
		return sh != ""
	})
	for k := K; k < 2*K; k++ {
		res, err := router.Step(ctx, id, nil, obs(k))
		if err != nil {
			t.Fatalf("step %d after re-placement: %v", k, err)
		}
		sameResult(t, k, res, want[k])
	}
	if st := router.Stats(); st.MigrationErrors != 1 || st.ParkEvents != 1 || st.Restored != 1 {
		t.Fatalf("migration errors %d, parks %d, restores %d, want 1 each", st.MigrationErrors, st.ParkEvents, st.Restored)
	}
	waitFor(t, "a probe", func() bool { return ft.count("probe") > 0 })

	router.Close() // no request is in flight past this point
	for _, kind := range []string{"create", "step", "probe", "export", "restore", "checkpoint"} {
		sent, answered := ft.count(kind), a.calls(kind)+b.calls(kind)
		if kind == "restore" {
			answered++ // the injected failure never left the router
		}
		if sent == 0 || sent != answered {
			t.Fatalf("%s: the router's transport carried %d requests, the replicas answered %d", kind, sent, answered)
		}
	}
}

// TestProbeRecoversRestartedReplica kills the only shard so that its
// session parks, then restarts the replica on the same addresses: the
// probe loop reconnects on its own, marks the shard up, and placement
// recreates the session there.
func TestProbeRecoversRestartedReplica(t *testing.T) {
	a := startReplica(t, "a")
	router := newTestRouter(t, RouterConfig{ProbeInterval: 10 * time.Millisecond, FailAfter: 2}, a)
	ctx := context.Background()

	spec := serve.FilterSpec{Model: "ungm", Seed: 29}
	want := referenceRun(t, spec, 1)
	id, err := router.Create(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := router.Step(ctx, id, nil, obs(0)); err != nil {
		t.Fatal(err)
	}
	webAddr, ctlAddr := a.web.Listener.Addr().String(), a.spec.TransportAddr
	a.kill()
	waitFor(t, "the session to park", func() bool { return router.Stats().Parked == 1 })
	if router.Ready() {
		t.Fatal("router ready with its only shard down")
	}

	restart(t, a, webAddr, ctlAddr)
	waitFor(t, "the session to be placed on the restarted replica", func() bool {
		sh, _ := router.ShardOf(id)
		return sh == "a"
	})
	res, err := router.Step(ctx, id, nil, obs(0))
	if err != nil {
		t.Fatalf("step after restart: %v", err)
	}
	sameResult(t, 0, res, want[0]) // recreated from spec: step 0 again
	if st := router.Stats(); st.Recreated != 1 || st.Shards[0].Down || !router.Ready() {
		t.Fatalf("after restart: recreated %d, shard down %v, ready %v", st.Recreated, st.Shards[0].Down, router.Ready())
	}
}

// restart brings a killed replica back on the given addresses with a
// fresh server. Rebinding races the OS releasing the ports, so it
// retries briefly, and skips the test if the ports stay taken.
func restart(t *testing.T, rep *replica, webAddr, ctlAddr string) {
	t.Helper()
	var err error
	for i := 0; i < 50; i++ {
		if err = rep.start(webAddr, ctlAddr); err == nil {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Skipf("could not rebind the replica's ports: %v", err)
}

// TestProbeRecoversShardWithoutTransportAddr is the restart drill for a
// shard with no control address: the probe loop checks it through its
// session API's /healthz, so once the replica is back on the same
// address the shard comes back up and the parked session is recreated
// there.
func TestProbeRecoversShardWithoutTransportAddr(t *testing.T) {
	a := startReplica(t, "a")
	router := newTestRouter(t, RouterConfig{
		Shards:        []ShardSpec{{Name: "a", BaseURL: a.spec.BaseURL}},
		ProbeInterval: 10 * time.Millisecond,
		FailAfter:     1,
	})
	ctx := context.Background()

	spec := serve.FilterSpec{Model: "ungm", Seed: 43}
	want := referenceRun(t, spec, 2)
	id, err := router.Create(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := router.Step(ctx, id, nil, obs(0)); err != nil {
		t.Fatal(err)
	}
	webAddr := a.web.Listener.Addr().String()
	a.kill()
	if _, err := router.Step(ctx, id, nil, obs(1)); !errors.Is(err, ErrShardDown) {
		t.Fatalf("step against the dead replica: %v, want ErrShardDown", err)
	}
	waitFor(t, "the session to park", func() bool { return router.Stats().Parked == 1 })

	restart(t, a, webAddr, "127.0.0.1:0")
	waitFor(t, "the session to be placed on the restarted replica", func() bool {
		sh, _ := router.ShardOf(id)
		return sh == "a"
	})
	if st := router.Stats(); st.Shards[0].Down || !router.Ready() || st.Recreated != 1 {
		t.Fatalf("after restart: shard down %v, ready %v, recreated %d", st.Shards[0].Down, router.Ready(), st.Recreated)
	}
	for k := 0; k < 2; k++ { // recreated from spec: steps start over
		res, err := router.Step(ctx, id, nil, obs(k))
		if err != nil {
			t.Fatalf("step %d after restart: %v", k, err)
		}
		sameResult(t, k, res, want[k])
	}
}

// TestProbeKeepsDrainingShardWithoutTransportAddr drains a replica that
// has no control address: its /healthz still answers, as the agent's
// ping would, so probing strikes nothing, the shard stays up and its
// session is not recreated elsewhere.
func TestProbeKeepsDrainingShardWithoutTransportAddr(t *testing.T) {
	a := startReplica(t, "a")
	b := startReplica(t, "b")
	router := newTestRouter(t, RouterConfig{
		Shards: []ShardSpec{
			{Name: "a", BaseURL: a.spec.BaseURL},
			{Name: "b", BaseURL: b.spec.BaseURL},
		},
		ProbeInterval: 10 * time.Millisecond,
		FailAfter:     1,
	})
	ctx := context.Background()
	id, err := router.Create(ctx, serve.FilterSpec{Model: "ungm", Seed: 47})
	if err != nil {
		t.Fatal(err)
	}
	home, _ := router.ShardOf(id)
	rep := map[string]*replica{"a": a, "b": b}[home]
	if err := rep.srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if rep.srv.Ready() {
		t.Fatal("a drained replica still reports ready")
	}
	start := router.Stats().Probes
	waitFor(t, "ten probe rounds", func() bool { return router.Stats().Probes >= start+20 })
	st := router.Stats()
	for _, sh := range st.Shards {
		if sh.Down {
			t.Fatalf("shard %s marked down while %s drains", sh.Name, home)
		}
	}
	if st.ProbeFailures != 0 || st.Recreated != 0 {
		t.Fatalf("probe failures %d, recreated %d; want 0 and 0", st.ProbeFailures, st.Recreated)
	}
	if sh, _ := router.ShardOf(id); sh != home {
		t.Fatalf("session moved from %s to %s during the drain", home, sh)
	}
}

// TestCheckpointOfLostSessionReplacesRoute closes a session on its
// replica behind the router's back: the replica's 404 to a checkpoint
// read is classified like a step's, so the route parks and is re-placed
// and the healthy shard takes no strike.
func TestCheckpointOfLostSessionReplacesRoute(t *testing.T) {
	a := startReplica(t, "a")
	router := newTestRouter(t, RouterConfig{}, a)
	ctx := context.Background()

	id, err := router.Create(ctx, serve.FilterSpec{Model: "ungm", Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.srv.Close(a.srv.Sessions()[0]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		_, _ = router.Checkpoint(ctx, id) // the first parks; later ones may find it held or re-placed
	}
	waitFor(t, "the route to be re-placed", func() bool {
		sh, _ := router.ShardOf(id)
		return sh == "a"
	})
	st := router.Stats()
	if sh := st.Shards[0]; sh.Down || sh.Strikes != 0 {
		t.Fatalf("shard down %v with %d strikes after a lost session, want up with 0", sh.Down, sh.Strikes)
	}
	if st.Recreated != 1 {
		t.Fatalf("recreated %d sessions, want 1", st.Recreated)
	}
	if _, err := router.Step(ctx, id, nil, obs(0)); err != nil {
		t.Fatalf("step after re-placement: %v", err)
	}
}

// TestCheckpointWithoutTransportAddr runs a shard with no control
// address, as esthera-router -shards allows, with probing on as the
// binary runs it: checkpoint reads go through the session API, so
// Checkpoint, Snapshot and later steps all keep working and the shard
// is never struck.
func TestCheckpointWithoutTransportAddr(t *testing.T) {
	const K = 3
	a := startReplica(t, "a")
	router := newTestRouter(t, RouterConfig{
		Shards:        []ShardSpec{{Name: "a", BaseURL: a.spec.BaseURL}},
		ProbeInterval: 10 * time.Millisecond,
	})
	ctx := context.Background()

	spec := serve.FilterSpec{Model: "ungm", Seed: 41}
	want := referenceRun(t, spec, K+1)
	id, err := router.Create(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := router.Step(ctx, id, nil, obs(0)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		cp, err := router.Checkpoint(ctx, id)
		if err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
		if cp.Step != 1 {
			t.Fatalf("checkpoint %d at step %d, want 1", i, cp.Step)
		}
	}
	if ok, failed := router.Snapshot(ctx); ok != 1 || failed != 0 {
		t.Fatalf("snapshot: %d ok, %d failed, want 1 and 0", ok, failed)
	}
	for k := 1; k <= K; k++ {
		res, err := router.Step(ctx, id, nil, obs(k))
		if err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
		sameResult(t, k, res, want[k])
	}
	if sh := router.Stats().Shards[0]; sh.Down || sh.Strikes != 0 || !router.Ready() {
		t.Fatalf("shard down %v with %d strikes, router ready %v", sh.Down, sh.Strikes, router.Ready())
	}
}
