package shard

import (
	"context"
	"errors"
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
// uninterrupted run bit for bit. The replicas count the transport
// frames they answer: create sends no export frame, Checkpoint one.
func TestFailoverRestoresCheckpoint(t *testing.T) {
	const K, M = 5, 3
	a := startReplica(t, "a")
	b := startReplica(t, "b")
	router := newTestRouter(t, RouterConfig{FailAfter: 1}, a, b)
	ctx := context.Background()
	exports := func() int64 { return a.frames[FrameExport].Load() + b.frames[FrameExport].Load() }

	spec := serve.FilterSpec{Model: "ungm", Seed: 19}
	want := referenceRun(t, spec, 2*K+M)
	id, err := router.Create(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if n := exports(); n != 0 {
		t.Fatalf("create sent %d export frames, want 0", n)
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
	if n := exports(); n != 1 {
		t.Fatalf("Checkpoint sent %d export frames, want 1", n)
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
	if n := survivor.frames[FrameRestore].Load(); n != 1 {
		t.Fatalf("survivor answered %d restore frames, want 1", n)
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
	if n := exports(); n != 1 {
		t.Fatalf("%d export frames in all, want 1", n)
	}
}
