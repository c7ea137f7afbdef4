package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"esthera/internal/model"
)

// TestStepShutdownCloseRace hammers concurrent Step, session Close and
// server Shutdown (run under -race) and then checks the at-most-once
// contract directly against the filters: every session's filter must
// have advanced exactly as many steps as its callers saw succeed — no
// step both applied and reported failed, none applied silently.
func TestStepShutdownCloseRace(t *testing.T) {
	s := NewServer(Config{
		Workers:    4,
		QueueDepth: 16,
		MaxBatch:   8,
	}, testModels())
	defer s.Shutdown()

	const nSessions = 6
	ids := make([]string, nSessions)
	sessions := make([]*Session, nSessions)
	for i := range ids {
		id, err := s.Create(FilterSpec{Model: "slow-ungm", SubFilters: 4, ParticlesPer: 16, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		if sessions[i], err = s.lookup(id); err != nil {
			t.Fatal(err)
		}
	}

	var succ [nSessions]atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < nSessions; i++ {
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for k := 1; ; k++ {
					_, err := s.Step(ids[i], nil, obs(i, k))
					switch {
					case err == nil:
						succ[i].Add(1)
					case errors.Is(err, ErrClosed), errors.Is(err, ErrNotFound):
						return
					default:
						var sat *SaturatedError
						if errors.As(err, &sat) {
							time.Sleep(200 * time.Microsecond)
							continue
						}
						t.Errorf("session %d: unexpected step error: %v", i, err)
						return
					}
				}
			}(i)
		}
	}

	// Let the hammer run, close one session mid-flight, then pull the
	// plug on the whole server while batches are executing.
	time.Sleep(20 * time.Millisecond)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := s.Close(ids[0]); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	time.Sleep(5 * time.Millisecond)
	s.Shutdown()
	wg.Wait()

	for i, sess := range sessions {
		applied := int64(sess.f.StepIndex())
		reported := succ[i].Load()
		if applied != reported {
			t.Errorf("session %d: filter applied %d steps, callers saw %d successes", i, applied, reported)
		}
	}
}

// TestCancelQueuedStepPrompt pins the cancellation contract: cancelling
// a queued step's context returns promptly, releases the batch slot
// without executing the step, and leaves the scheduler healthy.
func TestCancelQueuedStepPrompt(t *testing.T) {
	// A gated model parks A's batch on the device until the test opens
	// the gate, so B is still queued behind it when its context fires.
	entered, gate, once := make(chan struct{}), make(chan struct{}), new(sync.Once)
	models := map[string]ModelFactory{
		"stall": func() (model.Model, error) {
			return gatedModel{Model: model.NewUNGM(), once: once, entered: entered, gate: gate}, nil
		},
	}
	s := NewServer(Config{Workers: 2, QueueDepth: 8, MaxBatch: 1}, models)
	t.Cleanup(s.Shutdown)
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release) // runs before Shutdown, which waits out the parked batch

	idA, err := s.Create(FilterSpec{Model: "stall", SubFilters: 4, ParticlesPer: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	idB, err := s.Create(FilterSpec{Model: "stall", SubFilters: 4, ParticlesPer: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Occupy the device with A's step, then queue B's behind it.
	aDone := make(chan error, 1)
	go func() {
		_, err := s.Step(idA, nil, obs(0, 1))
		aDone <- err
	}()
	<-entered // A's batch is executing and holds the device

	ctx, cancel := context.WithCancel(context.Background())
	bDone := make(chan error, 1)
	go func() {
		_, err := s.StepCtx(ctx, idB, nil, obs(1, 1))
		bDone <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("B's step never reached the queue")
		}
		runtime.Gosched()
	}
	cancel()

	cancelled := time.Now()
	select {
	case err := <-bDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled step returned %v, want context.Canceled", err)
		}
		if wait := time.Since(cancelled); wait > 500*time.Millisecond {
			t.Fatalf("cancelled step took %v to return", wait)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled queued step never returned")
	}
	release()
	if err := <-aDone; err != nil {
		t.Fatalf("occupying step failed: %v", err)
	}

	// The slot was released, the scheduler is healthy, and the abandoned
	// step was never applied: B's next step must be its first.
	res, err := s.Step(idB, nil, obs(1, 1))
	if err != nil {
		t.Fatalf("step after cancellation: %v", err)
	}
	if res.Step != 1 {
		t.Fatalf("step index %d after a cancelled step, want 1 (cancelled step must not apply)", res.Step)
	}
	st := s.Stats()
	if st.Health.Cancelled < 1 {
		t.Errorf("health reports %d cancelled steps, want ≥ 1", st.Health.Cancelled)
	}
	if st.Health.Skipped < 1 {
		t.Errorf("health reports %d skipped requests, want ≥ 1", st.Health.Skipped)
	}
}

// TestDrain checks graceful drain: admission stops with ErrDraining,
// already-admitted steps complete and deliver, and Drain returns only
// once the pipeline is empty.
func TestDrain(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	id, err := s.Create(FilterSpec{Model: "slow-ungm", SubFilters: 4, ParticlesPer: 32, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	inflight := make(chan error, 1)
	go func() {
		_, err := s.Step(id, nil, obs(0, 1))
		inflight <- err
	}()
	time.Sleep(5 * time.Millisecond) // the step is admitted and executing

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight step failed during drain: %v", err)
	}
	if s.Ready() || !s.Draining() {
		t.Fatalf("after drain: ready=%v draining=%v", s.Ready(), s.Draining())
	}
	if _, err := s.Step(id, nil, obs(0, 2)); !errors.Is(err, ErrDraining) {
		t.Fatalf("step while draining: %v, want ErrDraining", err)
	}
	// Idempotent: an empty pipeline drains instantly.
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("second drain: %v", err)
	}
	st := s.Stats()
	if st.Health.Ready || !st.Health.Draining || st.Health.InFlight != 0 {
		t.Fatalf("health after drain: %+v", st.Health)
	}
}

// TestAdaptiveRetryHint checks the back-off hint switches from the
// configured constant to the measured queue-drain estimate once batches
// have run.
func TestAdaptiveRetryHint(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, RetryAfter: 123 * time.Millisecond})
	if got := s.retryHint(); got != 123*time.Millisecond {
		t.Fatalf("hint before any batch: %v, want the configured 123ms", got)
	}
	id, err := s.Create(FilterSpec{Model: "ungm", SubFilters: 4, ParticlesPer: 32, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 5; k++ {
		if _, err := s.Step(id, nil, obs(0, k)); err != nil {
			t.Fatal(err)
		}
	}
	if s.batchLatNS.Load() <= 0 {
		t.Fatal("no batch latency observed after 5 steps")
	}
	hint := s.retryHint()
	if hint < 200*time.Microsecond || hint > 2*time.Second {
		t.Fatalf("adaptive hint %v outside clamp range", hint)
	}
	if hint >= 123*time.Millisecond {
		t.Fatalf("adaptive hint %v did not adapt below the 123ms fallback for µs-scale batches", hint)
	}
	if got := s.Stats().Health.BatchLatencyUS; got <= 0 {
		t.Fatalf("health batch latency %v, want > 0", got)
	}
}

// admitCtx closes reached the first time its Err is consulted. StepCtx
// checks the context's error after the session lookup and before the
// session lock, so a test can release Drain exactly as a step heads for
// admission.
type admitCtx struct {
	context.Context
	once    sync.Once
	reached chan struct{}
}

func (c *admitCtx) Err() error {
	c.once.Do(func() { close(c.reached) })
	return c.Context.Err()
}

// TestDrainWaitsForRacingStep pins Drain's contract against a step
// racing it: the step is either refused with ErrDraining or delivered
// before Drain returns, so a Shutdown right after Drain never fails a
// step that was let through with ErrClosed. The race windows are
// sub-microsecond, so each of many rounds races one step against Drain
// and Shutdown on a fresh server.
func TestDrainWaitsForRacingStep(t *testing.T) {
	for round := 0; round < 300; round++ {
		s := NewServer(Config{Workers: 1}, testModels())
		id, err := s.Create(FilterSpec{Model: "ungm", SubFilters: 2, ParticlesPer: 8, Seed: uint64(round + 1)})
		if err != nil {
			t.Fatal(err)
		}
		ctx := &admitCtx{Context: context.Background(), reached: make(chan struct{})}
		stepErr := make(chan error, 1)
		go func() {
			_, err := s.StepCtx(ctx, id, nil, obs(0, 1))
			stepErr <- err
		}()
		<-ctx.reached
		if err := s.Drain(context.Background()); err != nil {
			t.Fatalf("round %d: drain: %v", round, err)
		}
		s.Shutdown()
		s.Device().Close()
		if err := <-stepErr; err != nil && !errors.Is(err, ErrDraining) {
			t.Fatalf("round %d: step returned %v, want nil or ErrDraining", round, err)
		}
	}
}
