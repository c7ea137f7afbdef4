package serve

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"esthera/internal/model"
	"esthera/internal/rng"
)

// TestCollect pins the work-conserving batching rule on a server with no
// scheduler goroutine: collect returns the first request plus whatever is
// already queued, in arrival order and up to MaxBatch, without waiting
// for more, and leaves the rest queued.
func TestCollect(t *testing.T) {
	cases := []struct {
		name             string
		maxBatch, queued int
		quit             bool
	}{
		{"idle", 4, 0, false},
		{"backlog", 4, 2, false},
		{"backlog fills batch", 4, 3, false},
		{"backlog over batch", 4, 6, false},
		{"unbatched", 1, 3, false},
		{"quit idle", 4, 0, true},
		{"quit backlog", 4, 2, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := &Server{
				cfg:   Config{MaxBatch: tc.maxBatch},
				queue: make(chan *stepReq, tc.queued),
				quit:  make(chan struct{}),
			}
			first := &stepReq{}
			queued := make([]*stepReq, tc.queued)
			for i := range queued {
				queued[i] = &stepReq{}
				s.queue <- queued[i]
			}
			if tc.quit {
				close(s.quit)
			}

			batch, quit := s.collect(first)
			if quit != tc.quit {
				t.Fatalf("quit = %v, want %v", quit, tc.quit)
			}
			if len(batch) == 0 || batch[0] != first {
				t.Fatalf("batch does not start with the first request: %v", batch)
			}
			if tc.quit {
				// Which queued requests joined before quit won is
				// unspecified: the whole batch is failed either way.
				return
			}
			take := min(tc.queued, tc.maxBatch-1)
			want := append([]*stepReq{first}, queued[:take]...)
			if len(batch) != len(want) {
				t.Fatalf("batch of %d, want %d", len(batch), len(want))
			}
			for i := range want {
				if batch[i] != want[i] {
					t.Fatalf("batch[%d] out of arrival order", i)
				}
			}
			if got := len(s.queue); got != tc.queued-take {
				t.Fatalf("%d requests left queued, want %d", got, tc.queued-take)
			}
			for i, r := range queued[take:] {
				if <-s.queue != r {
					t.Fatalf("left-over request %d out of arrival order", i)
				}
			}
		})
	}
}

// gatedModel holds every propagation until gate closes and closes
// entered on the first, so a test can park a batch inside the kernel.
type gatedModel struct {
	model.Model
	once    *sync.Once
	entered chan struct{}
	gate    chan struct{}
}

func (m gatedModel) Step(dst, src, u []float64, k int, r *rng.Rand) {
	m.once.Do(func() { close(m.entered) })
	<-m.gate
	m.Model.Step(dst, src, u, k, r)
}

// TestBacklogCoalesces pins when steps share a launch: exactly when they
// queued behind a running batch. Session A's batch is parked inside the
// kernel while k other sessions step; once the gate opens, the k queued
// steps run as one batch, and every estimate still matches its
// unbatched reference bit for bit.
func TestBacklogCoalesces(t *testing.T) {
	const k = 12
	entered, gate := make(chan struct{}), make(chan struct{})
	models := testModels()
	models["gated"] = func() (model.Model, error) {
		return gatedModel{Model: model.NewUNGM(), once: new(sync.Once), entered: entered, gate: gate}, nil
	}
	s := NewServer(Config{Workers: 2}, models)
	t.Cleanup(s.Shutdown)
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release) // runs before Shutdown, which waits out the parked batch

	specs := make([]FilterSpec, k+1)
	ids := make([]string, k+1)
	for i := range specs {
		specs[i] = FilterSpec{Model: "ungm", SubFilters: 4, ParticlesPer: 16, Seed: uint64(40 + i)}
		if i == 0 {
			specs[i].Model = "gated"
		}
		var err error
		if ids[i], err = s.Create(specs[i]); err != nil {
			t.Fatal(err)
		}
	}

	type reply struct {
		res StepResult
		err error
	}
	replies := make([]chan reply, k+1)
	step := func(i int) {
		replies[i] = make(chan reply, 1)
		go func() {
			res, err := s.Step(ids[i], nil, obs(i, 1))
			replies[i] <- reply{res, err}
		}()
	}
	step(0)
	<-entered // A's batch is executing and holds the device
	for i := 1; i <= k; i++ {
		step(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().QueueDepth != k {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d, want %d behind the parked batch", s.Stats().QueueDepth, k)
		}
		runtime.Gosched()
	}
	release()

	for i, ch := range replies {
		r := <-ch
		if r.err != nil {
			t.Fatalf("session %d: %v", i, r.err)
		}
		want := refFilter(t, specs[i]).Step(nil, obs(i, 1))
		if math.Float64bits(r.res.State[0]) != math.Float64bits(want.State[0]) ||
			math.Float64bits(r.res.LogWeight) != math.Float64bits(want.LogWeight) {
			t.Errorf("session %d: estimate (%v, %v) != reference (%v, %v)",
				i, r.res.State[0], r.res.LogWeight, want.State[0], want.LogWeight)
		}
	}
	if st := s.Stats(); st.Batches != 2 || st.BatchedSteps != k+1 {
		t.Fatalf("%d batches of %d steps in all, want 2 batches of %d", st.Batches, st.BatchedSteps, k+1)
	}
}

// TestClosedSessionsAreCollectable creates, steps and closes sessions
// over and over: once closed, a session's filter must not stay
// reachable from the scheduler's batching state, so the live heap grows
// by at most a few KB per cycle (a 16×64 session's pipeline is ~100 KB).
func TestClosedSessionsAreCollectable(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	cycle := func() {
		id, err := s.Create(FilterSpec{Model: "ungm", Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Step(id, nil, []float64{0.5}); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(id); err != nil {
			t.Fatal(err)
		}
	}
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for i := 0; i < 20; i++ {
		cycle()
	}
	before := liveHeap()
	const cycles = 200
	for i := 0; i < cycles; i++ {
		cycle()
	}
	if perSession := (liveHeap() - before) / cycles; perSession > 4<<10 {
		t.Fatalf("live heap grew %d bytes per closed session, want < 4 KiB", perSession)
	}
}
