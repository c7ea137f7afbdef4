package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"esthera/internal/device"
	"esthera/internal/exchange"
	"esthera/internal/filter"
	"esthera/internal/model"
	"esthera/internal/rng"
)

// testModels is the registry used across the tests: the UNGM benchmark
// plus a deliberately slow variant for saturation tests.
func testModels() map[string]ModelFactory {
	return map[string]ModelFactory{
		"ungm": func() (model.Model, error) { return model.NewUNGM(), nil },
		"slow-ungm": func() (model.Model, error) {
			return slowModel{Model: model.NewUNGM(), delay: 200 * time.Microsecond}, nil
		},
	}
}

// slowModel delays each propagation, so a step occupies the device long
// enough for the admission queue to fill under concurrent load.
type slowModel struct {
	model.Model
	delay time.Duration
}

func (m slowModel) Step(dst, src, u []float64, k int, r *rng.Rand) {
	time.Sleep(m.delay)
	m.Model.Step(dst, src, u, k, r)
}

func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s := NewServer(cfg, testModels())
	t.Cleanup(s.Shutdown)
	return s
}

// refFilter builds the sequential reference for a spec: the same filter
// on a private device, stepped without batching.
func refFilter(t testing.TB, sp FilterSpec) *filter.Parallel {
	t.Helper()
	sp = sp.withDefaults()
	scheme, err := exchange.SchemeByName(sp.ExchangeScheme)
	if err != nil {
		t.Fatal(err)
	}
	dev := device.New(device.Config{Workers: 2, LocalMemBytes: -1})
	f, err := filter.NewParallel(dev, model.NewUNGM(), filter.ParallelConfig{
		SubFilters:    sp.SubFilters,
		ParticlesPer:  sp.ParticlesPer,
		Scheme:        scheme,
		ExchangeCount: sp.ExchangeCount,
	}, sp.Seed)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// obs returns session i's deterministic synthetic measurement at step k.
func obs(i, k int) []float64 {
	return []float64{10 * math.Sin(float64(k)*0.3+float64(i))}
}

func TestSessionLifecycle(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4})
	id, err := s.Create(FilterSpec{Model: "ungm", SubFilters: 8, ParticlesPer: 32, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ref := refFilter(t, FilterSpec{Model: "ungm", SubFilters: 8, ParticlesPer: 32, Seed: 5})
	for k := 1; k <= 20; k++ {
		z := obs(0, k)
		got, err := s.Step(id, nil, z)
		if err != nil {
			t.Fatal(err)
		}
		want := ref.Step(nil, z)
		if got.Step != k {
			t.Fatalf("step index %d, want %d", got.Step, k)
		}
		if got.State[0] != want.State[0] || got.LogWeight != want.LogWeight {
			t.Fatalf("step %d: served estimate (%v, %v) != reference (%v, %v)",
				k, got.State[0], got.LogWeight, want.State[0], want.LogWeight)
		}
	}
	est, err := s.Estimate(id)
	if err != nil {
		t.Fatal(err)
	}
	if est.Step != 20 {
		t.Fatalf("estimate step %d, want 20", est.Step)
	}
	if err := s.Close(id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(id, nil, obs(0, 21)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("step after close: %v, want ErrNotFound", err)
	}
}

func TestCreateValidation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	bad := []FilterSpec{
		{Model: "no-such-model"},
		{Model: "ungm", Resampler: "bogus"},
		{Model: "ungm", ExchangeScheme: "bogus"},
		{Model: "ungm", Policy: "bogus"},
		{Model: "ungm", Estimator: "bogus"},
		{Model: "ungm", SubFilters: 4, ParticlesPer: 2, ExchangeCount: 3},
		{Model: "ungm", ExchangeCount: -1},
		{Model: "ungm", SubFilters: 2048, ParticlesPer: 1025},
	}
	for i, sp := range bad {
		if _, err := s.Create(sp); err == nil {
			t.Errorf("spec %d accepted: %+v", i, sp)
		}
	}
	if got := len(s.Sessions()); got != 0 {
		t.Fatalf("%d sessions leaked from failed creates", got)
	}
}

func TestStepValidatesDims(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	id, err := s.Create(FilterSpec{Model: "ungm", SubFilters: 4, ParticlesPer: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(id, nil, []float64{1, 2}); err == nil {
		t.Fatal("oversized measurement accepted")
	}
	if _, err := s.Step(id, []float64{1}, []float64{0}); err == nil {
		t.Fatal("control for uncontrolled model accepted")
	}
}

// TestConcurrentSessionsMatchReferences is the core serving guarantee:
// many sessions stepped concurrently — and so coalesced into shared
// batched launches — produce exactly the estimates each filter would
// produce alone.
func TestConcurrentSessionsMatchReferences(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4})
	const sessions = 9
	const steps = 25
	ids := make([]string, sessions)
	for i := range ids {
		var err error
		ids[i], err = s.Create(FilterSpec{Model: "ungm", SubFilters: 8, ParticlesPer: 32, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ref := refFilter(t, FilterSpec{Model: "ungm", SubFilters: 8, ParticlesPer: 32, Seed: uint64(i + 1)})
			for k := 1; k <= steps; k++ {
				z := obs(i, k)
				var got StepResult
				for {
					var err error
					got, err = s.Step(ids[i], nil, z)
					if err == nil {
						break
					}
					var sat *SaturatedError
					if errors.As(err, &sat) {
						time.Sleep(sat.RetryAfter)
						continue
					}
					errs <- fmt.Errorf("session %d step %d: %w", i, k, err)
					return
				}
				want := ref.Step(nil, z)
				if got.State[0] != want.State[0] || got.LogWeight != want.LogWeight {
					errs <- fmt.Errorf("session %d step %d: (%v,%v) != reference (%v,%v)",
						i, k, got.State[0], got.LogWeight, want.State[0], want.LogWeight)
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
	st := s.Stats()
	if st.BatchedSteps != sessions*steps {
		t.Fatalf("scheduler stepped %d, want %d", st.BatchedSteps, sessions*steps)
	}
	if st.Batches == 0 || st.MeanBatch < 1 {
		t.Fatalf("implausible batch stats: %+v", st)
	}
	t.Logf("mean batch size %.2f over %d batches", st.MeanBatch, st.Batches)
}

// TestSaturationBackpressure drives a tiny admission queue far past
// capacity and requires (a) rejects with a retry hint rather than
// unbounded queue growth, and (b) full recovery: after backoff every
// session completes its steps.
func TestSaturationBackpressure(t *testing.T) {
	s := newTestServer(t, Config{
		Workers:    2,
		QueueDepth: 2,
		MaxBatch:   2,
		RetryAfter: time.Millisecond,
	})
	const sessions = 12
	ids := make([]string, sessions)
	for i := range ids {
		var err error
		ids[i], err = s.Create(FilterSpec{Model: "slow-ungm", SubFilters: 4, ParticlesPer: 32, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	var saturated, completed int64
	var mu sync.Mutex
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 1; k <= 6; k++ {
				for {
					_, err := s.Step(ids[i], nil, obs(i, k))
					if err == nil {
						mu.Lock()
						completed++
						mu.Unlock()
						break
					}
					var sat *SaturatedError
					if !errors.As(err, &sat) {
						t.Errorf("session %d: unexpected error %v", i, err)
						return
					}
					if sat.RetryAfter <= 0 {
						t.Errorf("saturation without retry hint")
						return
					}
					mu.Lock()
					saturated++
					mu.Unlock()
					time.Sleep(sat.RetryAfter)
				}
			}
		}(i)
	}
	wg.Wait()
	if completed != sessions*6 {
		t.Fatalf("completed %d steps, want %d", completed, sessions*6)
	}
	if saturated == 0 {
		t.Fatal("queue of depth 2 under 12 concurrent slow sessions never saturated")
	}
	st := s.Stats()
	if st.Rejected != saturated {
		t.Fatalf("stats count %d rejects, clients saw %d", st.Rejected, saturated)
	}
	t.Logf("%d steps completed, %d rejects shed", completed, saturated)
}

func TestSessionLimit(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, MaxSessions: 3})
	for i := 0; i < 3; i++ {
		if _, err := s.Create(FilterSpec{Model: "ungm", SubFilters: 2, ParticlesPer: 8, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Create(FilterSpec{Model: "ungm", SubFilters: 2, ParticlesPer: 8, Seed: 1}); !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("4th create: %v, want ErrTooManySessions", err)
	}
	ids := s.Sessions()
	if err := s.Close(ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(FilterSpec{Model: "ungm", SubFilters: 2, ParticlesPer: 8, Seed: 1}); err != nil {
		t.Fatalf("create after close: %v", err)
	}
}

func TestShutdown(t *testing.T) {
	s := NewServer(Config{Workers: 2}, testModels())
	id, err := s.Create(FilterSpec{Model: "ungm", SubFilters: 2, ParticlesPer: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Shutdown()
	s.Shutdown() // idempotent
	if _, err := s.Step(id, nil, []float64{0}); !errors.Is(err, ErrClosed) {
		t.Fatalf("step after shutdown: %v, want ErrClosed", err)
	}
	if _, err := s.Create(FilterSpec{Model: "ungm"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("create after shutdown: %v, want ErrClosed", err)
	}
}

func TestStatsIntrospection(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	id, err := s.Create(FilterSpec{Model: "ungm", SubFilters: 4, ParticlesPer: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 5; k++ {
		if _, err := s.Step(id, nil, obs(0, k)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if len(st.Sessions) != 1 || st.Sessions[0].ID != id {
		t.Fatalf("sessions: %+v", st.Sessions)
	}
	sess := st.Sessions[0]
	if sess.Steps != 5 || sess.Latency.Count != 5 {
		t.Fatalf("session stats: %+v", sess)
	}
	// Buckets are cumulative: non-decreasing, ending in +Inf at the
	// total step count.
	buckets := sess.Latency.Buckets
	for i := 1; i < len(buckets); i++ {
		if buckets[i].Count < buckets[i-1].Count {
			t.Fatalf("histogram buckets not cumulative: %+v", buckets)
		}
	}
	if last := buckets[len(buckets)-1]; !math.IsInf(last.UpperBound, 1) || last.Count != 5 {
		t.Fatalf("histogram ends at le=%v count %d, want +Inf count 5", last.UpperBound, last.Count)
	}
	if st.QueueCap != 128 {
		t.Fatalf("queue cap %d, want default 128", st.QueueCap)
	}
	// The shared device profiler must expose the six kernels' breakdown.
	names := map[string]bool{}
	for _, k := range st.Device.Kernels {
		names[k.Name] = true
	}
	for _, want := range []string{"rand", "sampling", "local sort", "global estimate", "exchange", "resampling"} {
		if !names[want] {
			t.Fatalf("kernel %q missing from device stats %v", want, names)
		}
	}
	if st.Device.TotalElapsed <= 0 {
		t.Fatalf("device total elapsed %v", st.Device.TotalElapsed)
	}
}
