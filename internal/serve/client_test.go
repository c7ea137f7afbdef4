package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestClientHonorsRetryAfterMs checks the client retries 429 replies
// and prefers the millisecond hint over the coarse whole-second header.
func TestClientHonorsRetryAfterMs(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1") // 1s — must NOT be used
			w.Header().Set("Retry-After-Ms", "5")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"saturated"}`)
			return
		}
		json.NewEncoder(w).Encode(StepReply{
			Step: 7, State: []float64{1.5}, LogWeightBits: math.Float64bits(-2.25),
		})
	}))
	defer ts.Close()

	c := NewClient(ClientConfig{BaseURL: ts.URL})
	start := time.Now()
	res, err := c.Step(context.Background(), "x", nil, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Step != 7 || res.State[0] != 1.5 || res.LogWeight != -2.25 {
		t.Fatalf("result %+v", res)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("%d attempts, want 3", n)
	}
	elapsed := time.Since(start)
	if elapsed < 10*time.Millisecond {
		t.Fatalf("two 5ms waits finished in %v — Retry-After-Ms not honored", elapsed)
	}
	if elapsed > 900*time.Millisecond {
		t.Fatalf("%v elapsed — client used the 1s Retry-After instead of the ms hint", elapsed)
	}
}

// TestClientBackoffWithoutHint checks the doubling fallback schedule
// and the attempt bound when the server sends no Retry-After headers.
func TestClientBackoffWithoutHint(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"draining"}`)
	}))
	defer ts.Close()

	c := NewClient(ClientConfig{
		BaseURL:     ts.URL,
		MaxAttempts: 4,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
	})
	_, err := c.Step(context.Background(), "x", nil, []float64{0})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("err %v, want APIError 503", err)
	}
	if apiErr.Message != "draining" {
		t.Fatalf("message %q", apiErr.Message)
	}
	if n := calls.Load(); n != 4 {
		t.Fatalf("%d attempts, want MaxAttempts=4", n)
	}
}

// TestClientDoesNotRetryTerminalErrors: 404 fails immediately and maps
// onto ErrNotFound across the wire.
func TestClientDoesNotRetryTerminalErrors(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"error":"no such session"}`)
	}))
	defer ts.Close()

	c := NewClient(ClientConfig{BaseURL: ts.URL})
	_, err := c.Step(context.Background(), "x", nil, []float64{0})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err %v, want ErrNotFound via errors.Is", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("%d attempts for a 404, want 1", n)
	}
}

// TestClientContextCancelsRetryWait: a context deadline interrupts the
// retry sleep rather than waiting out the server's hint.
func TestClientContextCancelsRetryWait(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After-Ms", "10000")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	c := NewClient(ClientConfig{BaseURL: ts.URL})
	start := time.Now()
	_, err := c.Step(ctx, "x", nil, []float64{0})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v — client waited out the 10s hint", elapsed)
	}
}

// TestClientEndToEnd drives a saturating real server through the retry
// client: every 429 is absorbed transparently and every session still
// matches its sequential reference bit-for-bit.
func TestClientEndToEnd(t *testing.T) {
	s, ts := newHTTPServer(t, Config{
		Workers:    2,
		QueueDepth: 1,
		MaxBatch:   1,
	})
	const sessions = 6
	const steps = 4
	// Depth-1 queue under 6-way contention: a single step can be shed
	// many times before admission, so give the client headroom.
	c := NewClient(ClientConfig{BaseURL: ts.URL, MaxAttempts: 200})
	ctx := context.Background()

	if err := c.Ready(ctx); err != nil {
		t.Fatalf("ready: %v", err)
	}

	ids := make([]string, sessions)
	for i := range ids {
		id, err := c.Create(ctx, FilterSpec{
			Model: "slow-ungm", SubFilters: 4, ParticlesPer: 32, Seed: uint64(200 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}

	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ref := refFilter(t, FilterSpec{Model: "ungm", SubFilters: 4, ParticlesPer: 32, Seed: uint64(200 + i)})
			for k := 1; k <= steps; k++ {
				z := obs(i, k)
				got, err := c.Step(ctx, ids[i], nil, z)
				if err != nil {
					errs <- fmt.Errorf("session %d step %d: %w", i, k, err)
					return
				}
				want := ref.Step(nil, z)
				if got.Step != k ||
					math.Float64bits(got.State[0]) != math.Float64bits(want.State[0]) ||
					math.Float64bits(got.LogWeight) != math.Float64bits(want.LogWeight) {
					errs <- fmt.Errorf("session %d step %d: %+v != reference %+v", i, k, got, want)
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

	if st := s.Stats(); st.BatchedSteps != sessions*steps {
		t.Fatalf("batched steps %d, want %d", st.BatchedSteps, sessions*steps)
	}
	if s.rejected.Load() > 0 {
		t.Logf("client absorbed %d saturation rejections transparently", s.rejected.Load())
	}

	// Estimate, Checkpoint and Close round-trip through the client too.
	est, err := c.Estimate(ctx, ids[0])
	if err != nil || est.Step != steps {
		t.Fatalf("estimate: %+v, %v", est, err)
	}
	cp, err := c.Checkpoint(ctx, ids[0])
	if err != nil || cp.Step != steps {
		t.Fatalf("checkpoint: %+v, %v", cp, err)
	}
	if err := c.Close(ctx, ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Estimate(ctx, ids[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("estimate after close: %v, want ErrNotFound", err)
	}
	if _, err := c.Checkpoint(ctx, ids[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("checkpoint after close: %v, want ErrNotFound", err)
	}
}
