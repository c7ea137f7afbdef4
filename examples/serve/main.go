// Serving: start the multi-session estimation server in-process, run
// several concurrent tracking sessions through the retrying API client,
// checkpoint one mid-run, restore it, and show that the restored
// session replays bit-identically. Finish with a graceful drain:
// readiness flips to 503 while in-flight steps complete. The same API
// is served standalone by cmd/esthera-serve.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"

	"esthera"
)

func main() {
	// An in-process server over the builtin model registry; in production
	// this is `esthera-serve` on its own host.
	s := esthera.NewServer(esthera.ServerConfig{Workers: 4})
	defer s.Shutdown()
	ts := httptest.NewServer(esthera.NewServerHandler(s))
	defer ts.Close()
	ctx := context.Background()

	// The retry client absorbs 429 backpressure using the server's own
	// adaptive Retry-After hints, so callers never hand-roll retry loops.
	client := esthera.NewServerClient(esthera.ClientConfig{BaseURL: ts.URL})
	if err := client.Ready(ctx); err != nil {
		log.Fatal(err)
	}

	// Eight concurrent sessions tracking the univariate nonstationary
	// growth model, each with its own seed and observation stream.
	const sessions = 8
	const steps = 20
	ids := make([]string, sessions)
	for i := range ids {
		id, err := client.Create(ctx, esthera.FilterSpec{
			Model: "ungm", SubFilters: 16, ParticlesPer: 64, Seed: uint64(i + 1),
		})
		if err != nil {
			log.Fatal(err)
		}
		ids[i] = id
	}
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			for k := 1; k <= steps; k++ {
				z := []float64{10 * math.Sin(float64(k)*0.3+float64(i))}
				if _, err := client.Step(ctx, id, nil, z); err != nil {
					log.Fatal(err)
				}
			}
		}(i, id)
	}
	wg.Wait()

	// Checkpoint session 0, restore it as a new session, and verify both
	// produce identical estimates on the next observation.
	var cp json.RawMessage
	get(ts.URL+"/v1/sessions/"+ids[0]+"/checkpoint", &cp)
	var restored struct {
		ID string `json:"id"`
	}
	post(ts.URL+"/v1/restore", cp, &restored)
	z := []float64{3.25}
	a, err := client.Step(ctx, ids[0], nil, z)
	if err != nil {
		log.Fatal(err)
	}
	b, err := client.Step(ctx, restored.ID, nil, z)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("original  %s: step %d estimate %.6f\n", ids[0], a.Step, a.State[0])
	fmt.Printf("restored  %s: step %d estimate %.6f\n", restored.ID, b.Step, b.State[0])
	if math.Float64bits(a.State[0]) != math.Float64bits(b.State[0]) {
		log.Fatal("restored session diverged")
	}
	fmt.Println("restored session replays bit-identically")

	// Introspection, in-process: per-session latency, the device kernel
	// breakdown, and the robustness-layer health counters. Over HTTP the
	// same snapshot is the Prometheus text at /metrics.
	st := s.Stats()
	fmt.Printf("sessions=%d mean batch=%.1f rejected=%d\n", len(st.Sessions), st.MeanBatch, st.Rejected)
	fmt.Printf("health: ready=%v in-flight=%d cancelled=%d retry-after=%.2fms batch-latency=%.0fµs\n",
		st.Health.Ready, st.Health.InFlight, st.Health.Cancelled, st.Health.RetryAfterMS, st.Health.BatchLatencyUS)
	for _, k := range st.Device.Kernels {
		fmt.Printf("  kernel %-16s launches=%-5d elapsed=%v\n", k.Name, k.Launches, k.Elapsed)
	}

	// Graceful drain: admission stops (new steps fail with ErrDraining,
	// /readyz goes 503 so load balancers route around the node) while
	// already-admitted steps complete and deliver.
	if err := s.Drain(ctx); err != nil {
		log.Fatal(err)
	}
	if _, err := s.Step(ids[1], nil, z); !errors.Is(err, esthera.ErrServerDraining) {
		log.Fatalf("step while draining: %v, want ErrServerDraining", err)
	}
	if err := client.Ready(ctx); err == nil {
		log.Fatal("drained server still reports ready")
	}
	fmt.Println("drained: admission stopped, readiness 503, in-flight work delivered")
}

func post(url string, body, out any) {
	buf, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		log.Fatalf("POST %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}

func get(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		log.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}
