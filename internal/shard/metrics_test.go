package shard

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"esthera/internal/serve"
	"esthera/internal/telemetry"
)

// TestMetricsEndpointsServePrometheusOnly pins the /metrics contract of
// both introspection handlers: whatever the Accept header or the
// format query parameter asks for, the answer is 200 with the
// Prometheus text exposition, and the body passes the format lint.
func TestMetricsEndpointsServePrometheusOnly(t *testing.T) {
	rep := startReplica(t, "a")
	id, err := rep.srv.Create(serve.FilterSpec{Model: "ungm", SubFilters: 4, ParticlesPer: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.srv.Step(id, nil, obs(1)); err != nil {
		t.Fatal(err)
	}
	router := newTestRouter(t, RouterConfig{}, rep)

	handlers := []struct {
		name   string
		h      http.Handler
		series string // one family the endpoint must expose
	}{
		{"serve", serve.NewHandler(rep.srv), "esthera_serve_batches_total"},
		{"router", NewRouterHandler(router), "esthera_router_steps_forwarded_total"},
	}
	requests := []struct{ name, target, accept string }{
		{"no-accept", "/metrics", ""},
		{"accept-json", "/metrics", "application/json"},
		{"format-json", "/metrics?format=json", ""},
		{"format-prometheus", "/metrics?format=prometheus", ""},
	}
	for _, h := range handlers {
		for _, rq := range requests {
			t.Run(h.name+"/"+rq.name, func(t *testing.T) {
				req := httptest.NewRequest(http.MethodGet, rq.target, nil)
				if rq.accept != "" {
					req.Header.Set("Accept", rq.accept)
				}
				rec := httptest.NewRecorder()
				h.h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Fatalf("status %d", rec.Code)
				}
				if ct := rec.Header().Get("Content-Type"); ct != telemetry.PrometheusContentType {
					t.Fatalf("content type %q, want %q", ct, telemetry.PrometheusContentType)
				}
				body := rec.Body.String()
				if err := telemetry.LintPrometheus(strings.NewReader(body)); err != nil {
					t.Fatalf("lint: %v\n%s", err, body)
				}
				if !strings.Contains(body, "# TYPE "+h.series+" ") {
					t.Fatalf("body lacks %s:\n%s", h.series, body)
				}
			})
		}
	}
}

// TestRouterScrapeSendsNoReplicaRequests: the router's /metrics renders
// only its own registry — router counters plus the per-shard gauges —
// so a scrape sends no request to any replica (replicas are scraped at
// their own /metrics), and it still answers with every replica down.
func TestRouterScrapeSendsNoReplicaRequests(t *testing.T) {
	a := startReplica(t, "a")
	b := startReplica(t, "b")
	router := newTestRouter(t, RouterConfig{}, a, b)
	front := httptest.NewServer(NewRouterHandler(router))
	defer front.Close()
	ctx := context.Background()

	id, err := router.Create(ctx, serve.FilterSpec{Model: "ungm", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := router.Step(ctx, id, nil, obs(1)); err != nil {
		t.Fatal(err)
	}
	scrape := func() string {
		t.Helper()
		resp, err := http.Get(front.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("router /metrics: status %d: %s", resp.StatusCode, body)
		}
		if err := telemetry.LintPrometheus(strings.NewReader(string(body))); err != nil {
			t.Fatalf("router /metrics lint: %v", err)
		}
		return string(body)
	}

	before := a.hits.Load() + b.hits.Load()
	body := scrape()
	for _, want := range []string{
		"esthera_router_steps_forwarded_total 1",
		`esthera_router_shard_up{shard="a"} 1`,
		`esthera_router_shard_sessions{shard="b"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("router scrape missing %q", want)
		}
	}
	if n := a.hits.Load() + b.hits.Load() - before; n != 0 {
		t.Fatalf("router scrape sent %d replica requests, want 0", n)
	}

	a.kill()
	b.kill()
	scrape()
	if n := a.hits.Load() + b.hits.Load() - before; n != 0 {
		t.Fatalf("router scrapes sent %d replica requests, want 0", n)
	}
}
