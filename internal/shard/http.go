package shard

import (
	"context"
	"errors"
	"net/http"

	"esthera/internal/serve"
	"esthera/internal/telemetry"
)

// NewRouterHandler exposes a Router over the same JSON-over-HTTP
// surface as a single esthera-serve replica, plus the routing
// control plane:
//
//	POST   /v1/sessions                  {"spec": FilterSpec}   → {"id": ...}
//	GET    /v1/sessions                                         → {"sessions": [ids]}
//	GET    /v1/sessions/{id}                                    → last estimate
//	POST   /v1/sessions/{id}/step        {"u": [...], "z": [...]} → StepResult
//	DELETE /v1/sessions/{id}                                    → 204
//	GET    /v1/sessions/{id}/checkpoint                         → Checkpoint (the replica's own checkpoint read)
//	POST   /v1/sessions/{id}/migrate     {"target": "name"}     → {"shard": ...} ("" = least-loaded)
//	POST   /v1/rebalance                                        → {"moved": n}
//	GET    /v1/shards                                           → per-shard liveness/placement
//	GET    /metrics                                             → Prometheus text: router counters and
//	                                                              per-shard gauges (replicas serve their own)
//	GET    /trace                                               → drain router spans (Chrome JSON; ?format=raw)
//	POST   /trace                        {"enabled": bool}      → toggle span recording
//	GET    /logz                                                → drain structured log ring (JSON lines)
//	POST   /logz                         {"level": "..."}       → set log level
//	GET    /healthz                                             → 200 while up (body carries the build string)
//	GET    /readyz                                              → 200 with ≥1 live shard, else 503
//
// A W3C traceparent request header on a step joins the caller's trace;
// absent one, the router mints a fresh trace ID per step when tracing
// is enabled, and either way forwards the context downstream so the
// replica's spans share the trace.
//
// A serve.Client pointed at a router works unchanged: step and
// estimate requests forward to the owning replica, and the transient
// states the router introduces — session mid-migration, shard
// mid-failover — surface as 503 + Retry-After(-Ms), which that
// client's retry loop already rides out (both guarantee the step was
// not applied). A duplicate migration request is 409; an unknown
// session or shard is 404.
func NewRouterHandler(r *Router) http.Handler {
	reg := telemetry.NewRegistry()
	reg.RegisterCollector(routerCollector(r))
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, req *http.Request) {
		var body struct {
			Spec serve.FilterSpec `json:"spec"`
		}
		if !serve.ReadJSON(w, req, &body) {
			return
		}
		id, err := r.Create(req.Context(), body.Spec)
		if err != nil {
			routerError(w, r, err)
			return
		}
		serve.WriteJSON(w, http.StatusCreated, map[string]string{"id": id})
	})
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, req *http.Request) {
		serve.WriteJSON(w, http.StatusOK, map[string]any{"sessions": r.Sessions()})
	})
	mux.HandleFunc("GET /v1/sessions/{id}", func(w http.ResponseWriter, req *http.Request) {
		res, err := r.Estimate(req.Context(), req.PathValue("id"))
		if err != nil {
			routerError(w, r, err)
			return
		}
		serve.WriteJSON(w, http.StatusOK, serve.SanitizeResult(res))
	})
	mux.HandleFunc("POST /v1/sessions/{id}/step", func(w http.ResponseWriter, req *http.Request) {
		var body struct {
			U []float64 `json:"u"`
			Z []float64 `json:"z"`
		}
		if !serve.ReadJSON(w, req, &body) {
			return
		}
		ctx := req.Context()
		if tc, ok := telemetry.ParseTraceParent(req.Header.Get(telemetry.TraceHeader)); ok {
			ctx = telemetry.ContextWithTrace(ctx, tc)
		}
		res, err := r.Step(ctx, req.PathValue("id"), body.U, body.Z)
		if err != nil {
			routerError(w, r, err)
			return
		}
		serve.WriteJSON(w, http.StatusOK, serve.SanitizeResult(res))
	})
	mux.HandleFunc("DELETE /v1/sessions/{id}", func(w http.ResponseWriter, req *http.Request) {
		if err := r.CloseSession(req.Context(), req.PathValue("id")); err != nil {
			routerError(w, r, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /v1/sessions/{id}/checkpoint", func(w http.ResponseWriter, req *http.Request) {
		cp, err := r.Checkpoint(req.Context(), req.PathValue("id"))
		if err != nil {
			routerError(w, r, err)
			return
		}
		serve.WriteJSON(w, http.StatusOK, cp)
	})
	mux.HandleFunc("POST /v1/sessions/{id}/migrate", func(w http.ResponseWriter, req *http.Request) {
		var body struct {
			Target string `json:"target"`
		}
		if !serve.ReadJSON(w, req, &body) {
			return
		}
		id := req.PathValue("id")
		if err := r.Migrate(req.Context(), id, body.Target); err != nil {
			routerError(w, r, err)
			return
		}
		shard, _ := r.ShardOf(id)
		serve.WriteJSON(w, http.StatusOK, map[string]string{"id": id, "shard": shard})
	})
	mux.HandleFunc("POST /v1/rebalance", func(w http.ResponseWriter, req *http.Request) {
		moved := r.Rebalance(req.Context())
		serve.WriteJSON(w, http.StatusOK, map[string]int{"moved": moved})
	})
	mux.HandleFunc("GET /v1/shards", func(w http.ResponseWriter, req *http.Request) {
		serve.WriteJSON(w, http.StatusOK, map[string]any{"shards": r.Stats().Shards})
	})
	mux.Handle("GET /metrics", reg)
	mux.Handle("/trace", telemetry.TraceHandler(r.Tracer()))
	mux.Handle("/logz", r.logz)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, req *http.Request) {
		serve.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok", "build": telemetry.BuildString()})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, req *http.Request) {
		if !r.Ready() {
			serve.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no live shards"})
			return
		}
		serve.WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	return mux
}

// routerCollector renders one Router.Stats snapshot as esthera_router_*
// Prometheus samples, with per-shard liveness labeled by shard name. It
// reads only router state: a scrape never calls a replica.
func routerCollector(r *Router) telemetry.Collector {
	return func(e *telemetry.Emitter) {
		telemetry.CollectBuildInfo(e)
		r.sloStep.Collect(e, "route.step")
		st := r.Stats()
		e.Gauge("esthera_router_sessions", "Sessions routed by this router.", float64(st.Sessions))
		e.Gauge("esthera_router_sessions_parked", "Sessions with no live shard, held as checkpoints.", float64(st.Parked))
		e.Gauge("esthera_router_sessions_migrating", "Sessions with a transfer in flight.", float64(st.Migrating))
		e.Counter("esthera_router_steps_forwarded_total", "Steps forwarded to replicas.", float64(st.StepsForwarded))
		e.Counter("esthera_router_steps_held_total", "Steps answered retryable during a migration.", float64(st.StepsHeld))
		e.Counter("esthera_router_steps_rerouted_total", "Steps answered retryable because the owning shard failed.", float64(st.StepsRerouted))
		e.Counter("esthera_router_migrations_total", "Completed live migrations.", float64(st.Migrations))
		e.Counter("esthera_router_migration_errors_total", "Migrations that failed mid-protocol.", float64(st.MigrationErrors))
		e.Counter("esthera_router_failovers_total", "Shard failover events.", float64(st.Failovers))
		e.Counter("esthera_router_sessions_restored_total", "Sessions rehomed from a checkpoint.", float64(st.Restored))
		e.Counter("esthera_router_sessions_recreated_total", "Sessions rebuilt from spec (no checkpoint).", float64(st.Recreated))
		e.Counter("esthera_router_sessions_rebalanced_total", "Sessions moved by load rebalancing.", float64(st.Rebalanced))
		e.Counter("esthera_router_probes_total", "Health probes sent to replicas.", float64(st.Probes))
		e.Counter("esthera_router_probe_failures_total", "Health probes to replicas that failed.", float64(st.ProbeFailures))
		for _, sh := range st.Shards {
			up := 1.0
			if sh.Down {
				up = 0
			}
			e.Gauge("esthera_router_shard_up", "Shard liveness (1 = accepting placements).", up, "shard", sh.Name)
			e.Gauge("esthera_router_shard_sessions", "Sessions homed on the shard.", float64(sh.Sessions), "shard", sh.Name)
			e.Gauge("esthera_router_shard_clock_offset_seconds", "EWMA of replica clock minus router clock (NTP-style probe estimate).", float64(sh.ClockOffsetNS)/1e9, "shard", sh.Name)
			e.Gauge("esthera_router_shard_rtt_seconds", "EWMA of health probe round-trip time.", float64(sh.RTTNS)/1e9, "shard", sh.Name)
		}
	}
}

// routerError maps router and forwarded errors onto HTTP statuses.
// ErrMigrating/ErrShardDown are the router's own backpressure: 503
// with the Retry-After hint, shaped exactly like a replica's drain
// reply so serve.Client retries them transparently.
func routerError(w http.ResponseWriter, r *Router, err error) {
	var api *serve.APIError
	switch {
	case errors.Is(err, ErrMigrating), errors.Is(err, ErrShardDown), errors.Is(err, ErrNoLiveShards):
		serve.SetRetryAfter(w, r.RetryAfter())
		serve.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
	case errors.Is(err, ErrMigrationInFlight):
		serve.WriteJSON(w, http.StatusConflict, map[string]string{"error": err.Error()})
	case errors.Is(err, ErrUnknownShard):
		serve.WriteJSON(w, http.StatusNotFound, map[string]string{"error": err.Error()})
	case errors.Is(err, serve.ErrNotFound):
		serve.WriteJSON(w, http.StatusNotFound, map[string]string{"error": err.Error()})
	case errors.Is(err, context.Canceled):
		serve.WriteJSON(w, serve.StatusClientClosedRequest, map[string]string{"error": err.Error()})
	case errors.Is(err, context.DeadlineExceeded):
		serve.WriteJSON(w, http.StatusGatewayTimeout, map[string]string{"error": err.Error()})
	case errors.As(err, &api):
		// A replica's own reply (after the forwarding client's retries):
		// relay its status so the caller sees what the shard said, with
		// the router's hint on the retryable ones.
		if api.Status == http.StatusTooManyRequests || api.Status == http.StatusServiceUnavailable {
			serve.SetRetryAfter(w, r.RetryAfter())
		}
		serve.WriteJSON(w, api.Status, map[string]string{"error": api.Message})
	default:
		serve.WriteJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
	}
}
