package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"esthera/internal/telemetry"
)

// NewHandler exposes a Server as a JSON-over-HTTP API (stdlib only):
//
//	POST   /v1/sessions                 {"spec": FilterSpec}        → {"id": ...}
//	GET    /v1/sessions                                             → {"sessions": [ids]}
//	GET    /v1/sessions/{id}                                        → last estimate
//	POST   /v1/sessions/{id}/step       {"u": [...], "z": [...]}    → StepResult
//	DELETE /v1/sessions/{id}                                        → 204
//	GET    /v1/sessions/{id}/checkpoint                             → Checkpoint
//	POST   /v1/restore                  Checkpoint                  → {"id": ...}
//	GET    /metrics                                                 → Prometheus text exposition of Stats
//	GET    /trace                                                   → drain recorded spans (Chrome trace JSON;
//	                                                                  ?format=raw for the wire format)
//	POST   /trace                       {"enabled": bool}           → toggle span recording
//	GET    /logz                                                    → drain structured log ring (JSON lines)
//	POST   /logz                        {"level": "debug"|...}      → set log level
//	GET    /healthz                                                 → 200 while up (body carries the build string)
//	GET    /readyz                                                  → 200 admitting, 503 draining/closed
//
// A W3C traceparent request header is parsed into the request context,
// so a step propagated from the router joins the caller's trace; without
// one a fresh trace ID is minted per step when tracing is enabled.
//
// Step requests run under the request context: a client disconnect or
// deadline cancels a still-queued step (the scheduler skips it without
// executing), surfacing as 499 (client closed request) or 504.
//
// Saturation maps to 429 with a Retry-After header (the adaptive
// admission hint, rounded up to whole seconds per RFC 9110, and in
// milliseconds — clamped to ≥ 1 so clients never busy-spin — in a
// Retry-After-Ms header); draining, closed and the session limit to 503
// with the same headers; unknown sessions to 404; invalid specs and
// malformed bodies to 400.
func NewHandler(s *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			Spec FilterSpec `json:"spec"`
		}
		if !ReadJSON(w, r, &body) {
			return
		}
		id, err := s.Create(body.Spec)
		if err != nil {
			WriteError(w, s, err)
			return
		}
		WriteJSON(w, http.StatusCreated, map[string]string{"id": id})
	})
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]any{"sessions": s.Sessions()})
	})
	mux.HandleFunc("GET /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		res, err := s.Estimate(r.PathValue("id"))
		if err != nil {
			WriteError(w, s, err)
			return
		}
		WriteJSON(w, http.StatusOK, SanitizeResult(res))
	})
	mux.HandleFunc("POST /v1/sessions/{id}/step", func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			U []float64 `json:"u"`
			Z []float64 `json:"z"`
		}
		if !ReadJSON(w, r, &body) {
			return
		}
		ctx := r.Context()
		if tc, ok := telemetry.ParseTraceParent(r.Header.Get(telemetry.TraceHeader)); ok {
			ctx = telemetry.ContextWithTrace(ctx, tc)
		}
		res, err := s.StepCtx(ctx, r.PathValue("id"), body.U, body.Z)
		if err != nil {
			WriteError(w, s, err)
			return
		}
		WriteJSON(w, http.StatusOK, SanitizeResult(res))
	})
	mux.HandleFunc("DELETE /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := s.Close(r.PathValue("id")); err != nil {
			WriteError(w, s, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /v1/sessions/{id}/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		cp, err := s.Checkpoint(r.PathValue("id"))
		if err != nil {
			WriteError(w, s, err)
			return
		}
		WriteJSON(w, http.StatusOK, cp)
	})
	mux.HandleFunc("POST /v1/restore", func(w http.ResponseWriter, r *http.Request) {
		var cp Checkpoint
		if !ReadJSON(w, r, &cp) {
			return
		}
		id, err := s.Restore(&cp)
		if err != nil {
			WriteError(w, s, err)
			return
		}
		WriteJSON(w, http.StatusCreated, map[string]string{"id": id})
	})
	mux.Handle("GET /metrics", s.reg)
	mux.Handle("/trace", telemetry.TraceHandler(s.tracer))
	mux.Handle("/logz", s.logz)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok", "build": telemetry.BuildString()})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.Ready() {
			// "closed" wins over "draining": the graceful path drains
			// first and shuts down after, and probes care about the
			// terminal state.
			status := "closed"
			if s.Draining() && !s.stopped() {
				status = "draining"
			}
			WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": status})
			return
		}
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	return mux
}

// The wire helpers below are shared with the shard router, which
// speaks the identical dialect: same step reply, same body limits,
// same error and back-off headers.

// StepReply is StepResult with the log-weight JSON-safe: encoding/json
// rejects ±Inf/NaN, and a just-created or fully degenerate session has
// LogWeight == -Inf. The bits field is always exact.
type StepReply struct {
	Step          int       `json:"step"`
	State         []float64 `json:"state"`
	LogWeight     *float64  `json:"log_weight,omitempty"`
	LogWeightBits uint64    `json:"log_weight_bits"`
}

// SanitizeResult converts a StepResult into its wire reply.
func SanitizeResult(res StepResult) StepReply {
	out := StepReply{
		Step:          res.Step,
		State:         res.State,
		LogWeightBits: math.Float64bits(res.LogWeight),
	}
	if !math.IsInf(res.LogWeight, 0) && !math.IsNaN(res.LogWeight) {
		lw := res.LogWeight
		out.LogWeight = &lw
	}
	return out
}

// ReadJSON decodes a request body into dst, answering 400 itself (and
// returning false) when the body is malformed, over 64 MiB, or carries
// a field dst does not declare: a spec or checkpoint field this server
// does not implement is rejected, never silently dropped.
func ReadJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		WriteJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("bad request body: %v", err)})
		return false
	}
	return true
}

// WriteJSON writes v as a JSON response with status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// StatusClientClosedRequest is nginx's non-standard 499: the client
// disconnected before the step was delivered. The response body is
// unlikely to be read; the code exists for access logs and middleware.
const StatusClientClosedRequest = 499

// SetRetryAfter attaches a back-off hint to a retryable reply: whole
// seconds in Retry-After and milliseconds in Retry-After-Ms, each
// clamped to ≥ 1.
func SetRetryAfter(w http.ResponseWriter, hint time.Duration) {
	secs := int64(hint.Seconds())
	if secs < 1 {
		secs = 1
	}
	ms := hint.Milliseconds()
	if ms < 1 {
		// A sub-millisecond hint truncates to 0, which tells
		// clients to retry immediately in a hot loop.
		ms = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	w.Header().Set("Retry-After-Ms", strconv.FormatInt(ms, 10))
}

// WriteError answers err with the serve API's status mapping: 429 for
// saturation and 503 for the session limit, draining and closed (both
// with s's back-off hint), 404 for an unknown session, 499 and 504 for a
// canceled or expired request, and 400 for anything else. The shard
// agent answers its control endpoints through it too.
func WriteError(w http.ResponseWriter, s *Server, err error) {
	var sat *SaturatedError
	switch {
	case errors.As(err, &sat):
		SetRetryAfter(w, sat.RetryAfter)
		WriteJSON(w, http.StatusTooManyRequests, map[string]string{"error": err.Error()})
	case errors.Is(err, ErrNotFound):
		WriteJSON(w, http.StatusNotFound, map[string]string{"error": err.Error()})
	case errors.Is(err, context.Canceled):
		WriteJSON(w, StatusClientClosedRequest, map[string]string{"error": err.Error()})
	case errors.Is(err, context.DeadlineExceeded):
		WriteJSON(w, http.StatusGatewayTimeout, map[string]string{"error": err.Error()})
	case errors.Is(err, ErrTooManySessions), errors.Is(err, ErrDraining), errors.Is(err, ErrClosed):
		SetRetryAfter(w, s.retryHint())
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
	default:
		WriteJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
	}
}
