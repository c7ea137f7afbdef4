package serve

import (
	"log/slog"

	"esthera/internal/telemetry"
)

// Observability accessors and the metrics collector unifying the
// serving layer's counters, per-session latency histograms, filter
// health and the device profile behind one registry gather.

// Tracer returns the server's span tracer. It is shared by the device
// (launch/phase spans), every session's pipeline (round spans) and the
// scheduler (batch/request spans), so one Drain yields the full
// cross-layer picture of a serving window.
func (s *Server) Tracer() *telemetry.Tracer { return s.tracer }

// Registry returns the server's metrics registry, served as /metrics;
// a gather renders one Stats() snapshot in Prometheus shape.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Logger returns the server's structured logger (ring-buffered,
// drained over /logz). Never nil.
func (s *Server) Logger() *slog.Logger { return s.log }

// collectMetrics is the registry collector: it renders one Stats()
// snapshot — the only read of serve state for exposition — under
// stable esthera_* names, next to the SLO tracker, the tracer's drop
// counter and the build info.
func (s *Server) collectMetrics(e *telemetry.Emitter) {
	st := s.Stats()
	telemetry.CollectBuildInfo(e)
	s.sloStep.Collect(e, "step")
	e.Counter("esthera_trace_dropped_events_total", "Span events overwritten by tracer ring overflow.", float64(s.tracer.Dropped()))
	e.Gauge("esthera_serve_ready", "1 while the server accepts steps.", b2f(st.Health.Ready))
	e.Gauge("esthera_serve_draining", "1 while a graceful drain is in progress.", b2f(st.Health.Draining))
	e.Gauge("esthera_serve_queue_depth", "Steps waiting in the admission queue.", float64(st.QueueDepth))
	e.Gauge("esthera_serve_queue_cap", "Admission queue capacity.", float64(st.QueueCap))
	e.Gauge("esthera_serve_inflight", "Admitted steps not yet delivered.", float64(st.Health.InFlight))
	e.Counter("esthera_serve_rejected_total", "Steps shed by admission control.", float64(st.Rejected))
	e.Counter("esthera_serve_cancelled_total", "Steps abandoned by caller context while queued.", float64(st.Health.Cancelled))
	e.Counter("esthera_serve_skipped_total", "Abandoned steps dropped at delivery time.", float64(st.Health.Skipped))
	e.Counter("esthera_serve_batches_total", "Scheduler batches executed.", float64(st.Batches))
	e.Counter("esthera_serve_batched_steps_total", "Steps executed across all batches.", float64(st.BatchedSteps))
	e.Gauge("esthera_serve_batch_latency_seconds", "EWMA of batch execution latency.", st.Health.BatchLatencyUS/1e6)
	e.Gauge("esthera_serve_retry_hint_seconds", "Back-off hint a saturated step would receive now.", st.Health.RetryAfterMS/1e3)
	e.Gauge("esthera_serve_sessions", "Open sessions.", float64(len(st.Sessions)))

	for _, sess := range st.Sessions {
		e.Counter("esthera_session_steps_total", "Filtering steps executed, by session.",
			float64(sess.Steps), "session", sess.ID)
		e.Histogram("esthera_step_latency_seconds", "End-to-end step latency (admission to delivery), by session.",
			sess.Latency, "session", sess.ID)
		h := sess.Health
		if h == nil {
			continue
		}
		e.Gauge("esthera_filter_ess", "Effective sample size at the last health sample.",
			h.ESS, "session", sess.ID)
		e.Gauge("esthera_filter_ess_frac", "ESS as a fraction of the particle count.",
			h.ESSFrac, "session", sess.ID)
		e.Gauge("esthera_filter_max_weight_ratio", "Largest normalized weight times N (1 = uniform, N = degenerate).",
			h.MaxWeightRatio, "session", sess.ID)
		e.Gauge("esthera_filter_resample_accept_ratio", "Fraction of groups the resampling policy fired for last round.",
			h.ResampleAccept, "session", sess.ID)
		e.Gauge("esthera_filter_health_round", "Round the health sample was taken at.",
			float64(h.Round), "session", sess.ID)
		e.Gauge("esthera_filter_non_finite_weights", "NaN/+Inf log-weights at the last health sample (poisoned filter indicator).",
			float64(h.NonFiniteWeights), "session", sess.ID)
	}

	st.Device.Collect(e)
}

func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}
