package serve

import (
	"sort"

	"esthera/internal/device"
	"esthera/internal/telemetry"
)

// SessionStats is one session's introspection record.
type SessionStats struct {
	ID    string
	Steps int64
	// Latency is the end-to-end step latency histogram (seconds, over
	// the shared power-of-two-microsecond bounds).
	Latency telemetry.Sample
	// Health is the most recent stride-gated filter-health sample (ESS,
	// weight degeneracy, resample acceptance); nil until the first
	// sample is taken.
	Health *telemetry.FilterHealth
}

// HealthSnapshot is the server's robustness-layer introspection record:
// readiness, drain state, and the cancellation/backpressure counters.
// Fields carry explicit json wire names (enforced by esthera-vet's
// checkpointcompat analyzer for every *Snapshot struct).
type HealthSnapshot struct {
	// Ready and Draining mirror the /readyz state.
	Ready    bool `json:"ready"`
	Draining bool `json:"draining"`
	// InFlight counts admitted steps not yet delivered to their callers.
	InFlight int64 `json:"in_flight"`
	// Cancelled counts steps abandoned by their caller's context while
	// queued; Skipped is the scheduler's view — abandoned requests
	// dropped at delivery time without executing. Skipped can lag
	// Cancelled while an abandoned request still sits in the queue.
	Cancelled int64 `json:"cancelled"`
	Skipped   int64 `json:"skipped"`
	// RetryAfterMS is the adaptive back-off hint a saturated step would
	// receive right now; BatchLatencyUS is the EWMA of batch execution
	// latency it derives from (0 until the first batch runs).
	RetryAfterMS   float64 `json:"retry_after_ms"`
	BatchLatencyUS float64 `json:"batch_latency_us"`
}

// Stats is the server's in-process introspection snapshot. It is the
// one read of serve state: /metrics renders it (collectMetrics), the
// shard agent's health pong summarizes it.
type Stats struct {
	// Sessions lists per-session step counts and latency histograms,
	// sorted by id.
	Sessions []SessionStats
	// QueueDepth/QueueCap describe the admission queue right now.
	QueueDepth int
	QueueCap   int
	// Rejected counts steps shed by admission control since start.
	Rejected int64
	// Batches and BatchedSteps measure scheduler coalescing:
	// BatchedSteps/Batches is the mean batch size the device saw.
	Batches      int64
	BatchedSteps int64
	MeanBatch    float64
	// Health is the robustness-layer state: readiness, drain,
	// cancellation counters, and the adaptive backpressure hint.
	Health HealthSnapshot
	// Device is the shared device's kernel-breakdown profile.
	Device device.Stats
}

// Stats returns the introspection snapshot.
func (s *Server) Stats() Stats {
	s.mu.RLock()
	sessions := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.RUnlock()

	st := Stats{
		QueueDepth:   len(s.queue),
		QueueCap:     s.cfg.QueueDepth,
		Rejected:     s.rejected.Load(),
		Batches:      s.batches.Load(),
		BatchedSteps: s.batchedSteps.Load(),
		Health: HealthSnapshot{
			Ready:          s.Ready(),
			Draining:       s.draining.Load(),
			InFlight:       s.inflight.Load(),
			Cancelled:      s.cancelled.Load(),
			Skipped:        s.skipped.Load(),
			RetryAfterMS:   float64(s.retryHint().Microseconds()) / 1e3,
			BatchLatencyUS: float64(s.batchLatNS.Load()) / 1e3,
		},
		Device: s.dev.Profiler().Stats(),
	}
	if st.Batches > 0 {
		st.MeanBatch = float64(st.BatchedSteps) / float64(st.Batches)
	}
	for _, sess := range sessions {
		sess.mu.Lock()
		rec := SessionStats{ID: sess.id, Steps: sess.steps, Latency: sess.lat.Snapshot()}
		if sess.health.Round > 0 {
			h := sess.health
			rec.Health = &h
		}
		sess.mu.Unlock()
		st.Sessions = append(st.Sessions, rec)
	}
	sort.Slice(st.Sessions, func(i, j int) bool { return st.Sessions[i].ID < st.Sessions[j].ID })
	return st
}
