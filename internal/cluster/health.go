package cluster

import (
	"net/http"
	"strconv"

	"esthera/internal/telemetry"
)

// HealthSnapshot is the cluster's degraded-mode introspection record:
// how many nodes are up, how often rounds ran degraded, and what the
// rerouting machinery did about it. All counters accumulate since New
// or the last Reset. It is an in-process view; Collect renders it into
// /metrics. Fields carry explicit json wire names (enforced by
// esthera-vet's checkpointcompat analyzer for every *Snapshot struct).
type HealthSnapshot struct {
	// Nodes, FailedNodes and LiveNodes describe the cluster right now.
	Nodes       int `json:"nodes"`
	FailedNodes int `json:"failed_nodes"`
	LiveNodes   int `json:"live_nodes"`
	// Rounds counts filtering rounds; DegradedRounds those stepped with
	// at least one node failed. The cluster keeps stepping every round
	// regardless — degradation reroutes edges, it never stalls them.
	Rounds         int64 `json:"rounds"`
	DegradedRounds int64 `json:"degraded_rounds"`
	// ReroutedEdges counts exchange pulls that skipped past at least one
	// failed node to a farther live sender; DroppedEdges counts pulls
	// with no live sender anywhere on the lane (receiver kept native
	// particles).
	ReroutedEdges int64 `json:"rerouted_edges"`
	DroppedEdges  int64 `json:"dropped_edges"`
	// Reseeds counts nodes re-seeded from live neighbors on restore.
	Reseeds int64 `json:"reseeds"`
	// TransportErrors counts inter-node exchange pulls dropped because
	// the attached Transport failed (each also counts in DroppedEdges).
	TransportErrors int64 `json:"transport_errors"`
	// CommBytes and CommMessages mirror CommStats.
	CommBytes    int64 `json:"comm_bytes"`
	CommMessages int64 `json:"comm_messages"`
	// ExchangeContrib counts, per node, how many exchange deliveries
	// that node's sub-filters donated. Under failures the live
	// neighbors of a hole contribute extra (rerouted receivers pull
	// from them), which this vector makes visible.
	ExchangeContrib []int64 `json:"exchange_contrib"`
}

// Health returns the degradation counters. Safe to call concurrently
// with Step (the counters are atomics; the fault flags take their own
// lock).
func (c *Cluster) Health() HealthSnapshot {
	failedN := c.FailedNodes()
	contrib := make([]int64, len(c.contrib))
	for i := range c.contrib {
		contrib[i] = c.contrib[i].Load()
	}
	return HealthSnapshot{
		Nodes:           c.cfg.Nodes,
		FailedNodes:     failedN,
		LiveNodes:       c.cfg.Nodes - failedN,
		Rounds:          c.rounds.Load(),
		DegradedRounds:  c.degradedRounds.Load(),
		ReroutedEdges:   c.reroutedEdges.Load(),
		DroppedEdges:    c.droppedEdges.Load(),
		Reseeds:         c.reseeds.Load(),
		TransportErrors: c.transportErrors.Load(),
		CommBytes:       c.commBytes.Load(),
		CommMessages:    c.commMsgs.Load(),
		ExchangeContrib: contrib,
	}
}

// Collect emits the health snapshot into a telemetry registry gather
// under the esthera_cluster_* names, unifying cluster introspection
// with the Prometheus exposition.
func (c *Cluster) Collect(e *telemetry.Emitter) {
	h := c.Health()
	e.Gauge("esthera_cluster_nodes", "Configured cluster size.", float64(h.Nodes))
	e.Gauge("esthera_cluster_failed_nodes", "Currently failed nodes.", float64(h.FailedNodes))
	e.Gauge("esthera_cluster_live_nodes", "Currently live nodes.", float64(h.LiveNodes))
	e.Counter("esthera_cluster_rounds_total", "Filtering rounds stepped.", float64(h.Rounds))
	e.Counter("esthera_cluster_degraded_rounds_total", "Rounds stepped with at least one node failed.", float64(h.DegradedRounds))
	e.Counter("esthera_cluster_rerouted_edges_total", "Exchange pulls rerouted past failed nodes.", float64(h.ReroutedEdges))
	e.Counter("esthera_cluster_dropped_edges_total", "Exchange pulls with no live sender on the lane.", float64(h.DroppedEdges))
	e.Counter("esthera_cluster_reseeds_total", "Nodes re-seeded from live neighbors on restore.", float64(h.Reseeds))
	e.Counter("esthera_cluster_transport_errors_total", "Inter-node exchange pulls dropped by transport failures.", float64(h.TransportErrors))
	e.Counter("esthera_cluster_comm_bytes_total", "Inter-node exchange payload bytes.", float64(h.CommBytes))
	e.Counter("esthera_cluster_comm_messages_total", "Inter-node exchange messages.", float64(h.CommMessages))
	for i, n := range h.ExchangeContrib {
		e.Counter("esthera_cluster_node_exchange_contrib_total",
			"Exchange deliveries donated, by sender node.",
			float64(n), "node", strconv.Itoa(i))
	}
}

// NewMetricsHandler exposes a cluster's health and degradation counters
// over HTTP, the same introspection shape the serving layer uses:
//
//	GET /metrics  → Prometheus text exposition of Health (esthera_cluster_*)
//	GET /healthz  → 200 while the process is up
//	GET /readyz   → 200 while any node is live, else 503
func NewMetricsHandler(c *Cluster) http.Handler {
	reg := telemetry.NewRegistry()
	reg.RegisterCollector(c.Collect)
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", reg)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte("{\"status\":\"ok\"}\n"))
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if c.FailedNodes() == c.Nodes() {
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = w.Write([]byte("{\"status\":\"no live nodes\"}\n"))
			return
		}
		_, _ = w.Write([]byte("{\"status\":\"ready\"}\n"))
	})
	return mux
}
