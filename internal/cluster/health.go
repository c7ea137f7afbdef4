package cluster

// HealthSnapshot is the cluster's degraded-mode introspection record:
// how many nodes are up, how often rounds ran degraded, and what the
// rerouting machinery did about it. All counters accumulate since New
// or the last Reset. It is an in-process view. Fields carry explicit
// json wire names (enforced by esthera-vet's checkpointcompat analyzer
// for every *Snapshot struct).
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
		CommBytes:       c.commBytes.Load(),
		CommMessages:    c.commMsgs.Load(),
		ExchangeContrib: contrib,
	}
}
