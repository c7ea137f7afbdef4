// Package cluster implements the paper's first future-work direction
// (§IX): scaling the distributed particle filter *up* from a single
// many-core device to a cluster of them.
//
// The design follows directly from the paper's argument: because every
// operation is local to a sub-filter except the thin particle exchange,
// the sub-filter network can be partitioned across nodes; only exchange
// edges that cross a node boundary become network messages. Each node
// runs its own device pipeline (rand → sampling → sort → estimate →
// resample) over a contiguous slice of the global ring of sub-filters,
// and the cluster layer performs the global exchange, counting inter-node
// traffic against a configurable network profile (latency + bandwidth) so
// experiments can predict communication cost on Gigabit Ethernet vs
// InfiniBand-class fabrics.
//
// The package also supports fault injection (FailNode/RestoreNode) with
// degraded-mode serving: a failed node stops computing, exchanging, and
// contributing to the estimate, but the surviving sub-filter network
// keeps every exchange edge live by rerouting around the hole — ring and
// torus receivers deterministically skip along their direction to the
// next live sender instead of freezing the lane. A restored node does
// not resurrect its stale particles: RestoreNode re-seeds the node from
// its live neighbors' current top-t particles, so the rejoining node
// starts from the survivors' posterior rather than a snapshot of where
// the target used to be. Health and degradation counters (rerouted and
// dropped edges, degraded rounds, reseeds) are published through
// Health(), which lets the experiments quantify how quickly the network
// re-acquires the target — a robustness property centralized filters do
// not have.
package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"esthera/internal/device"
	"esthera/internal/exchange"
	"esthera/internal/filter"
	"esthera/internal/kernels"
	"esthera/internal/model"
	"esthera/internal/rng"
	"esthera/internal/telemetry"
)

// NetworkProfile models the cluster interconnect for the communication-
// cost predictions.
type NetworkProfile struct {
	Name         string
	Latency      time.Duration // per message
	BandwidthGBs float64       // payload bandwidth
}

// GigabitEthernet returns a 1 GbE profile (~50 µs latency).
func GigabitEthernet() NetworkProfile {
	return NetworkProfile{Name: "1GbE", Latency: 50 * time.Microsecond, BandwidthGBs: 0.117}
}

// TenGigabitEthernet returns a 10 GbE profile.
func TenGigabitEthernet() NetworkProfile {
	return NetworkProfile{Name: "10GbE", Latency: 20 * time.Microsecond, BandwidthGBs: 1.17}
}

// InfiniBandQDR returns a QDR InfiniBand profile (~1.3 µs latency).
func InfiniBandQDR() NetworkProfile {
	return NetworkProfile{Name: "IB-QDR", Latency: 1300 * time.Nanosecond, BandwidthGBs: 4.0}
}

// Config parameterizes a cluster filter.
type Config struct {
	// Nodes is the cluster size.
	Nodes int
	// SubFiltersPerNode and ParticlesPer shape each node's network slice.
	SubFiltersPerNode int
	ParticlesPer      int
	// ExchangeCount is t for the global exchange.
	ExchangeCount int
	// Scheme is the global exchange topology over all S sub-filters:
	// exchange.Ring (the default; the zero value exchange.None selects
	// it) or exchange.Torus2D. Both have the directional structure
	// degraded-mode rerouting needs.
	Scheme exchange.Scheme
	// Network selects the interconnect profile (default GigabitEthernet).
	Network NetworkProfile
	// WorkersPerNode sizes each node's device (0 = 1: nodes in this
	// simulation share the host, so oversubscription is the caller's
	// choice).
	WorkersPerNode int
	// StaleRestore disables neighbor re-seeding on RestoreNode: the
	// rejoining node resumes from its frozen (stale) particles, the
	// pre-robustness behavior. Kept as an ablation knob so experiments
	// can measure what re-seeding buys.
	StaleRestore bool
}

// Cluster is a distributed particle filter partitioned over simulated
// cluster nodes. It implements filter.Filter.
type Cluster struct {
	cfg Config
	m   model.Model
	dim int

	nodes []*node
	// top is the global exchange topology over all S sub-filters; its
	// directional lanes drive both the healthy exchange and the
	// degraded-mode rerouting.
	top *exchange.Topology
	// failMu guards failed and reseed: fault injection
	// (FailNode/RestoreNode) may be called from a different goroutine
	// than Step, modeling failures that strike while a round is in
	// flight. Step snapshots the flags once at round start, so a
	// mid-round failure takes effect at the next round — a node cannot
	// half-participate in a round.
	failMu sync.Mutex
	failed []bool
	// reseed marks nodes restored since the last round: before the next
	// round's kernels they are re-seeded from live neighbors' top-t.
	reseed []bool
	seed   uint64
	k      int
	// lastBests holds each node's local best from the last round (read
	// by NodeEstimate; written only by Step).
	lastBests []nodeBest

	// Communication accounting (inter-node messages only) and the
	// degradation counters, atomics: Health() reads them while Step
	// runs.
	commBytes      atomic.Int64
	commMsgs       atomic.Int64
	rounds         atomic.Int64
	degradedRounds atomic.Int64
	reroutedEdges  atomic.Int64
	droppedEdges   atomic.Int64
	reseeds        atomic.Int64

	// contrib counts, per node, how many exchange deliveries that
	// node's sub-filters donated (its outbox records pulled by a
	// receiver). Atomics: Health() reads them while Step runs.
	contrib []atomic.Int64

	// tracer, when attached and enabled, records one span per round
	// plus per-phase child spans (reseed, local kernels, exchange,
	// resample) with degradation counters as span arguments.
	tracer atomic.Pointer[telemetry.Tracer]

	outbox []float64 // global staging: S·t·(dim+1)
}

// node is one cluster member: a device pipeline over its sub-filter slice.
type node struct {
	pipe *kernels.Pipeline
	dev  *device.Device
}

// New builds the cluster filter.
func New(m model.Model, cfg Config, seed uint64) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("cluster: non-positive node count %d", cfg.Nodes)
	}
	if cfg.SubFiltersPerNode <= 0 || cfg.ParticlesPer <= 0 {
		return nil, fmt.Errorf("cluster: invalid node shape %d×%d", cfg.SubFiltersPerNode, cfg.ParticlesPer)
	}
	if cfg.Scheme == exchange.None {
		cfg.Scheme = exchange.Ring
	}
	var degree int
	switch cfg.Scheme {
	case exchange.Ring:
		degree = 2
	case exchange.Torus2D:
		degree = 4
	default:
		return nil, fmt.Errorf("cluster: scheme %v lacks the directional structure degraded-mode rerouting needs (use ring or torus)", cfg.Scheme)
	}
	if cfg.ExchangeCount < 0 || degree*cfg.ExchangeCount >= cfg.ParticlesPer {
		return nil, fmt.Errorf("cluster: exchange count %d incompatible with sub-filter size %d under %v",
			cfg.ExchangeCount, cfg.ParticlesPer, cfg.Scheme)
	}
	if cfg.Network.Name == "" {
		cfg.Network = GigabitEthernet()
	}
	if cfg.WorkersPerNode <= 0 {
		cfg.WorkersPerNode = 1
	}
	c := &Cluster{cfg: cfg, m: m, dim: m.StateDim()}
	c.nodes = make([]*node, cfg.Nodes)
	c.failed = make([]bool, cfg.Nodes)
	c.reseed = make([]bool, cfg.Nodes)
	c.contrib = make([]atomic.Int64, cfg.Nodes)
	total := cfg.Nodes * cfg.SubFiltersPerNode
	gtop, err := exchange.NewTopology(cfg.Scheme, total)
	if err != nil {
		return nil, err
	}
	c.top = gtop
	c.outbox = make([]float64, total*max(cfg.ExchangeCount, 1)*(c.dim+1))
	for i := range c.nodes {
		dev := device.New(device.Config{Workers: cfg.WorkersPerNode, LocalMemBytes: -1})
		top, err := exchange.NewTopology(exchange.None, cfg.SubFiltersPerNode)
		if err != nil {
			return nil, err
		}
		pipe, err := kernels.New(dev, m, kernels.Config{
			SubFilters:   cfg.SubFiltersPerNode,
			ParticlesPer: cfg.ParticlesPer,
			Topology:     top,
		}, rng.StreamSeed(seed, i))
		if err != nil {
			return nil, err
		}
		c.nodes[i] = &node{pipe: pipe, dev: dev}
	}
	c.seed = seed
	return c, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Name implements filter.Filter.
func (c *Cluster) Name() string { return "cluster" }

// TotalParticles returns the global population size.
func (c *Cluster) TotalParticles() int {
	return c.cfg.Nodes * c.cfg.SubFiltersPerNode * c.cfg.ParticlesPer
}

// Reset implements filter.Filter.
func (c *Cluster) Reset(seed uint64) {
	c.seed = seed
	c.k = 0
	c.commBytes.Store(0)
	c.commMsgs.Store(0)
	c.rounds.Store(0)
	c.degradedRounds.Store(0)
	c.reroutedEdges.Store(0)
	c.droppedEdges.Store(0)
	c.reseeds.Store(0)
	for i := range c.contrib {
		c.contrib[i].Store(0)
	}
	for i, n := range c.nodes {
		n.pipe.Reset(rng.StreamSeed(seed, i))
	}
	c.failMu.Lock()
	for i := range c.failed {
		c.failed[i] = false
		c.reseed[i] = false
	}
	c.failMu.Unlock()
}

// FailNode freezes node i: it stops computing, exchanging and
// contributing to estimates until RestoreNode. Safe to call from a
// different goroutine than Step; the failure takes effect at the next
// round boundary.
func (c *Cluster) FailNode(i int) {
	c.failMu.Lock()
	defer c.failMu.Unlock()
	if i >= 0 && i < len(c.failed) {
		c.failed[i] = true
	}
}

// RestoreNode brings a failed node back. The node does not resume from
// its stale frozen particles: before its first round back it is
// re-seeded from its live neighbors' current top-t particles, so it
// rejoins at the survivors' posterior instead of where the target was
// when it died (Config.StaleRestore disables this for ablation). Safe
// to call from a different goroutine than Step; like failures, the
// restore takes effect at the next round boundary.
func (c *Cluster) RestoreNode(i int) {
	c.failMu.Lock()
	defer c.failMu.Unlock()
	if i >= 0 && i < len(c.failed) && c.failed[i] {
		c.failed[i] = false
		if !c.cfg.StaleRestore {
			c.reseed[i] = true
		}
	}
}

// FailedNodes returns the number of currently failed nodes.
func (c *Cluster) FailedNodes() int {
	c.failMu.Lock()
	defer c.failMu.Unlock()
	n := 0
	for _, f := range c.failed {
		if f {
			n++
		}
	}
	return n
}

// failedSnapshot copies the fault flags for one round's consistent view
// and claims the pending re-seed set: a node restored since the last
// round is re-seeded exactly once, before its first round back.
func (c *Cluster) failedSnapshot() (failed, pending []bool) {
	c.failMu.Lock()
	defer c.failMu.Unlock()
	failed = append([]bool(nil), c.failed...)
	pending = append([]bool(nil), c.reseed...)
	for i := range c.reseed {
		c.reseed[i] = false
	}
	return failed, pending
}

// Step implements filter.Filter: one global filtering round.
func (c *Cluster) Step(u, z []float64) filter.Estimate {
	c.k++
	c.rounds.Add(1)
	failed, pending := c.failedSnapshot()
	anyFailed := false
	liveN := 0
	for _, f := range failed {
		anyFailed = anyFailed || f
		if !f {
			liveN++
		}
	}
	if anyFailed {
		c.degradedRounds.Add(1)
	}
	tr := c.tracer.Load()
	degraded := int64(0)
	if anyFailed {
		degraded = 1
	}
	roundSp := tr.Begin("cluster", "round").Arg("k", int64(c.k)).Arg("degraded", degraded)

	// Phase 0: re-seed nodes restored since the last round from their
	// live neighbors' top-t, before any kernel touches their state.
	reseedSp := tr.Begin("cluster", "reseed")
	reseeded := int64(0)
	for i := range pending {
		if pending[i] && !failed[i] {
			c.reseedNode(i, failed, pending)
			reseeded++
		}
	}
	if reseeded > 0 {
		reseedSp.Arg("nodes", reseeded).End()
	}

	// Phase 1 (per node, concurrently): local kernels up to the sorted
	// state and the node-local best.
	localSp := tr.Begin("cluster", "local kernels").Arg("live_nodes", int64(liveN))
	bests := make([]nodeBest, len(c.nodes))
	var wg sync.WaitGroup
	for i, n := range c.nodes {
		if failed[i] {
			continue
		}
		wg.Add(1)
		go func(i int, n *node) {
			defer wg.Done()
			n.pipe.KernelRand()
			n.pipe.KernelSampleWeight(u, z, c.k)
			n.pipe.KernelSortLocal()
			state, lw := n.pipe.KernelEstimate()
			// The estimate buffer is pipeline-owned and reused next
			// round; lastBests outlives it, so copy.
			bests[i] = nodeBest{state: append([]float64(nil), state...), logw: lw, ok: true}
		}(i, n)
	}
	wg.Wait()
	localSp.End()

	// Phase 2: global ring exchange across the whole sub-filter network;
	// inter-node edges are counted as network traffic. The span records
	// this round's reroute/drop deltas, making degraded-mode reroutes
	// visible per round rather than only as cumulative counters.
	exchSp := tr.Begin("cluster", "exchange")
	rerBefore, drpBefore := c.reroutedEdges.Load(), c.droppedEdges.Load()
	c.exchangeGlobal(failed)
	exchSp.Arg("rerouted", c.reroutedEdges.Load()-rerBefore).
		Arg("dropped", c.droppedEdges.Load()-drpBefore).End()

	// Phase 3 (per node): local resampling.
	resSp := tr.Begin("cluster", "resample")
	for i, n := range c.nodes {
		if failed[i] {
			continue
		}
		wg.Add(1)
		go func(n *node) {
			defer wg.Done()
			n.pipe.KernelResample()
		}(n)
	}
	wg.Wait()
	resSp.End()
	roundSp.End()

	// Global estimate over surviving nodes.
	best := filter.Estimate{State: make([]float64, c.dim), LogWeight: negInf}
	for _, nb := range bests {
		if nb.ok && nb.logw > best.LogWeight {
			copy(best.State, nb.state)
			best.LogWeight = nb.logw
		}
	}
	c.lastBests = bests
	return best
}

// nodeBest is one node's local best from the last round's phase 1.
type nodeBest struct {
	state []float64
	logw  float64
	ok    bool
}

// NodeEstimate returns node i's local best from the most recent round:
// its state, log-weight, and whether the node participated (failed
// nodes do not). Not safe to call concurrently with Step; it exists for
// per-node convergence introspection in the failure experiments.
func (c *Cluster) NodeEstimate(i int) (state []float64, logw float64, ok bool) {
	if i < 0 || i >= len(c.lastBests) {
		return nil, negInf, false
	}
	nb := c.lastBests[i]
	return append([]float64(nil), nb.state...), nb.logw, nb.ok
}

const negInf = -1.7976931348623157e308

// exchangeGlobal performs the global exchange over all S sub-filters,
// under the round's snapshot of the fault flags. Each live sub-filter
// pulls its sender along every topology direction; when the immediate
// neighbor sits on a failed node the edge is rerouted — the receiver
// walks the direction's cycle to the next live sender — so no exchange
// edge freezes while any live sender exists. With no failures the
// rerouting degenerates to the plain neighbor pulls, bit-identically.
func (c *Cluster) exchangeGlobal(failed []bool) {
	t := c.cfg.ExchangeCount
	degree := c.top.Directions()
	if t == 0 || degree == 0 {
		return
	}
	spn := c.cfg.SubFiltersPerNode
	mp := c.cfg.ParticlesPer
	dim := c.dim
	stride := dim + 1
	S := c.cfg.Nodes * spn
	live := func(q int) bool { return !failed[q/spn] }
	anyFailed := false
	for _, f := range failed {
		anyFailed = anyFailed || f
	}
	// Stage every live sub-filter's top-t into the global outbox.
	for g := 0; g < S; g++ {
		nodeIdx := g / spn
		if failed[nodeIdx] {
			continue
		}
		local := g % spn
		pipe := c.nodes[nodeIdx].pipe
		lw := pipe.LogWeights()
		for i := 0; i < t; i++ {
			rec := c.outbox[(g*t+i)*stride : (g*t+i+1)*stride]
			pipe.ReadParticle(local, i, rec[:dim])
			rec[dim] = lw[local*mp+i]
		}
	}
	// Deliver: each live sub-filter pulls along every direction from the
	// first live sender on that direction's cycle. Lanes with no live
	// sender anywhere (every other node dead, or a degenerate torus
	// axis) keep native particles. Inter-node pulls are counted as
	// messages.
	for g := 0; g < S; g++ {
		nodeIdx := g / spn
		if failed[nodeIdx] {
			continue
		}
		local := g % spn
		pipe := c.nodes[nodeIdx].pipe
		lw := pipe.LogWeights()
		slot := mp - degree*t
		for dir := 0; dir < degree; dir++ {
			q := c.top.RouteLive(g, dir, live)
			if q < 0 {
				if anyFailed {
					c.droppedEdges.Add(1)
				}
				slot += t
				continue
			}
			if q != c.top.Walk(g, dir) {
				c.reroutedEdges.Add(1)
			}
			qNode := q / spn
			recs := c.outbox[(q * t * stride) : (q*t+t)*stride]
			if qNode != nodeIdx {
				c.commMsgs.Add(1)
				c.commBytes.Add(int64(t * stride * 8))
			}
			c.contrib[qNode].Add(1)
			for i := 0; i < t; i++ {
				rec := recs[i*stride : (i+1)*stride]
				pipe.WriteParticle(local, slot, rec[:dim])
				lw[local*mp+slot] = rec[dim]
				slot++
			}
		}
	}
}

// reseedNode replaces a restored node's stale particles with copies of
// its live neighbors' current top-t: for each of the node's sub-filters
// the donors are the first live sender along every topology direction
// (skipping failed nodes and nodes restored in this same round, whose
// state is equally stale), and the donors' top-t records are tiled
// deterministically across all m particle slots. With no live donor
// anywhere the stale particles are kept — there is nothing better.
func (c *Cluster) reseedNode(nodeIdx int, failed, pending []bool) {
	spn := c.cfg.SubFiltersPerNode
	mp := c.cfg.ParticlesPer
	dim := c.dim
	t := max(c.cfg.ExchangeCount, 1)
	donorOK := func(q int) bool {
		n := q / spn
		return !failed[n] && !pending[n] && n != nodeIdx
	}
	pipe := c.nodes[nodeIdx].pipe
	lw := pipe.LogWeights()
	degree := c.top.Directions()
	reseeded := false
	tmp := make([]float64, dim)
	for local := 0; local < spn; local++ {
		g := nodeIdx*spn + local
		// Gather the donor pool: top-t of each direction's nearest donor.
		states := make([]float64, 0, degree*t*dim)
		weights := make([]float64, 0, degree*t)
		for dir := 0; dir < degree; dir++ {
			q := c.top.RouteLive(g, dir, donorOK)
			if q < 0 {
				continue
			}
			donor := c.nodes[q/spn].pipe
			qlw := c.nodes[q/spn].pipe.LogWeights()
			for i := 0; i < t; i++ {
				donor.ReadParticle(q%spn, i, tmp)
				states = append(states, tmp...)
				weights = append(weights, qlw[(q%spn)*mp+i])
			}
		}
		if len(weights) == 0 {
			continue
		}
		for s := 0; s < mp; s++ {
			d := s % len(weights)
			pipe.WriteParticle(local, s, states[d*dim:(d+1)*dim])
			lw[local*mp+s] = weights[d]
		}
		reseeded = true
	}
	if reseeded {
		c.reseeds.Add(1)
	}
}

// CommStats returns the accumulated inter-node traffic.
func (c *Cluster) CommStats() (bytes, messages int64) {
	return c.commBytes.Load(), c.commMsgs.Load()
}

// PredictCommPerRound converts the measured per-round traffic into a
// communication-time prediction under the configured network profile.
// Messages from different node pairs overlap; the cost is the busiest
// node's share (each node exchanges with two neighbor nodes per round).
func (c *Cluster) PredictCommPerRound() time.Duration {
	rounds := c.rounds.Load()
	if rounds == 0 || c.cfg.Nodes == 1 {
		return 0
	}
	msgsPerRound := float64(c.commMsgs.Load()) / float64(rounds)
	bytesPerRound := float64(c.commBytes.Load()) / float64(rounds)
	live := float64(c.cfg.Nodes - c.FailedNodes())
	if live == 0 {
		return 0
	}
	perNodeMsgs := msgsPerRound / live
	perNodeBytes := bytesPerRound / live
	sec := perNodeMsgs*c.cfg.Network.Latency.Seconds() + perNodeBytes/(c.cfg.Network.BandwidthGBs*1e9)
	return time.Duration(sec * float64(time.Second))
}

// SetTracer attaches a span tracer; each round records a parent span
// plus reseed/local/exchange/resample phase spans. Pass nil to detach.
// Safe to call concurrently with Step.
func (c *Cluster) SetTracer(tr *telemetry.Tracer) { c.tracer.Store(tr) }

// Nodes returns the node count.
func (c *Cluster) Nodes() int { return c.cfg.Nodes }

// NodeProfiler exposes node i's device profiler (for scaling experiments).
func (c *Cluster) NodeProfiler(i int) *device.Profiler { return c.nodes[i].dev.Profiler() }

var _ filter.Filter = (*Cluster)(nil)
