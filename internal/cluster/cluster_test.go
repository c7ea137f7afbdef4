package cluster_test

import (
	"math"
	"testing"

	"esthera/internal/cluster"
	"esthera/internal/exchange"
	"esthera/internal/filter"
	"esthera/internal/metrics"
	"esthera/internal/model"
	"esthera/internal/model/arm"
)

func armScenario(t *testing.T) (model.Model, model.Scenario) {
	t.Helper()
	m, sc, err := arm.NewScenario(arm.Config{}, arm.DefaultLemniscate())
	if err != nil {
		t.Fatal(err)
	}
	return m, sc
}

func newCluster(t *testing.T, m model.Model, nodes int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(m, cluster.Config{
		Nodes: nodes, SubFiltersPerNode: 16, ParticlesPer: 16,
		ExchangeCount: 1, WorkersPerNode: 2,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestValidation(t *testing.T) {
	m, _ := armScenario(t)
	bad := []cluster.Config{
		{Nodes: 0, SubFiltersPerNode: 4, ParticlesPer: 8},
		{Nodes: 2, SubFiltersPerNode: 0, ParticlesPer: 8},
		{Nodes: 2, SubFiltersPerNode: 4, ParticlesPer: 8, ExchangeCount: 4},
		{Nodes: 2, SubFiltersPerNode: 4, ParticlesPer: 8, ExchangeCount: -1},
	}
	for i, cfg := range bad {
		if _, err := cluster.New(m, cfg, 1); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestClusterTracksArm(t *testing.T) {
	m, sc := armScenario(t)
	c := newCluster(t, m, 4)
	if c.TotalParticles() != 4*16*16 {
		t.Fatalf("total particles %d", c.TotalParticles())
	}
	s := metrics.Run(c, sc, 60, 7)
	if tail := s.MeanAfter(30); tail > 0.25 {
		t.Fatalf("cluster trailing error %v, want < 0.25", tail)
	}
}

func TestClusterMatchesSingleNodeAccuracy(t *testing.T) {
	m, sc := armScenario(t)
	one := newCluster(t, m, 1)
	four := newCluster(t, m, 4)
	sOne := metrics.Run(one, sc, 50, 9)
	sFour := metrics.Run(four, sc, 50, 9)
	// Four nodes hold 4× the particles; they must not be meaningfully
	// worse than the single node.
	if sFour.MeanAfter(25) > 2*sOne.MeanAfter(25)+0.1 {
		t.Fatalf("4-node error %v far above 1-node %v", sFour.MeanAfter(25), sOne.MeanAfter(25))
	}
}

func TestInterNodeTrafficCounted(t *testing.T) {
	m, sc := armScenario(t)
	c := newCluster(t, m, 4)
	metrics.Run(c, sc, 10, 3)
	bytes, msgs := c.CommStats()
	// Ring of 64 sub-filters over 4 nodes: exactly 2 boundary pulls per
	// node per round → 8 messages/round.
	if msgs != 10*8 {
		t.Fatalf("messages = %d, want 80", msgs)
	}
	stride := int64(m.StateDim()+1) * 8
	if bytes != msgs*stride {
		t.Fatalf("bytes = %d, want %d", bytes, msgs*stride)
	}
	if c.PredictCommPerRound() <= 0 {
		t.Fatal("comm prediction must be positive for a multi-node cluster")
	}
	// Single node: no network traffic at all.
	c1 := newCluster(t, m, 1)
	metrics.Run(c1, sc, 10, 3)
	if b, _ := c1.CommStats(); b != 0 {
		t.Fatalf("single-node cluster sent %d bytes", b)
	}
	if c1.PredictCommPerRound() != 0 {
		t.Fatal("single-node comm prediction must be zero")
	}
}

func TestResetReproducible(t *testing.T) {
	m, sc := armScenario(t)
	c := newCluster(t, m, 2)
	a := metrics.Run(c, sc, 20, 5)
	c.Reset(1)
	b := metrics.Run(c, sc, 20, 5)
	for i := range a.Err {
		if a.Err[i] != b.Err[i] {
			t.Fatalf("cluster not reproducible at step %d", i)
		}
	}
}

func TestNodeFailureAndRecovery(t *testing.T) {
	m, sc := armScenario(t)
	c := newCluster(t, m, 4)

	var f filter.Filter = c
	// Warm up: converge.
	s := metrics.Run(f, sc, 40, 11)
	before := s.MeanAfter(30)

	// Kill half the cluster; the survivors must keep tracking.
	c.FailNode(1)
	c.FailNode(2)
	if c.FailedNodes() != 2 {
		t.Fatalf("failed nodes = %d", c.FailedNodes())
	}
	s2 := continueRun(c, sc, 41, 30, 11)
	during := mean(s2)

	// Restore; the stale nodes rejoin and get refreshed via exchange.
	c.RestoreNode(1)
	c.RestoreNode(2)
	s3 := continueRun(c, sc, 71, 40, 11)
	after := s3[len(s3)-20:]

	if during > 5*before+0.5 {
		t.Fatalf("tracking collapsed under node failure: %v vs %v before", during, before)
	}
	if m := mean(after); m > 5*before+0.5 {
		t.Fatalf("no recovery after restore: %v vs %v before", m, before)
	}
}

// continueRun advances an already-running filter against the scenario
// from step start (metrics.Run always starts at 1, so failure tests drive
// the loop directly).
func continueRun(c *cluster.Cluster, sc model.Scenario, start, steps int, seed uint64) []float64 {
	m := sc.Model()
	// Reuse the same measurement stream construction as metrics.Run so
	// sequences are comparable.
	s := metrics.Run(&offsetFilter{c}, &offsetScenario{sc, start - 1}, steps, seed)
	_ = m
	return s.Err
}

// offsetScenario shifts a scenario's time axis.
type offsetScenario struct {
	model.Scenario
	offset int
}

func (o *offsetScenario) TrueState(k int, x []float64) { o.Scenario.TrueState(k+o.offset, x) }
func (o *offsetScenario) Control(k int, u []float64)   { o.Scenario.Control(k+o.offset, u) }

// offsetFilter passes steps through without resetting.
type offsetFilter struct{ *cluster.Cluster }

func (o *offsetFilter) Reset(uint64) {} // keep running state

func mean(xs []float64) float64 {
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// TestDegradedModeKeepsEdgesLive is the degraded-mode contract: with a
// failed node under ring exchange the cluster keeps stepping every
// round, every live exchange lane reroutes to the next live sender (no
// frozen edges, no dropped lanes while live senders exist), and the
// degradation counters record it.
func TestDegradedModeKeepsEdgesLive(t *testing.T) {
	m, sc := armScenario(t)
	c := newCluster(t, m, 4)

	warm := metrics.Run(c, sc, 30, 13)
	before := mean(warm.Err[20:])
	h0 := c.Health()
	if h0.DegradedRounds != 0 || h0.ReroutedEdges != 0 || h0.DroppedEdges != 0 {
		t.Fatalf("healthy run recorded degradation: %+v", h0)
	}

	c.FailNode(1)
	s := continueRun(c, sc, 31, 20, 13)
	h := c.Health()
	if h.Nodes != 4 || h.FailedNodes != 1 || h.LiveNodes != 3 {
		t.Fatalf("node accounting: %+v", h)
	}
	if h.DegradedRounds != 20 {
		t.Fatalf("degraded rounds %d, want 20 (the cluster must step every round)", h.DegradedRounds)
	}
	// Ring receivers adjacent to the dead node's slice reroute past it:
	// 16 dead sub-filters, so the two flanking live sub-filters skip 16
	// hops — 2 rerouted edges per round.
	if h.ReroutedEdges != 2*20 {
		t.Fatalf("rerouted edges %d, want 40", h.ReroutedEdges)
	}
	if h.DroppedEdges != 0 {
		t.Fatalf("%d exchange lanes froze with 3 live nodes available", h.DroppedEdges)
	}
	if h.CommMessages == 0 {
		t.Fatal("degraded rounds sent no inter-node messages")
	}
	if during := mean(s); during > 5*before+0.5 {
		t.Fatalf("tracking collapsed in degraded mode: %v vs %v before", during, before)
	}
	c.RestoreNode(1)
	continueRun(c, sc, 51, 5, 13)
	if got := c.Health().Reseeds; got != 1 {
		t.Fatalf("reseeds %d, want 1", got)
	}
}

// TestTorusDegradedMode runs the same contract under the torus scheme.
func TestTorusDegradedMode(t *testing.T) {
	m, sc := armScenario(t)
	c, err := cluster.New(m, cluster.Config{
		Nodes: 4, SubFiltersPerNode: 16, ParticlesPer: 16,
		ExchangeCount: 1, WorkersPerNode: 2, Scheme: exchange.Torus2D,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := metrics.Run(c, sc, 40, 17)
	before := s.MeanAfter(25)
	if before > 0.25 {
		t.Fatalf("torus cluster trailing error %v, want < 0.25", before)
	}
	if _, msgs := c.CommStats(); msgs == 0 {
		t.Fatal("torus exchange produced no inter-node messages")
	}
	c.FailNode(2)
	s2 := continueRun(c, sc, 41, 20, 17)
	h := c.Health()
	if h.DegradedRounds != 20 || h.ReroutedEdges == 0 {
		t.Fatalf("torus degradation not recorded: %+v", h)
	}
	if h.DroppedEdges != 0 {
		t.Fatalf("%d torus lanes froze with 3 live nodes", h.DroppedEdges)
	}
	if during := mean(s2); during > 5*before+0.5 {
		t.Fatalf("torus tracking collapsed in degraded mode: %v vs %v", during, before)
	}
}

// TestSchemeValidation rejects topologies without directional structure
// and exchange volumes that overflow the per-scheme slot budget.
func TestSchemeValidation(t *testing.T) {
	m, _ := armScenario(t)
	if _, err := cluster.New(m, cluster.Config{
		Nodes: 2, SubFiltersPerNode: 4, ParticlesPer: 16, Scheme: exchange.AllToAll,
	}, 1); err == nil {
		t.Fatal("all-to-all scheme accepted")
	}
	// Torus pulls from 4 directions: 4t must stay below m.
	if _, err := cluster.New(m, cluster.Config{
		Nodes: 2, SubFiltersPerNode: 4, ParticlesPer: 8,
		ExchangeCount: 2, Scheme: exchange.Torus2D,
	}, 1); err == nil {
		t.Fatal("torus with 4t >= m accepted")
	}
}

// TestReseedOnRestoreConvergesFaster is the restore contract: a node
// that rejoins after the target moved on re-acquires faster when
// re-seeded from its live neighbors' top-t than when resurrected with
// its stale frozen particles. Both runs are deterministic; the
// comparison is the restored node's own local-best error over the
// rounds right after restore.
func TestReseedOnRestoreConvergesFaster(t *testing.T) {
	m, sc := armScenario(t)
	nodeErr := func(stale bool) []float64 {
		cfg := cluster.Config{
			Nodes: 4, SubFiltersPerNode: 16, ParticlesPer: 16,
			ExchangeCount: 1, WorkersPerNode: 2, StaleRestore: stale,
		}
		c, err := cluster.New(m, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Converge, then kill node 1 and let the target move on without it.
		metrics.Run(c, sc, 20, 19)
		c.FailNode(1)
		continueRun(c, sc, 21, 30, 19)
		c.RestoreNode(1)
		// The restored node's own error over the rounds right after
		// restore, one round at a time.
		var errs []float64
		for k := 0; k < 8; k++ {
			continueRun(c, sc, 51+k, 1, 19)
			state, _, ok := c.NodeEstimate(1)
			if !ok {
				t.Fatal("restored node did not participate")
			}
			ex, ey := m.TrackedPosition(state)
			truth := make([]float64, m.StateDim())
			sc.TrueState(51+k, truth)
			tx, ty := m.TrackedPosition(truth)
			errs = append(errs, hypot(ex-tx, ey-ty))
		}
		if stale && c.Health().Reseeds != 0 {
			t.Fatal("stale restore must not reseed")
		}
		if !stale && c.Health().Reseeds != 1 {
			t.Fatalf("reseeds = %d, want 1", c.Health().Reseeds)
		}
		return errs
	}
	reseeded := nodeErr(false)
	stale := nodeErr(true)
	if mean(reseeded) >= mean(stale) {
		t.Fatalf("re-seeded node error %v (mean %.4f) not below stale-restore %v (mean %.4f)",
			reseeded, mean(reseeded), stale, mean(stale))
	}
}

func hypot(a, b float64) float64 {
	return math.Sqrt(a*a + b*b)
}

// TestConcurrentFaultInjection runs FailNode/RestoreNode from a second
// goroutine while the cluster filter steps, as a live deployment would
// (failure detection is asynchronous to the filtering loop). Under
// `go test -race` this asserts the fault flags are properly
// synchronized; functionally it asserts the estimate survives the churn
// and recovers once all nodes are back.
func TestConcurrentFaultInjection(t *testing.T) {
	m, sc := armScenario(t)
	c := newCluster(t, m, 4)

	// Warm up so the filter has acquired the target.
	warm := metrics.Run(c, sc, 30, 7)
	before := mean(warm.Err[20:])

	// Churn node failures from a second goroutine while stepping.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			node := i % (c.Nodes() - 1) // node 0 .. n-2; never all at once
			c.FailNode(node)
			c.FailedNodes()
			c.RestoreNode(node)
			i++
		}
	}()
	continueRun(c, sc, 31, 40, 7)
	close(stop)
	<-done

	// All nodes restored: the filter must still track.
	if got := c.FailedNodes(); got != 0 {
		t.Fatalf("%d nodes still failed after churn", got)
	}
	after := continueRun(c, sc, 71, 30, 7)
	if m := mean(after[10:]); m > 5*before+0.5 {
		t.Fatalf("estimate did not recover after concurrent fault churn: %v vs %v before", m, before)
	}
}
