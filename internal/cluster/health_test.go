package cluster_test

import (
	"sync"
	"testing"

	"esthera/internal/rng"
)

// TestClusterHealthDuringFailures steps a cluster while a fault injector
// fails and restores nodes and two readers take Health snapshots. Run
// under -race, it is the race test for the counters and fault flags
// Health reads while Step writes them; every snapshot must also be
// self-consistent mid-degradation.
func TestClusterHealthDuringFailures(t *testing.T) {
	m, sc := armScenario(t)
	c := newCluster(t, m, 4)

	const rounds = 40
	stop := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // fault injector
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			node := i % 4
			c.FailNode(node)
			c.RestoreNode(node)
		}
	}()

	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() { // readers
			defer wg.Done()
			var last int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				h := c.Health()
				if h.Nodes != 4 || h.FailedNodes+h.LiveNodes != h.Nodes || len(h.ExchangeContrib) != 4 {
					t.Errorf("inconsistent snapshot mid-failure: %+v", h)
					return
				}
				if h.Rounds < last || h.DegradedRounds > h.Rounds {
					t.Errorf("rounds went from %d to %d (%d degraded)", last, h.Rounds, h.DegradedRounds)
					return
				}
				last = h.Rounds
			}
		}()
	}

	truth := make([]float64, m.StateDim())
	z := make([]float64, m.MeasurementDim())
	u := make([]float64, m.ControlDim())
	measR := rng.New(rng.NewPhiloxStream(21, 0xC0DE))
	for k := 1; k <= rounds; k++ {
		sc.TrueState(k, truth)
		sc.Control(k, u)
		m.Measure(z, truth, measR)
		c.Step(u, z)
	}
	close(stop)
	wg.Wait()

	h := c.Health()
	if h.Rounds != rounds {
		t.Errorf("rounds %d, want %d", h.Rounds, rounds)
	}
	if len(h.ExchangeContrib) != 4 {
		t.Fatalf("exchange contrib vector has %d entries, want 4", len(h.ExchangeContrib))
	}
	var total int64
	for _, n := range h.ExchangeContrib {
		total += n
	}
	if total == 0 {
		t.Error("no exchange contributions recorded across the run")
	}
}
