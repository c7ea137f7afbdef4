package cluster_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"esthera/internal/cluster"
	"esthera/internal/rng"
	"esthera/internal/telemetry"
)

// TestClusterScrapeDuringFailures steps a cluster while a fault
// injector fails and restores nodes and two scrapers hammer /metrics,
// alternating a JSON Accept header that must not change the format —
// run under -race, this is the exposition-path race test for the
// cluster layer. Every body must pass the exposition-format lint,
// including mid-degradation ones.
func TestClusterScrapeDuringFailures(t *testing.T) {
	m, sc := armScenario(t)
	c := newCluster(t, m, 4)
	ts := httptest.NewServer(cluster.NewMetricsHandler(c))
	defer ts.Close()

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
		go func(w int) { // scrapers
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req, err := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
				if err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
				if (i+w)%2 == 0 {
					req.Header.Set("Accept", "application/json")
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("scrape: status %d err %v", resp.StatusCode, err)
					return
				}
				if err := telemetry.LintPrometheus(strings.NewReader(string(body))); err != nil {
					t.Errorf("prometheus lint mid-failure: %v", err)
					return
				}
			}
		}(w)
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

	// The final scrape must expose the per-node contribution series.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"esthera_cluster_rounds_total " + strconv.Itoa(rounds),
		`esthera_cluster_node_exchange_contrib_total{node="0"}`,
		`esthera_cluster_node_exchange_contrib_total{node="3"}`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("final scrape missing %q", want)
		}
	}
}
