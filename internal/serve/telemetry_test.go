package serve

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"esthera/internal/filter"
	"esthera/internal/telemetry"
)

// scrape GETs url and returns body and content type. Errors are
// reported with Errorf (not Fatal) so it is safe from the concurrent
// scraper goroutine in TestConcurrentScrapeUnderLoad.
func scrape(t *testing.T, url, accept string) (string, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Errorf("scrape %s: %v", url, err)
		return "", ""
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Errorf("scrape %s: %v", url, err)
		return "", ""
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Errorf("scrape %s: %v", url, err)
		return "", ""
	}
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET %s: %d: %s", url, resp.StatusCode, body)
		return "", ""
	}
	return string(body), resp.Header.Get("Content-Type")
}

// promValue returns the value of one exposed series, named exactly as
// rendered: metric name plus label set, e.g.
// esthera_session_steps_total{session="s-1"}.
func promValue(body, series string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			return f, err == nil
		}
	}
	return 0, false
}

// TestStepLatencyBuckets pins the step-latency histogram to Prometheus
// less-or-equal bucket semantics: a step of exactly 1024 µs counts in
// le=0.001024, not the next bucket up, and a 10 s step — slower than
// the last finite bound (2^22 µs) — counts only in +Inf.
func TestStepLatencyBuckets(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	id, err := s.Create(FilterSpec{Model: "ungm", SubFilters: 2, ParticlesPer: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := s.lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	sess.recordStep(filter.Estimate{}, 1024*time.Microsecond)
	sess.recordStep(filter.Estimate{}, 10*time.Second)

	var hist *telemetry.Sample
	for _, f := range s.Registry().Gather() {
		if f.Name == "esthera_step_latency_seconds" && len(f.Samples) == 1 {
			hist = &f.Samples[0]
		}
	}
	if hist == nil {
		t.Fatal("no esthera_step_latency_seconds sample gathered")
	}
	want := map[float64]int64{
		latBoundsSeconds[9]:  0, // le=0.000512
		latBoundsSeconds[10]: 1, // le=0.001024: the exact-1024µs step
		latBoundsSeconds[22]: 1, // le=4.194304: not the 10 s step
		math.Inf(1):          2,
	}
	for _, b := range hist.Buckets {
		if w, ok := want[b.UpperBound]; ok {
			if b.Count != w {
				t.Errorf("bucket le=%g counts %d, want %d", b.UpperBound, b.Count, w)
			}
			delete(want, b.UpperBound)
		}
	}
	if len(want) != 0 {
		t.Errorf("buckets missing: %v", want)
	}
	if hist.Count != 2 {
		t.Errorf("count %d, want 2", hist.Count)
	}
}

// TestESSGaugePerSessionUpdates is the filter-health acceptance test:
// ESS and weight-degeneracy gauges appear per session and track the
// advancing rounds.
func TestESSGaugePerSessionUpdates(t *testing.T) {
	s, ts := newHTTPServer(t, Config{Workers: 2})
	ids := make([]string, 2)
	for i := range ids {
		id, err := s.Create(FilterSpec{Model: "ungm", SubFilters: 4, ParticlesPer: 16, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	step := func(rounds int) {
		for k := 1; k <= rounds; k++ {
			for i, id := range ids {
				if _, err := s.Step(id, nil, obs(i, k)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	gauge := func(body, name, id string) (float64, bool) {
		return promValue(body, fmt.Sprintf("%s{session=%q}", name, id))
	}

	step(4)
	body1, _ := scrape(t, ts.URL+"/metrics", "")
	step(3)
	body2, _ := scrape(t, ts.URL+"/metrics", "")

	for _, id := range ids {
		ess, ok := gauge(body1, "esthera_filter_ess", id)
		if !ok {
			t.Fatalf("no esthera_filter_ess for %s:\n%s", id, body1)
		}
		if ess <= 0 || ess > 4*16 {
			t.Errorf("%s: ESS %v out of (0, 64]", id, ess)
		}
		if frac, ok := gauge(body1, "esthera_filter_ess_frac", id); !ok || frac <= 0 || frac > 1 {
			t.Errorf("%s: ess_frac %v ok=%v, want in (0, 1]", id, frac, ok)
		}
		if ratio, ok := gauge(body1, "esthera_filter_max_weight_ratio", id); !ok || ratio < 1 {
			t.Errorf("%s: max_weight_ratio %v ok=%v, want >= 1", id, ratio, ok)
		}
		r1, ok1 := gauge(body1, "esthera_filter_health_round", id)
		r2, ok2 := gauge(body2, "esthera_filter_health_round", id)
		if !ok1 || !ok2 || r2 <= r1 {
			t.Errorf("%s: health round did not advance across scrapes: %v -> %v", id, r1, r2)
		}
	}
}

// TestConcurrentScrapeUnderLoad hammers /metrics (with and without a
// JSON Accept header, which must not change the format) and /trace
// while sessions step concurrently — run under -race, this is the
// data-race acceptance test for the whole exposition path.
func TestConcurrentScrapeUnderLoad(t *testing.T) {
	s, ts := newHTTPServer(t, Config{Workers: 4, Trace: true})
	ids := make([]string, 3)
	for i := range ids {
		id, err := s.Create(FilterSpec{Model: "ungm", SubFilters: 4, ParticlesPer: 16, Seed: uint64(i + 9)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}

	const rounds = 30
	var steppers sync.WaitGroup
	for i, id := range ids {
		steppers.Add(1)
		go func(i int, id string) {
			defer steppers.Done()
			for k := 1; k <= rounds; k++ {
				if _, err := s.Step(id, nil, obs(i, k)); err != nil {
					t.Errorf("step %s: %v", id, err)
					return
				}
			}
		}(i, id)
	}

	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			switch n % 4 {
			case 0, 1:
				accept := ""
				if n%4 == 1 {
					accept = "application/json"
				}
				body, _ := scrape(t, ts.URL+"/metrics", accept)
				if err := telemetry.LintPrometheus(strings.NewReader(body)); err != nil {
					t.Errorf("prometheus lint under load: %v", err)
					return
				}
			case 2:
				scrape(t, ts.URL+"/trace", "")
			case 3:
				resp, err := http.Post(ts.URL+"/trace", "application/json",
					bytes.NewReader([]byte(`{"enabled":true}`)))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}
	}()

	steppers.Wait()
	close(stop)
	scraper.Wait()

	for _, id := range ids {
		res, err := s.Estimate(id)
		if err != nil {
			t.Fatal(err)
		}
		if res.Step != rounds {
			t.Errorf("%s at step %d, want %d", id, res.Step, rounds)
		}
	}
}
