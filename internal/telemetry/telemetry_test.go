package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestDisabledTracerZeroAlloc(t *testing.T) {
	tr := newTracer(2, 16)
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.Begin("cat", "name").Arg("k", 1).Arg("n", 2)
		sp.End()
		tr.Record(Event{Name: "pre", Cat: "c", Dur: time.Millisecond})
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocated %v per op, want 0", allocs)
	}
	var nilTr *Tracer
	allocs = testing.AllocsPerRun(100, func() {
		sp := nilTr.Begin("cat", "name").Arg("k", 1)
		sp.End()
		nilTr.Record(Event{Name: "x"})
		nilTr.SetEnabled(true)
	})
	if allocs != 0 {
		t.Fatalf("nil tracer allocated %v per op, want 0", allocs)
	}
	if got := tr.Drain(); len(got) != 0 {
		t.Fatalf("disabled tracer buffered %d events", len(got))
	}
}

// TestTracerRingsAllocatedOnFirstEnable pins the ring lifecycle: a new
// tracer holds no ring memory, the first enable allocates every ring
// once, and disable → drain → enable records into the same storage
// without allocating.
func TestTracerRingsAllocatedOnFirstEnable(t *testing.T) {
	tr := newTracer(2, 16)
	for i := range tr.shards {
		if c := cap(tr.shards[i].buf); c != 0 {
			t.Fatalf("ring %d holds %d events before the first enable, want none", i, c)
		}
	}
	tr.SetEnabled(true)
	rings := make([]*Event, len(tr.shards))
	for i := range tr.shards {
		buf := tr.shards[i].buf
		if cap(buf) != 16 {
			t.Fatalf("ring %d capacity %d after enable, want 16", i, cap(buf))
		}
		rings[i] = &buf[:1][0]
	}
	for i := 0; i < 8; i++ {
		tr.Record(Event{Name: "e", TS: time.Duration(i)})
	}
	tr.SetEnabled(false)
	if got := tr.Drain(); len(got) != 8 {
		t.Fatalf("drained %d events, want 8", len(got))
	}
	if allocs := testing.AllocsPerRun(10, func() {
		tr.SetEnabled(true)
		tr.Record(Event{Name: "again"})
		tr.SetEnabled(false)
	}); allocs != 0 {
		t.Fatalf("re-enabling allocated %v per run, want 0", allocs)
	}
	for i := range tr.shards {
		if buf := tr.shards[i].buf; cap(buf) != 16 || &buf[:1][0] != rings[i] {
			t.Fatalf("ring %d was reallocated by a later enable", i)
		}
	}
	if got := tr.Drain(); len(got) != 11 {
		t.Fatalf("drained %d events after re-enabling, want 11", len(got))
	}
}

// TestTracerConcurrentFirstEnable races the first enables against
// recording, draining and disabling: whichever enable allocates the
// rings, no goroutine records into a ring that is not there yet.
func TestTracerConcurrentFirstEnable(t *testing.T) {
	tr := newTracer(4, 64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.SetEnabled(i%10 != 9)
				tr.Begin("c", "n").End()
				tr.Record(Event{Name: "e"})
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			tr.Drain()
			tr.Dropped()
		}
	}()
	wg.Wait()
	for i := range tr.shards {
		if c := cap(tr.shards[i].buf); c != 64 {
			t.Fatalf("ring %d capacity %d, want 64", i, c)
		}
	}
}

func TestTracerRecordsAndDrains(t *testing.T) {
	tr := newTracer(1, 64)
	tr.SetEnabled(true)
	sp := tr.Begin("filter", "round").Arg("k", 7)
	time.Sleep(time.Millisecond)
	sp.End()
	tr.Record(Event{Name: "launch", Cat: "device", TS: 5, Dur: 10})
	got := tr.Drain()
	if len(got) != 2 {
		t.Fatalf("drained %d events, want 2", len(got))
	}
	// Sorted by TS: the pre-measured event at TS=5ns comes first only if
	// the span's TS is later — spans stamp wall offsets from epoch, which
	// are positive and large compared to 5ns.
	if got[0].Name != "launch" || got[1].Name != "round" {
		t.Fatalf("order = %s,%s", got[0].Name, got[1].Name)
	}
	if got[1].Dur < time.Millisecond {
		t.Fatalf("span dur = %v, want >= 1ms", got[1].Dur)
	}
	if got[1].Args[0] != (Arg{Name: "k", Value: 7}) {
		t.Fatalf("args = %+v", got[1].Args)
	}
	if got[0].TID == 0 || got[1].TID == 0 {
		t.Fatalf("events missing track ids: %+v", got)
	}
	if again := tr.Drain(); len(again) != 0 {
		t.Fatalf("second drain returned %d events", len(again))
	}
}

func TestTracerRingOverflow(t *testing.T) {
	tr := newTracer(1, 4)
	tr.SetEnabled(true)
	for i := 0; i < 10; i++ {
		tr.Record(Event{Name: "e", TS: time.Duration(i)})
	}
	got := tr.Drain()
	if len(got) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(got))
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
	// The newest events survive.
	for i, ev := range got {
		if want := time.Duration(6 + i); ev.TS != want {
			t.Fatalf("event %d TS = %d, want %d", i, ev.TS, want)
		}
	}
}

func TestTracerConcurrentRecord(t *testing.T) {
	tr := newTracer(4, 1024)
	tr.SetEnabled(true)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := tr.Begin("c", "n").Arg("i", int64(i))
				sp.End()
			}
		}()
	}
	wg.Wait()
	got := tr.Drain()
	if len(got)+int(tr.Dropped()) != 1600 {
		t.Fatalf("kept %d + dropped %d != 1600", len(got), tr.Dropped())
	}
}

func TestRecordBatchSharesTrack(t *testing.T) {
	tr := newTracer(4, 64)
	tr.SetEnabled(true)
	tr.RecordBatch([]Event{
		{Name: "fused", Cat: "device", TS: 0, Dur: 30},
		{Name: "rand", Cat: "phase", TS: 0, Dur: 10},
		{Name: "sampling", Cat: "phase", TS: 10, Dur: 20},
	})
	got := tr.Drain()
	if len(got) != 3 {
		t.Fatalf("drained %d, want 3", len(got))
	}
	if got[0].TID != got[1].TID || got[1].TID != got[2].TID {
		t.Fatalf("batch events on different tracks: %+v", got)
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	events := []Event{
		{Name: "round", Cat: "filter", TS: 1500 * time.Nanosecond, Dur: 2 * time.Millisecond, TID: 3,
			Args: [maxArgs]Arg{{Name: "k", Value: 4}}},
		{Name: "launch", Cat: "device", TS: 2 * time.Microsecond, Dur: time.Microsecond, TID: 1},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	// Valid Chrome trace-event JSON: object with traceEvents, every
	// complete event has ph "X" and numeric ts/dur in microseconds.
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("output is not chrome trace JSON: %v", err)
	}
	if len(trace.TraceEvents) != 3 { // metadata + 2 spans
		t.Fatalf("traceEvents len = %d, want 3", len(trace.TraceEvents))
	}
	back, err := ParseEvents(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("parsed %d events, want 2 (metadata skipped)", len(back))
	}
	if back[0].Name != "round" || back[0].Args[0].Value != 4 {
		t.Fatalf("round trip lost data: %+v", back[0])
	}
	// Chrome ts is microseconds: 1500ns rounds to 1.5us and back.
	if back[0].TS != 1500*time.Nanosecond {
		t.Fatalf("TS round trip = %v", back[0].TS)
	}
}

func TestRawEncodeParse(t *testing.T) {
	events := []Event{{Name: "a", Cat: "c", TS: 1, Dur: 2, TID: 1}}
	var buf bytes.Buffer
	if err := EncodeEvents(&buf, events, 5); err != nil {
		t.Fatal(err)
	}
	back, err := ParseEvents(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0] != events[0] {
		t.Fatalf("raw round trip = %+v", back)
	}
}

func TestSummarizeAndTop(t *testing.T) {
	events := []Event{
		{Name: "a", Cat: "x", Dur: 10},
		{Name: "b", Cat: "x", Dur: 100},
		{Name: "a", Cat: "x", Dur: 30},
	}
	sum := Summarize(events)
	if len(sum) != 2 || sum[0].Name != "b" || sum[1].Name != "a" {
		t.Fatalf("summary order: %+v", sum)
	}
	if sum[1].Count != 2 || sum[1].Total != 40 || sum[1].Max != 30 || sum[1].Mean() != 20 {
		t.Fatalf("summary a: %+v", sum[1])
	}
	top := Top(events, 2)
	if len(top) != 2 || top[0].Name != "b" || top[1].Dur != 30 {
		t.Fatalf("top: %+v", top)
	}
}

func TestRegistryGatherAndPrometheus(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewHistogram("esthera_test_latency_seconds", "latency", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(5)
	// Counters and gauges are collector samples, rendered from the
	// source's own state at gather time.
	reg.RegisterCollector(func(e *Emitter) {
		e.Counter("esthera_test_ops_total", "ops so far", 3)
		e.Gauge("esthera_test_depth", "queue depth", 7.5)
		e.Gauge("esthera_test_ess", "per-session ess", 42.5, "session", "s-1")
		e.Gauge("esthera_test_ess", "per-session ess", 17.25, "session", "s-2")
	})

	fams := reg.Gather()
	if len(fams) != 4 {
		t.Fatalf("gathered %d families, want 4", len(fams))
	}
	byName := map[string]Family{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	if f := byName["esthera_test_ess"]; len(f.Samples) != 2 || f.Samples[0].Labels[0].Value != "s-1" {
		t.Fatalf("collector family: %+v", f)
	}
	hist := byName["esthera_test_latency_seconds"].Samples[0]
	if hist.Count != 3 || hist.Buckets[3].Count != 3 || hist.Buckets[0].Count != 1 {
		t.Fatalf("histogram sample: %+v", hist)
	}
	if !math.IsInf(hist.Buckets[3].UpperBound, 1) {
		t.Fatalf("last bucket bound = %v", hist.Buckets[3].UpperBound)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE esthera_test_ops_total counter",
		"esthera_test_ops_total 3",
		"esthera_test_depth 7.5",
		`esthera_test_ess{session="s-1"} 42.5`,
		`esthera_test_latency_seconds_bucket{le="+Inf"} 3`,
		"esthera_test_latency_seconds_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, text)
		}
	}
	if err := LintPrometheus(strings.NewReader(text)); err != nil {
		t.Fatalf("lint: %v", err)
	}
}

func TestLintCatchesViolations(t *testing.T) {
	cases := map[string]string{
		"no TYPE":          "some_metric 1\n",
		"bad name":         "# TYPE 9bad counter\n9bad 1\n",
		"duplicate series": "# TYPE m gauge\nm 1\nm 2\n",
		"non-cumulative histogram": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" + `h_bucket{le="+Inf"} 3` + "\n" +
			"h_sum 1\nh_count 3\n",
		"missing +Inf": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" + "h_sum 1\nh_count 5\n",
		"count mismatch": "# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 3` + "\n" + "h_sum 1\nh_count 4\n",
		"counter without _total": "# TYPE ops counter\nops 1\n",
	}
	for name, text := range cases {
		if err := LintPrometheus(strings.NewReader(text)); err == nil {
			t.Errorf("%s: lint accepted invalid exposition:\n%s", name, text)
		}
	}
	valid := "# HELP ok_total fine\n# TYPE ok_total counter\n" +
		`ok_total{a="x",b="y z"} 12` + "\n"
	if err := LintPrometheus(strings.NewReader(valid)); err != nil {
		t.Errorf("lint rejected valid exposition: %v", err)
	}
}

func TestHealthFromLogWeights(t *testing.T) {
	// Uniform weights: ESS = N, max ratio = 1.
	uniform := []float64{-1, -1, -1, -1}
	h := HealthFromLogWeights(uniform, 2, 4)
	if math.Abs(h.ESS-4) > 1e-12 || math.Abs(h.ESSFrac-1) > 1e-12 {
		t.Fatalf("uniform ESS = %v (frac %v), want 4 (1)", h.ESS, h.ESSFrac)
	}
	if math.Abs(h.MaxWeightRatio-1) > 1e-12 {
		t.Fatalf("uniform max ratio = %v, want 1", h.MaxWeightRatio)
	}
	if h.ResampleAccept != 0.5 {
		t.Fatalf("resample accept = %v, want 0.5", h.ResampleAccept)
	}

	// One dominant particle: ESS -> 1, max ratio -> N.
	collapsed := []float64{0, -800, -800, -800}
	h = HealthFromLogWeights(collapsed, 0, 0)
	if math.Abs(h.ESS-1) > 1e-6 {
		t.Fatalf("collapsed ESS = %v, want ~1", h.ESS)
	}
	if math.Abs(h.MaxWeightRatio-4) > 1e-6 {
		t.Fatalf("collapsed max ratio = %v, want ~4", h.MaxWeightRatio)
	}

	// Fully degenerate weights report zeros rather than NaN.
	degenerate := []float64{math.Inf(-1), math.Inf(-1)}
	h = HealthFromLogWeights(degenerate, 0, 0)
	if h.ESS != 0 || h.MaxWeightRatio != 0 {
		t.Fatalf("degenerate health = %+v, want zeros", h)
	}
	if h.Particles != 2 {
		t.Fatalf("degenerate particles = %d", h.Particles)
	}

	// Empty input.
	if h := HealthFromLogWeights(nil, 0, 0); h != (FilterHealth{}) {
		t.Fatalf("empty health = %+v", h)
	}
}

// TestHealthFromLogWeightsNonFinite pins the poisoned-filter clamp: NaN
// or +Inf log-weights must yield the explicit fully-degenerate reading
// (ESS/ESSFrac/MaxWeightRatio all exactly 0 — never NaN, which some
// Prometheus scrapers reject in text exposition) and be counted in
// NonFiniteWeights so poisoning is distinguishable from benign
// all-underflow degeneracy.
func TestHealthFromLogWeightsNonFinite(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name       string
		logw       []float64
		wantNonFin int
	}{
		{"one-nan", []float64{0, nan, -1}, 1},
		{"all-nan", []float64{nan, nan}, 2},
		{"plus-inf", []float64{0, math.Inf(1)}, 1},
		{"nan-and-inf", []float64{nan, math.Inf(1), -2}, 2},
	}
	for _, c := range cases {
		h := HealthFromLogWeights(c.logw, 1, 2)
		if h.ESS != 0 || h.ESSFrac != 0 || h.MaxWeightRatio != 0 {
			t.Errorf("%s: health = %+v, want degenerate zeros", c.name, h)
		}
		if math.IsNaN(h.ESS) || math.IsNaN(h.ESSFrac) || math.IsNaN(h.MaxWeightRatio) {
			t.Errorf("%s: NaN leaked into health %+v", c.name, h)
		}
		if h.NonFiniteWeights != c.wantNonFin {
			t.Errorf("%s: NonFiniteWeights = %d, want %d", c.name, h.NonFiniteWeights, c.wantNonFin)
		}
		if h.Particles != len(c.logw) {
			t.Errorf("%s: particles = %d, want %d", c.name, h.Particles, len(c.logw))
		}
	}
	// Benign all-underflow stays distinguishable: degenerate but clean.
	h := HealthFromLogWeights([]float64{math.Inf(-1), math.Inf(-1)}, 0, 0)
	if h.NonFiniteWeights != 0 {
		t.Fatalf("-Inf underflow miscounted as poisoning: %+v", h)
	}
}
