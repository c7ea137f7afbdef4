package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// Metrics registry: the one metrics model behind every /metrics
// endpoint. Long-lived histograms are owned by the registry;
// snapshot-style sources (serve Stats, router Stats, cluster
// HealthSnapshot, device Profiler stats) plug in as Collectors that
// render the one in-process snapshot their source builds at gather
// time, counters and gauges included. Gather produces one merged,
// sorted family list, and the Prometheus text exposition (prom.go) is
// its only wire format.

// Metric family types, matching Prometheus exposition TYPE values.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// Histogram counts observations into explicit buckets. Bounds are the
// inclusive upper edges of the finite buckets; an implicit +Inf bucket
// catches the rest.
type Histogram struct {
	bounds []float64
	mu     sync.Mutex
	counts []int64
	sum    float64
	count  int64
}

// NewHistogram builds a standalone histogram over the given finite,
// strictly increasing bucket bounds. The bounds are shared, not copied,
// so many histograms can use one slice; it must not change afterwards.
// A source that keeps one histogram per entity, such as serve's
// per-session step latency, holds these and emits their Snapshot from
// its collector; Registry.NewHistogram registers one directly.
func NewHistogram(bounds []float64) *Histogram {
	for i, v := range bounds {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			panic(fmt.Sprintf("telemetry: histogram bound %d not finite", i))
		}
		if i > 0 && bounds[i-1] >= v {
			panic(fmt.Sprintf("telemetry: histogram bounds not increasing at %d", i))
		}
	}
	return &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// Snapshot returns the histogram's state as an unlabelled gathered
// sample: cumulative bucket counts per finite bound, then the +Inf
// bucket, plus the observation sum and count.
func (h *Histogram) Snapshot() Sample {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := Sample{Buckets: make([]HistBucket, len(h.counts)), Sum: h.sum, Count: h.count}
	var run int64
	for i, c := range h.counts {
		run += c
		le := math.Inf(1)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		s.Buckets[i] = HistBucket{UpperBound: le, Count: run}
	}
	return s
}

// HistBucket is one cumulative histogram bucket in a gathered Family.
type HistBucket struct {
	UpperBound float64
	Count      int64
}

// Sample is one exposed series: a label set plus either a scalar value
// or a histogram snapshot.
type Sample struct {
	Labels  []Label
	Value   float64
	Buckets []HistBucket
	Sum     float64
	Count   int64
}

// Label is one name/value pair on a Sample.
type Label struct {
	Name  string
	Value string
}

// Family is every sample sharing one metric name.
type Family struct {
	Name    string
	Help    string
	Type    string
	Samples []Sample
}

// Collector emits point-in-time samples into an Emitter at gather
// time; snapshot-style sources (profiler stats, health snapshots)
// implement exposition this way instead of mirroring state into owned
// instruments.
type Collector func(e *Emitter)

// Registry holds owned histograms and gather-time collectors.
type Registry struct {
	mu         sync.Mutex
	owned      []*ownedFamily
	ownedByKey map[string]*ownedFamily
	collectors []Collector
}

type ownedFamily struct {
	name, help string
	hist       *Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{ownedByKey: make(map[string]*ownedFamily)}
}

// NewHistogram registers and returns an owned histogram with the given
// finite bucket bounds. Registering the same name twice returns the
// original instrument.
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.ownedByKey[name]; ok {
		return f.hist
	}
	f := &ownedFamily{name: name, help: help, hist: NewHistogram(bounds)}
	r.owned = append(r.owned, f)
	r.ownedByKey[name] = f
	return f.hist
}

// RegisterCollector adds a gather-time sample source.
func (r *Registry) RegisterCollector(c Collector) {
	r.mu.Lock()
	r.collectors = append(r.collectors, c)
	r.mu.Unlock()
}

// Emitter receives samples during a gather. Methods may be called with
// repeated names (different label sets); samples merge into one family
// per name.
type Emitter struct {
	idx      map[string]int
	families []Family
}

func (e *Emitter) family(name, help, typ string) *Family {
	if i, ok := e.idx[name]; ok {
		return &e.families[i]
	}
	e.idx[name] = len(e.families)
	e.families = append(e.families, Family{Name: name, Help: help, Type: typ})
	return &e.families[len(e.families)-1]
}

// labelPairs converts alternating name,value strings.
func labelPairs(kv []string) []Label {
	if len(kv)%2 != 0 {
		panic("telemetry: odd label list")
	}
	if len(kv) == 0 {
		return nil
	}
	out := make([]Label, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		out = append(out, Label{Name: kv[i], Value: kv[i+1]})
	}
	return out
}

// Counter emits one counter sample. labels are alternating name,value.
func (e *Emitter) Counter(name, help string, v float64, labels ...string) {
	f := e.family(name, help, TypeCounter)
	f.Samples = append(f.Samples, Sample{Labels: labelPairs(labels), Value: v})
}

// Gauge emits one gauge sample.
func (e *Emitter) Gauge(name, help string, v float64, labels ...string) {
	f := e.family(name, help, TypeGauge)
	f.Samples = append(f.Samples, Sample{Labels: labelPairs(labels), Value: v})
}

// Histogram emits one histogram sample, a Histogram.Snapshot, under
// the given labels.
func (e *Emitter) Histogram(name, help string, s Sample, labels ...string) {
	f := e.family(name, help, TypeHistogram)
	s.Labels = labelPairs(labels)
	f.Samples = append(f.Samples, s)
}

// Gather snapshots every owned histogram, runs every collector, and
// returns the merged families sorted by name.
func (r *Registry) Gather() []Family {
	r.mu.Lock()
	owned := make([]*ownedFamily, len(r.owned))
	copy(owned, r.owned)
	collectors := make([]Collector, len(r.collectors))
	copy(collectors, r.collectors)
	r.mu.Unlock()

	e := &Emitter{idx: make(map[string]int)}
	for _, f := range owned {
		e.Histogram(f.name, f.help, f.hist.Snapshot())
	}
	for _, c := range collectors {
		c(e)
	}
	out := e.families
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	for fi := range out {
		sort.SliceStable(out[fi].Samples, func(i, j int) bool {
			return labelKey(out[fi].Samples[i].Labels) < labelKey(out[fi].Samples[j].Labels)
		})
	}
	return out
}

func labelKey(ls []Label) string {
	var b strings.Builder
	for _, l := range ls {
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(',')
	}
	return b.String()
}
