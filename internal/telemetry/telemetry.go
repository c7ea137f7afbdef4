// Package telemetry is the repo's observability layer: a low-overhead
// span tracer with fixed-size sharded ring buffers (drained on demand,
// exported as Chrome trace-event JSON), a dependency-free metrics
// registry with Prometheus text exposition, and filter-health summaries
// (ESS, weight degeneracy, resample acceptance) computed from particle
// log-weights.
//
// The package is a leaf: it imports nothing from the rest of the
// module, so every layer (device, kernels, cluster, serve) can record
// into it without cycles. All recording paths are strictly read-only
// with respect to filter state — telemetry observes, it never perturbs
// RNG streams or float operation order, so golden traces stay
// bit-identical whether tracing is enabled or not.
//
// Tracing is off by default and free when off: Begin/End/Record on a
// nil or disabled Tracer read one atomic and allocate nothing, and a
// tracer that was never enabled holds no ring memory.
package telemetry

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Arg is one integer key/value attached to an Event. Events carry a
// fixed-size argument array instead of a map so recording never
// allocates.
type Arg struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// maxArgs is the per-event argument capacity. Three covers every
// current call site (e.g. step+cost_laneops, rerouted+dropped); raising
// it is a wire-compatible change.
const maxArgs = 3

// Event is one completed span: a named interval relative to the owning
// Tracer's epoch. TID groups events onto the same track in trace
// viewers; events recorded together via RecordBatch share a TID so
// viewers nest them by containment.
//
// Trace/Span/Parent carry the distributed trace identity (see
// tracectx.go): Trace is the request's 16-byte ID, Span this span's
// process-unique ID (0 for anonymous leaf spans), Parent the span ID
// this one nests under. Events recorded while the tracer has an
// ambient context (SetAmbient) inherit Trace and Parent automatically.
type Event struct {
	Name   string        `json:"name"`
	Cat    string        `json:"cat"`
	TS     time.Duration `json:"ts_ns"`
	Dur    time.Duration `json:"dur_ns"`
	TID    int32         `json:"tid"`
	Trace  TraceID       `json:"trace,omitzero"`
	Span   uint64        `json:"span,omitempty"`
	Parent uint64        `json:"parent,omitempty"`
	Args   [maxArgs]Arg  `json:"args"`
}

// SetArg attaches an integer argument, filling the first free slot.
// Extra arguments beyond the event's capacity are dropped.
func (e *Event) SetArg(name string, v int64) {
	for i := range e.Args {
		if e.Args[i].Name == "" {
			e.Args[i] = Arg{Name: name, Value: v}
			return
		}
	}
}

type shard struct {
	mu      sync.Mutex
	id      int32 // 1-based track id stamped on events recorded here
	buf     []Event
	head    int // next overwrite position once len(buf) == cap(buf)
	dropped int64
	_       [4]uint64 // padding to keep shard locks off one cache line
}

// Tracer collects spans into sharded fixed-capacity ring buffers.
// Recording picks a shard round-robin, takes that shard's mutex only
// (lock-cheap: no global lock, no channel), and copies the event into
// preallocated storage. Drain gathers, sorts and clears all shards.
//
// A nil *Tracer is valid everywhere and records nothing, so call sites
// can hold one unconditionally.
type Tracer struct {
	epoch   time.Time
	enabled atomic.Bool
	next    atomic.Uint32
	mask    uint32
	ambient atomic.Pointer[TraceContext]
	process atomic.Pointer[string]
	shards  []shard
	capEv   int       // events per ring
	rings   sync.Once // allocates the rings at the first enable
}

// New builds a Tracer with one ring per P (the next power of two at or
// above GOMAXPROCS, so contention-free recording gets roughly one per
// recording goroutine) of 4096 events each; a full ring overwrites its
// oldest event and counts it in Dropped. The tracer starts disabled and
// holds no ring memory until the first SetEnabled(true).
func New() *Tracer { return newTracer(runtime.GOMAXPROCS(0), 4096) }

// newTracer builds a Tracer with n rings (rounded up to a power of two)
// of capEv events each.
func newTracer(n, capEv int) *Tracer {
	pow := 1
	for pow < n {
		pow <<= 1
	}
	t := &Tracer{epoch: time.Now(), mask: uint32(pow - 1), shards: make([]shard, pow), capEv: capEv}
	for i := range t.shards {
		t.shards[i].id = int32(i + 1)
	}
	return t
}

// SetEnabled turns recording on or off. Toggling is safe at any time
// from any goroutine; spans begun while enabled but ended after
// disabling are dropped. The first enable allocates the rings before
// recording starts; later toggles reuse them.
func (t *Tracer) SetEnabled(on bool) {
	if t == nil {
		return
	}
	if on {
		t.rings.Do(func() {
			for i := range t.shards {
				sh := &t.shards[i]
				sh.mu.Lock()
				sh.buf = make([]Event, 0, t.capEv)
				sh.mu.Unlock()
			}
		})
	}
	t.enabled.Store(on)
}

// Enabled reports whether recording is on. False for a nil Tracer.
//
//esthera:hotpath noalloc
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// SetProcess names the process owning this tracer (router name, shard
// name). The name rides in the raw trace export so esthera-trace merge
// can put each process on its own track.
func (t *Tracer) SetProcess(name string) {
	if t != nil {
		t.process.Store(&name)
	}
}

// Process returns the name set by SetProcess, or "".
func (t *Tracer) Process() string {
	if t == nil {
		return ""
	}
	if p := t.process.Load(); p != nil {
		return *p
	}
	return ""
}

// EpochUnixNano is the wall-clock instant event timestamps are relative
// to; merge tooling uses it (plus the transport's clock-offset
// estimate) to align traces from different processes.
func (t *Tracer) EpochUnixNano() int64 {
	if t == nil {
		return 0
	}
	return t.epoch.UnixNano()
}

// SetAmbient installs a trace context inherited by every event recorded
// until ClearAmbient: events with a zero Trace get the ambient trace ID
// and, when they carry no explicit parent, the ambient span as parent.
// The serving scheduler brackets each batched kernel round with this so
// device/kernel spans land on the driving request's trace.
func (t *Tracer) SetAmbient(tc TraceContext) {
	if t != nil {
		t.ambient.Store(&tc)
	}
}

// ClearAmbient removes the ambient trace context.
func (t *Tracer) ClearAmbient() {
	if t != nil {
		t.ambient.Store(nil)
	}
}

// stamp applies the ambient trace context to an event that carries no
// explicit trace.
//
//esthera:hotpath noalloc
func (t *Tracer) stamp(ev *Event) {
	if !ev.Trace.IsZero() {
		return
	}
	if amb := t.ambient.Load(); amb != nil {
		ev.Trace = amb.Trace
		if ev.Parent == 0 {
			ev.Parent = amb.Span
		}
	}
}

// Stamp converts an absolute time into this tracer's epoch-relative
// timestamp, for call sites that already measured their own interval.
func (t *Tracer) Stamp(at time.Time) time.Duration {
	if t == nil {
		return 0
	}
	return at.Sub(t.epoch)
}

// Record appends one pre-measured event. No-op when nil or disabled;
// never allocates.
//
//esthera:hotpath noalloc
func (t *Tracer) Record(ev Event) {
	if !t.Enabled() {
		return
	}
	t.stamp(&ev)
	sh := &t.shards[t.next.Add(1)&t.mask]
	sh.mu.Lock()
	sh.put(ev)
	sh.mu.Unlock()
}

// RecordBatch appends related events into one shard so they share a
// TID: trace viewers nest same-track "X" events by containment, which
// is how a fused launch and its per-phase children render as one stack.
func (t *Tracer) RecordBatch(evs []Event) {
	if !t.Enabled() || len(evs) == 0 {
		return
	}
	sh := &t.shards[t.next.Add(1)&t.mask]
	sh.mu.Lock()
	for _, ev := range evs {
		t.stamp(&ev)
		sh.put(ev)
	}
	sh.mu.Unlock()
}

// put stores ev in the ring, overwriting the oldest event when full.
// Caller holds sh.mu.
func (sh *shard) put(ev Event) {
	if ev.TID == 0 {
		ev.TID = sh.id
	}
	if len(sh.buf) < cap(sh.buf) {
		sh.buf = append(sh.buf, ev)
		return
	}
	sh.buf[sh.head] = ev
	sh.head++
	if sh.head == cap(sh.buf) {
		sh.head = 0
	}
	sh.dropped++
}

// Drain removes and returns every buffered event, ordered by start
// time (ties broken by name for deterministic output). Dropped counts
// are preserved across drains.
func (t *Tracer) Drain() []Event {
	if t == nil {
		return nil
	}
	var out []Event
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		out = append(out, sh.buf...)
		sh.buf = sh.buf[:0]
		sh.head = 0
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TS != out[j].TS {
			return out[i].TS < out[j].TS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Dropped returns the cumulative number of events overwritten because
// a ring was full.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	var n int64
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		n += sh.dropped
		sh.mu.Unlock()
	}
	return n
}

// Span is an in-progress interval returned by Begin. The zero Span
// (from a nil or disabled tracer) is inert: Arg and End are no-ops.
// Span is a value type so the common path allocates nothing.
type Span struct {
	tr    *Tracer
	start time.Time
	ev    Event
}

// Begin opens a span. When the tracer is nil or disabled this returns
// the zero Span without reading the clock.
//
//esthera:hotpath noalloc
func (t *Tracer) Begin(cat, name string) Span {
	if !t.Enabled() {
		return Span{}
	}
	return Span{tr: t, start: time.Now(), ev: Event{Name: name, Cat: cat}}
}

// Arg attaches an integer argument and returns the span for chaining.
//
//esthera:hotpath noalloc
func (s Span) Arg(name string, v int64) Span {
	if s.tr != nil {
		s.ev.SetArg(name, v)
	}
	return s
}

// WithTrace stamps the span with an explicit trace identity: the
// request's trace ID, this span's own ID (mint with NewSpanID), and the
// parent span it nests under. Spans without an explicit identity
// inherit the tracer's ambient context at Record time.
//
//esthera:hotpath noalloc
func (s Span) WithTrace(trace TraceID, span, parent uint64) Span {
	if s.tr != nil {
		s.ev.Trace, s.ev.Span, s.ev.Parent = trace, span, parent
	}
	return s
}

// End closes and records the span.
//
//esthera:hotpath noalloc
func (s Span) End() {
	if s.tr == nil {
		return
	}
	s.ev.TS = s.start.Sub(s.tr.epoch)
	s.ev.Dur = time.Since(s.start)
	s.tr.Record(s.ev)
}
