package telemetry

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestTraceParentRoundTrip(t *testing.T) {
	tc := TraceContext{Trace: NewTraceID(), Span: NewSpanID()}
	hdr := tc.HeaderValue()
	if !strings.HasPrefix(hdr, "00-") || !strings.HasSuffix(hdr, "-01") {
		t.Fatalf("header = %q", hdr)
	}
	back, ok := ParseTraceParent(hdr)
	if !ok || back != tc {
		t.Fatalf("round trip: %q -> %+v (ok=%v), want %+v", hdr, back, ok, tc)
	}
}

func TestParseTraceParentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00",
		"00-zz-11-01",
		"00-0123456789abcdef-0123456789abcdef-01",                   // short trace id
		"00-0123456789abcdef0123456789abcdef-0123-01",               // short span id
		"00-00000000000000000000000000000000-0123456789abcdef-01",   // zero trace id
		"x-0123456789abcdef0123456789abcdef-0123456789abcdef-01",    // bad version field width
		"00-0123456789abcdeg0123456789abcdef-0123456789abcdef-01",   // non-hex
		"00 0123456789abcdef0123456789abcdef 0123456789abcdef 01",   // wrong separator
		"00-0123456789abcdef0123456789abcdef-0123456789abcdeg-01",   // non-hex span
		"traceparent: 00-0123456789abcdef0123456789abcdef-0123-01",  // junk prefix
		"ff-0123456789abcdef0123456789abcdef-0123456789abcdef-01",   // version ff
		"zz-0123456789abcdef0123456789abcdef-0123456789abcdef-01",   // non-hex version
		"00-0123456789abcdef0123456789abcdef-0123456789abcdef",      // missing flags
		"00-0123456789abcdef0123456789abcdef-0123456789abcdef-zz",   // non-hex flags
		"00-0123456789ABCDEF0123456789ABCDEF-0123456789abcdef-01",   // uppercase trace id
		"00-0123456789abcdef0123456789abcdef-0123456789ABCDEF-01",   // uppercase parent id
		"00-0123456789abcdef0123456789abcdef-0000000000000000-01",   // zero parent id
		"00-0123456789abcdef0123456789abcdef-0123456789abcdef-01-x", // extra field after 00
	}
	for _, s := range bad {
		if tc, ok := ParseTraceParent(s); ok {
			t.Errorf("ParseTraceParent(%q) accepted: %+v", s, tc)
		}
	}
	for _, good := range []string{
		"00-0123456789abcdef0123456789abcdef-00000000000000ff-01",
		"00-0123456789abcdef0123456789abcdef-00000000000000ff-00",
		"cc-0123456789abcdef0123456789abcdef-00000000000000ff-01-later-fields", // a higher version may add fields
	} {
		tc, ok := ParseTraceParent(good)
		if !ok || tc.Span != 0xff {
			t.Fatalf("ParseTraceParent(%q) = %+v, %v", good, tc, ok)
		}
	}
}

// FuzzParseTraceParent feeds arbitrary header values to the parser. An
// accepted value must re-render with HeaderValue and parse back to the
// same context.
func FuzzParseTraceParent(f *testing.F) {
	f.Add(TraceContext{Trace: NewTraceID(), Span: NewSpanID()}.HeaderValue())
	f.Add("00-0123456789abcdef0123456789abcdef-00000000000000ff-01")
	f.Add("cc-0123456789abcdef0123456789abcdef-00000000000000ff-01-later")
	f.Add("00-0123456789abcdef0123456789abcdef-0000000000000000-01")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		tc, ok := ParseTraceParent(s)
		if !ok {
			return
		}
		if !tc.Valid() || tc.Span == 0 {
			t.Fatalf("ParseTraceParent(%q) accepted a zero id: %+v", s, tc)
		}
		back, ok := ParseTraceParent(tc.HeaderValue())
		if !ok || back != tc {
			t.Fatalf("%q -> %+v re-renders as %q -> %+v (ok=%v)", s, tc, tc.HeaderValue(), back, ok)
		}
	})
}

func TestTraceIDJSON(t *testing.T) {
	id := NewTraceID()
	b, err := json.Marshal(id)
	if err != nil {
		t.Fatal(err)
	}
	if want := `"` + id.String() + `"`; string(b) != want {
		t.Fatalf("marshal = %s, want %s", b, want)
	}
	var back TraceID
	if err := json.Unmarshal(b, &back); err != nil || back != id {
		t.Fatalf("unmarshal = %v, %v", back, err)
	}
	// Zero marshals as "" and events omit it entirely.
	var zero TraceID
	if b, _ := json.Marshal(zero); string(b) != `""` {
		t.Fatalf("zero marshal = %s", b)
	}
	evJSON, err := json.Marshal(Event{Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(evJSON), "trace") {
		t.Fatalf("untraced event JSON carries trace field: %s", evJSON)
	}
	if err := json.Unmarshal([]byte(`"nope"`), &back); err == nil {
		t.Fatal("unmarshal accepted short hex")
	}
}

func TestNewSpanIDUniqueNonzero(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		id := NewSpanID()
		if id == 0 || seen[id] {
			t.Fatalf("span id %d: zero or duplicate %#x", i, id)
		}
		seen[id] = true
	}
}

func TestContextCarriesTrace(t *testing.T) {
	if _, ok := TraceFromContext(context.Background()); ok {
		t.Fatal("empty context reported a trace")
	}
	tc := TraceContext{Trace: NewTraceID(), Span: 7}
	ctx := ContextWithTrace(context.Background(), tc)
	got, ok := TraceFromContext(ctx)
	if !ok || got != tc {
		t.Fatalf("TraceFromContext = %+v, %v", got, ok)
	}
}

func TestAmbientStampsRecordedEvents(t *testing.T) {
	tr := newTracer(1, 16)
	tr.SetEnabled(true)
	tc := TraceContext{Trace: NewTraceID(), Span: 42}
	tr.SetAmbient(tc)
	tr.Record(Event{Name: "kernel"})
	tr.RecordBatch([]Event{{Name: "phase"}})
	explicit := TraceContext{Trace: NewTraceID(), Span: 9}
	tr.Record(Event{Name: "other", Trace: explicit.Trace, Span: 11, Parent: explicit.Span})
	tr.ClearAmbient()
	tr.Record(Event{Name: "after"})

	byName := map[string]Event{}
	for _, ev := range tr.Drain() {
		byName[ev.Name] = ev
	}
	if ev := byName["kernel"]; ev.Trace != tc.Trace || ev.Parent != tc.Span {
		t.Fatalf("ambient not applied to Record: %+v", ev)
	}
	if ev := byName["phase"]; ev.Trace != tc.Trace || ev.Parent != tc.Span {
		t.Fatalf("ambient not applied to RecordBatch: %+v", ev)
	}
	if ev := byName["other"]; ev.Trace != explicit.Trace || ev.Parent != explicit.Span || ev.Span != 11 {
		t.Fatalf("explicit trace overwritten: %+v", ev)
	}
	if ev := byName["after"]; !ev.Trace.IsZero() {
		t.Fatalf("ambient leaked past ClearAmbient: %+v", ev)
	}
}

func TestSpanWithTraceChromeRoundTrip(t *testing.T) {
	tr := newTracer(1, 16)
	tr.SetEnabled(true)
	tc := TraceContext{Trace: NewTraceID(), Span: NewSpanID()}
	child := NewSpanID()
	sp := tr.Begin("serve", "request").WithTrace(tc.Trace, child, tc.Span).Arg("step", 3)
	time.Sleep(time.Millisecond)
	sp.End()

	var buf strings.Builder
	if err := WriteChromeTrace(&buf, tr.Drain()); err != nil {
		t.Fatal(err)
	}
	back, err := ParseEvents([]byte(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 {
		t.Fatalf("parsed %d events", len(back))
	}
	ev := back[0]
	if ev.Trace != tc.Trace || ev.Span != child || ev.Parent != tc.Span {
		t.Fatalf("trace identity lost in chrome round trip: %+v", ev)
	}
	if ev.Args[0] != (Arg{Name: "step", Value: 3}) {
		t.Fatalf("args lost: %+v", ev.Args)
	}
}

func TestRawTraceMetaRoundTrip(t *testing.T) {
	tr := newTracer(1, 4)
	tr.SetProcess("r1")
	tr.SetEnabled(true)
	tr.Record(Event{Name: "e", TS: 5})
	var buf strings.Builder
	meta := TraceMeta{Process: tr.Process(), EpochUnixNano: tr.EpochUnixNano(), Dropped: tr.Dropped()}
	if err := EncodeTrace(&buf, meta, tr.Drain()); err != nil {
		t.Fatal(err)
	}
	gotMeta, events, err := ParseTrace([]byte(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta.Process != "r1" || gotMeta.EpochUnixNano != tr.EpochUnixNano() {
		t.Fatalf("meta = %+v", gotMeta)
	}
	if len(events) != 1 || events[0].Name != "e" {
		t.Fatalf("events = %+v", events)
	}
}
