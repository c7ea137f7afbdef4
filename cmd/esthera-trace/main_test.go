package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"esthera/internal/telemetry"
)

// TestConvertEmitsValidChromeTrace runs the built-in demo pipeline and
// schema-checks the converted output against the Chrome trace-event
// format: a top-level traceEvents array whose entries carry the
// required keys with the required types, complete "X" spans with
// microsecond timestamps, and at most one process-name metadata event.
func TestConvertEmitsValidChromeTrace(t *testing.T) {
	evs, err := demoEvents(demoOptions{rounds: 3, subFilters: 4, particles: 16, seed: 7, fused: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("demo pipeline recorded no spans")
	}

	var buf bytes.Buffer
	if err := telemetry.WriteChromeTrace(&buf, evs); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("convert output is not a trace-event document: %v", err)
	}
	if len(doc.TraceEvents) != len(evs)+1 { // +1 process_name metadata
		t.Fatalf("got %d traceEvents, want %d", len(doc.TraceEvents), len(evs)+1)
	}

	var spans, meta int
	for i, raw := range doc.TraceEvents {
		var ph, name string
		mustField(t, i, raw, "ph", &ph)
		mustField(t, i, raw, "name", &name)
		var pid, tid int
		mustField(t, i, raw, "pid", &pid)
		mustField(t, i, raw, "tid", &tid)
		switch ph {
		case "X":
			spans++
			var ts, dur float64
			mustField(t, i, raw, "ts", &ts)
			mustField(t, i, raw, "dur", &dur)
			if ts < 0 || dur < 0 {
				t.Errorf("event %d (%s): negative ts/dur (%v/%v)", i, name, ts, dur)
			}
			if tid < 1 {
				t.Errorf("event %d (%s): X event tid %d, want >= 1", i, name, tid)
			}
		case "M":
			meta++
			if name != "process_name" {
				t.Errorf("event %d: metadata event named %q", i, name)
			}
		default:
			t.Errorf("event %d (%s): unexpected phase %q", i, name, ph)
		}
	}
	if spans != len(evs) {
		t.Errorf("got %d X spans, want %d", spans, len(evs))
	}
	if meta != 1 {
		t.Errorf("got %d metadata events, want 1", meta)
	}

	// The converted document must itself round-trip through ParseEvents
	// (convert -in accepts Chrome traces, not just the wire format).
	back, err := telemetry.ParseEvents(buf.Bytes())
	if err != nil {
		t.Fatalf("ParseEvents on convert output: %v", err)
	}
	if len(back) != len(evs) {
		t.Fatalf("round-trip kept %d events, want %d", len(back), len(evs))
	}
}

func mustField(t *testing.T, i int, raw map[string]json.RawMessage, key string, dst any) {
	t.Helper()
	v, ok := raw[key]
	if !ok {
		t.Fatalf("event %d: missing required key %q", i, key)
	}
	if err := json.Unmarshal(v, dst); err != nil {
		t.Fatalf("event %d: key %q: %v", i, key, err)
	}
}

// writeFile drops raw bytes into dir and returns the path.
func writeFile(t *testing.T, dir, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeTrace encodes a raw wire-format trace file.
func writeTrace(t *testing.T, dir, name string, meta telemetry.TraceMeta, evs []telemetry.Event) string {
	t.Helper()
	var buf bytes.Buffer
	if err := telemetry.EncodeTrace(&buf, meta, evs); err != nil {
		t.Fatal(err)
	}
	return writeFile(t, dir, name, buf.Bytes())
}

// TestCLIErrorPaths table-tests the dispatch against a missing or
// unknown subcommand and the subcommands against empty, truncated and
// malformed trace files plus bad flag values: every case must return an
// error (exit non-zero through main) without panicking, and the message
// must carry the offending path or entry.
func TestCLIErrorPaths(t *testing.T) {
	dir := t.TempDir()
	empty := writeFile(t, dir, "empty.json", nil)
	truncated := writeFile(t, dir, "truncated.json", []byte(`{"events":[{"name":"x"`))
	malformed := writeFile(t, dir, "malformed.json", []byte("this is not a trace\n"))
	noEvents := writeFile(t, dir, "noevents.json", []byte(`{"events":[],"process":"r1"}`+"\n"))
	missing := filepath.Join(dir, "does-not-exist.json")
	valid := writeTrace(t, dir, "valid.json",
		telemetry.TraceMeta{Process: "r1", EpochUnixNano: 1_000_000_000},
		[]telemetry.Event{{Name: "request", Cat: "serve", TS: time.Millisecond, Dur: time.Millisecond,
			Trace: telemetry.NewTraceID(), Span: telemetry.NewSpanID()}})

	denied := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "tracer disabled", http.StatusForbidden)
	}))
	defer denied.Close()

	cases := []struct {
		name string
		run  func() error
	}{
		{"no subcommand", func() error { return run(nil) }},
		{"unknown subcommand", func() error { return run([]string{"sumary", "-in", valid}) }},
		{"summary missing file", func() error { return runSummary([]string{"-in", missing}) }},
		{"summary empty file", func() error { return runSummary([]string{"-in", empty}) }},
		{"summary truncated file", func() error { return runSummary([]string{"-in", truncated}) }},
		{"convert malformed file", func() error { return runConvert([]string{"-in", malformed, "-out", filepath.Join(dir, "out.json")}) }},
		{"top truncated file", func() error { return runTop([]string{"-in", truncated}) }},
		{"merge no files", func() error { return runMerge([]string{"-quiet"}) }},
		{"merge missing file", func() error { return runMerge([]string{"-quiet", missing}) }},
		{"merge empty file", func() error { return runMerge([]string{"-quiet", empty}) }},
		{"merge malformed file", func() error { return runMerge([]string{"-quiet", malformed}) }},
		{"merge zero-event file", func() error { return runMerge([]string{"-quiet", noEvents}) }},
		{"merge bad offsets entry", func() error { return runMerge([]string{"-quiet", "-offsets", "r1:5", valid}) }},
		{"merge non-numeric offset", func() error { return runMerge([]string{"-quiet", "-offsets", "r1=fast", valid}) }},
		{"merge bad shards file", func() error { return runMerge([]string{"-quiet", "-shards", malformed, valid}) }},
		{"merge missing shards file", func() error { return runMerge([]string{"-quiet", "-shards", missing, valid}) }},
		{"merge require-cross unmet", func() error {
			return runMerge([]string{"-quiet", "-require-cross", "failover.place", "-out", filepath.Join(dir, "m.json"), valid})
		}},
		{"fetch no url", func() error { return runFetch(nil) }},
		{"fetch two urls", func() error { return runFetch([]string{"http://a", "http://b"}) }},
		{"fetch bad status", func() error { return runFetch([]string{"-out", filepath.Join(dir, "f.json"), denied.URL + "/trace"}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(); err == nil {
				t.Fatal("expected an error, got nil")
			}
		})
	}
}

// TestMergeAlignsCrossProcessTrace merges two per-process raw traces
// sharing one trace ID — the router's ingress span and the replica's
// request span — with a clock offset supplied both manually and via a
// /v1/shards snapshot, and checks the merged document is itself a
// parseable Chrome trace satisfying -require-cross.
func TestMergeAlignsCrossProcessTrace(t *testing.T) {
	dir := t.TempDir()
	trace := telemetry.NewTraceID()
	parent := telemetry.NewSpanID()
	routerFile := writeTrace(t, dir, "router.json",
		telemetry.TraceMeta{Process: "router", EpochUnixNano: 1_000_000_000},
		[]telemetry.Event{{Name: "route.step", Cat: "router", TS: time.Millisecond, Dur: 2 * time.Millisecond,
			Trace: trace, Span: parent}})
	// The replica's clock runs 5ms ahead (offset = remote - reference).
	replicaFile := writeTrace(t, dir, "r1.json",
		telemetry.TraceMeta{Process: "r1", EpochUnixNano: 1_000_000_000 + 5_000_000},
		[]telemetry.Event{{Name: "request", Cat: "serve", TS: 1500 * time.Microsecond, Dur: time.Millisecond,
			Trace: trace, Span: telemetry.NewSpanID(), Parent: parent}})
	shards := writeFile(t, dir, "shards.json",
		[]byte(`{"shards":[{"name":"r1","clock_offset_ns":5000000}]}`+"\n"))

	out := filepath.Join(dir, "merged.json")
	err := runMerge([]string{"-quiet", "-out", out, "-shards", shards, "-require-cross", "route.step",
		routerFile, replicaFile})
	if err != nil {
		t.Fatalf("merge: %v", err)
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := telemetry.ParseEvents(data)
	if err != nil {
		t.Fatalf("merged output does not parse: %v", err)
	}
	if len(evs) != 2 {
		t.Fatalf("merged output has %d span events, want 2", len(evs))
	}
	// Offset correction cancels the replica's 5ms lead: the replica's
	// request span starts 1.5ms after its (aligned) epoch, 0.5ms after
	// the router's route.step span.
	byName := map[string]telemetry.Event{}
	for _, ev := range evs {
		byName[ev.Name] = ev
	}
	gap := byName["request"].TS - byName["route.step"].TS
	if gap != 500*time.Microsecond {
		t.Fatalf("aligned start gap = %v, want 500µs", gap)
	}
	for _, ev := range evs {
		if ev.Trace != trace {
			t.Fatalf("merged span %q lost its trace ID: %s", ev.Name, ev.Trace)
		}
	}
}

// TestDemoRecordsHealthAndRounds asserts the demo pipeline's health
// sampling fired (it drives the same wiring esthera-serve uses).
func TestDemoRecordsHealthAndRounds(t *testing.T) {
	for _, fused := range []bool{false, true} {
		evs, err := demoEvents(demoOptions{rounds: 5, subFilters: 4, particles: 16, seed: 9, fused: fused})
		if err != nil {
			t.Fatal(err)
		}
		var rounds int
		for _, ev := range evs {
			if ev.Cat == "filter" && ev.Name == "round" {
				rounds++
			}
		}
		if rounds != 5 {
			t.Errorf("fused=%v: got %d round spans, want 5", fused, rounds)
		}
	}
}
