package log

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"esthera/internal/telemetry"
)

// get serves GET /logz and returns the response.
func get(h *Handler) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/logz", nil))
	return rec
}

// drain serves GET /logz and decodes each line.
func drain(t *testing.T, h *Handler) []map[string]any {
	t.Helper()
	var out []map[string]any
	sc := bufio.NewScanner(get(h).Body)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line is not JSON: %v\n%s", err, sc.Text())
		}
		out = append(out, m)
	}
	return out
}

func post(h *Handler, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/logz", strings.NewReader(body)))
	return rec
}

func TestDisabledLevelZeroAlloc(t *testing.T) {
	h := New("r1", slog.LevelInfo, nil)
	l := slog.New(h)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		l.LogAttrs(ctx, slog.LevelDebug, "below level", slog.String("session", "s-1"), slog.Int("step", 7),
			slog.Bool("failed", false), slog.Duration("lat", time.Millisecond))
	})
	if allocs != 0 {
		t.Fatalf("below-level LogAttrs allocated %v per op, want 0", allocs)
	}
	// A Trace attribute boxes its context, so hot sites guard it.
	tc := telemetry.TraceContext{Trace: telemetry.NewTraceID(), Span: 9}
	allocs = testing.AllocsPerRun(100, func() {
		if l.Enabled(ctx, slog.LevelDebug) {
			l.LogAttrs(ctx, slog.LevelDebug, "guarded", Trace(tc))
		}
	})
	if allocs != 0 {
		t.Fatalf("guarded Trace site allocated %v per op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		l.LogAttrs(ctx, slog.LevelDebug, "unguarded", Trace(tc))
	})
	if allocs != 1 {
		t.Fatalf("unguarded Trace attribute allocated %v per op, want the 1 box the docs state", allocs)
	}
	if got := drain(t, h); len(got) != 0 {
		t.Fatalf("below-level calls buffered %d records", len(got))
	}
}

func TestRingBufferAndDrain(t *testing.T) {
	h := New("", slog.LevelDebug, nil)
	l := slog.New(h)
	const extra = 6
	for i := 0; i < ringCap+extra; i++ {
		l.Info("e", "i", i)
	}
	rec := get(h)
	if d := rec.Header().Get("X-Esthera-Log-Dropped"); d != "6" {
		t.Fatalf("dropped header = %q, want 6", d)
	}
	lines := strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n")
	if len(lines) != ringCap {
		t.Fatalf("ring kept %d records, want %d", len(lines), ringCap)
	}
	// Oldest overwritten, newest survive, in order.
	for i, line := range lines {
		var m struct{ I int }
		if err := json.Unmarshal([]byte(line), &m); err != nil || m.I != extra+i {
			t.Fatalf("record %d = %s (%v), want i=%d", i, line, err, extra+i)
		}
	}
	l.Info("after")
	rec = get(h)
	if d := rec.Header().Get("X-Esthera-Log-Dropped"); d != "6" || strings.Count(rec.Body.String(), "\n") != 1 {
		t.Fatalf("second drain: dropped %q, body %q", d, rec.Body.String())
	}
	if got := drain(t, h); len(got) != 0 {
		t.Fatalf("third drain returned %d records", len(got))
	}
}

// TestRingGrowsOnDemand pins the ring's lazy storage: a new handler
// holds no records, a part-filled ring grows only as far as its
// records need and drains them oldest first, and a wrapped ring drains
// in the same order at its full, reused capacity.
func TestRingGrowsOnDemand(t *testing.T) {
	h := New("", slog.LevelDebug, nil)
	if c := cap(h.recs); c != 0 {
		t.Fatalf("new handler holds %d record slots, want none", c)
	}
	l := slog.New(h)
	order := func(n, first int) {
		t.Helper()
		got := drain(t, h)
		if len(got) != n {
			t.Fatalf("drained %d records, want %d", len(got), n)
		}
		for i, m := range got {
			if v, _ := m["i"].(float64); int(v) != first+i {
				t.Fatalf("record %d has i=%v, want %d", i, m["i"], first+i)
			}
		}
	}
	const part = ringFirst + 5
	for i := 0; i < part; i++ {
		l.Info("e", "i", i)
	}
	if c := cap(h.recs); c < part || c > 2*part {
		t.Fatalf("%d records grew the ring to %d slots", part, c)
	}
	order(part, 0)
	const extra = 37
	for i := 0; i < ringCap+extra; i++ {
		l.Info("e", "i", i)
	}
	if c := cap(h.recs); c != ringCap {
		t.Fatalf("a full ring holds %d slots, want %d", c, ringCap)
	}
	full := &h.recs[0]
	order(ringCap, extra)
	for i := 0; i < ringCap+extra; i++ {
		l.Info("e", "i", i)
	}
	if &h.recs[0] != full {
		t.Fatal("refilling after a drain reallocated the ring")
	}
	order(ringCap, extra)
}

func TestLevelGateAndSetLevel(t *testing.T) {
	h := New("", slog.LevelWarn, nil)
	l := slog.New(h)
	l.Info("dropped")
	l.Warn("kept")
	h.level.Set(slog.LevelDebug)
	l.Debug("now kept")
	got := drain(t, h)
	if len(got) != 2 || got[0]["msg"] != "kept" || got[1]["msg"] != "now kept" {
		t.Fatalf("records = %v", got)
	}
	if got[0]["level"] != "warn" || got[1]["level"] != "debug" {
		t.Fatalf("levels = %v, %v", got[0]["level"], got[1]["level"])
	}
}

func TestWithScopesFields(t *testing.T) {
	h := New("r1", slog.LevelDebug, nil)
	l := slog.New(h).With("shard", "r1").WithGroup("req").With("session", "s-9")
	l.Info("stepped", "step", 3, "took", time.Microsecond)
	slog.New(h).Info("plain", "step", 4)
	got := drain(t, h)
	if len(got) != 2 {
		t.Fatalf("records = %v", got)
	}
	req, ok := got[0]["req"].(map[string]any)
	if got[0]["shard"] != "r1" || !ok || req["session"] != "s-9" || req["step"] != float64(3) || req["took_ns"] != float64(1000) {
		t.Fatalf("scoped record = %v", got[0])
	}
	if got[1]["step"] != float64(4) || got[1]["shard"] != nil {
		t.Fatalf("the parent logger picked up its child's scope: %v", got[1])
	}
}

func TestJSONLinesSchema(t *testing.T) {
	h := New("router", slog.LevelDebug, nil)
	tc := telemetry.TraceContext{Trace: telemetry.NewTraceID(), Span: 0xabc}
	slog.New(h).LogAttrs(context.Background(), slog.LevelInfo, `migrate "hold"`, Trace(tc),
		slog.String("session", "s-1"), slog.Int("epoch", 2), slog.Duration("hold", 3*time.Millisecond),
		slog.Bool("duplicate", false), slog.Uint64("lanes", 16))
	body := get(h).Body.String()
	if strings.Count(body, "\n") != 1 || !strings.HasSuffix(body, "\n") {
		t.Fatalf("not one line: %q", body)
	}
	// Key order is today's: ts, level, proc, msg, then the attributes.
	if !strings.HasPrefix(body, `{"ts":"`) || !strings.Contains(body, `Z","level":"info","proc":"router","msg":`) {
		t.Fatalf("line order: %s", body)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(body), &rec); err != nil {
		t.Fatalf("line is not JSON: %v\n%s", err, body)
	}
	want := map[string]any{
		"level": "info", "proc": "router", "msg": `migrate "hold"`,
		"trace": tc.Trace.String(), "span": "abc",
		"session": "s-1", "epoch": float64(2), "hold_ns": float64(3e6), "duplicate": false, "lanes": float64(16),
	}
	for k, v := range want {
		if rec[k] != v {
			t.Errorf("%s = %v, want %v", k, rec[k], v)
		}
	}
	if len(rec) != len(want)+1 {
		t.Errorf("keys = %v, want ts plus %d", rec, len(want))
	}
	if _, err := time.Parse(time.RFC3339Nano, rec["ts"].(string)); err != nil {
		t.Fatalf("ts: %v", err)
	}
	// Without a process name the line has no proc key.
	h = New("", slog.LevelDebug, nil)
	slog.New(h).Error("x")
	if got := drain(t, h); len(got) != 1 || got[0]["level"] != "error" || got[0]["proc"] != nil {
		t.Fatalf("unnamed record = %v", got)
	}
}

func TestSinkMirrorsAtLevel(t *testing.T) {
	var sink bytes.Buffer
	h := New("r1", slog.LevelDebug, &sink)
	l := slog.New(h)
	l.Info("quiet")
	l.Warn("loud", "why", "slow")
	l.Error("louder", "why", "boom")
	lines := strings.Split(strings.TrimSuffix(sink.String(), "\n"), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], `"msg":"loud"`) || !strings.Contains(lines[1], `"level":"error","proc":"r1","msg":"louder"`) {
		t.Fatalf("sink = %s", sink.String())
	}
	// Every record still lands in the ring.
	if got := drain(t, h); len(got) != 3 {
		t.Fatalf("ring records = %d", len(got))
	}
}

func TestParseLevelRoundTrip(t *testing.T) {
	for _, name := range []string{"debug", "info", "warn", "error", "off"} {
		lv, err := ParseLevel(name)
		if err != nil || levelName(lv) != name {
			t.Fatalf("ParseLevel(%q) = %v, %v", name, lv, err)
		}
	}
	for alias, want := range map[string]slog.Level{"": slog.LevelInfo, "warning": slog.LevelWarn} {
		if lv, err := ParseLevel(alias); err != nil || lv != want {
			t.Fatalf("ParseLevel(%q) = %v, %v", alias, lv, err)
		}
	}
	for _, junk := range []string{"loudest", "INFO", "info+2"} {
		if _, err := ParseLevel(junk); err == nil {
			t.Fatalf("ParseLevel accepted %q", junk)
		}
	}
}

func TestHandlerDrainAndSetLevel(t *testing.T) {
	h := New("r2", slog.LevelInfo, nil)
	l := slog.New(h)
	l.Info("hello", "k", "v")

	rec := get(h)
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"msg":"hello","k":"v"`) {
		t.Fatalf("GET /logz = %d %q", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}

	rec = post(h, `{"level":"debug"}`)
	if rec.Code != 200 || rec.Body.String() != `{"level":"debug"}`+"\n" || !l.Enabled(context.Background(), slog.LevelDebug) {
		t.Fatalf("POST debug = %d %q", rec.Code, rec.Body.String())
	}
	rec = post(h, `{"level":"off"}`)
	if rec.Code != 200 || rec.Body.String() != `{"level":"off"}`+"\n" {
		t.Fatalf("POST off = %d %q", rec.Code, rec.Body.String())
	}
	l.Error("silenced")
	if got := drain(t, h); len(got) != 0 {
		t.Fatalf("level off kept %v", got)
	}

	for _, bad := range []string{`{"level":"nope"}`, `{"level":"info","extra":1}`, `level=info`} {
		if rec = post(h, bad); rec.Code != 400 {
			t.Fatalf("POST %s = %d, want 400", bad, rec.Code)
		}
	}
	if l.Enabled(context.Background(), slog.LevelError) {
		t.Fatal("a rejected POST changed the level")
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("DELETE", "/logz", nil))
	if rec.Code != 405 {
		t.Fatalf("DELETE = %d", rec.Code)
	}
}

func TestConcurrentLogAndDrain(t *testing.T) {
	var sink bytes.Buffer
	h := New("r1", slog.LevelDebug, &sink)
	l := slog.New(h).With("shard", "r1")
	const writers, each = 4, 500
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				l.Warn("w", "g", g, "i", i)
			}
		}(g)
	}
	lines := 0
	for i := 0; i < 20; i++ {
		lines += strings.Count(get(h).Body.String(), "\n")
	}
	wg.Wait()
	rec := get(h)
	lines += strings.Count(rec.Body.String(), "\n")
	if lines != writers*each || rec.Header().Get("X-Esthera-Log-Dropped") != "0" {
		t.Fatalf("drained %d lines (dropped %s), want %d", lines, rec.Header().Get("X-Esthera-Log-Dropped"), writers*each)
	}
	if n := strings.Count(sink.String(), "\n"); n != writers*each {
		t.Fatalf("sink got %d lines, want %d", n, writers*each)
	}
}
