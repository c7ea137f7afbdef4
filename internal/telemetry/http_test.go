package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestTraceHandler(t *testing.T) {
	tr := newTracer(1, 64)
	h := TraceHandler(tr)

	// Enable via POST.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/trace", strings.NewReader(`{"enabled":true}`)))
	if rec.Code != http.StatusOK || !tr.Enabled() {
		t.Fatalf("enable: code=%d enabled=%v", rec.Code, tr.Enabled())
	}

	tr.Record(Event{Name: "round", Cat: "filter", TS: time.Microsecond, Dur: time.Millisecond})

	// Chrome format by default.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/trace", nil))
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &chrome); err != nil {
		t.Fatalf("GET /trace not chrome JSON: %v", err)
	}
	if len(chrome.TraceEvents) != 2 {
		t.Fatalf("traceEvents = %d, want metadata + 1 span", len(chrome.TraceEvents))
	}

	// Drained: second GET is empty; raw format parses.
	tr.Record(Event{Name: "again", TS: 2 * time.Microsecond, Dur: time.Microsecond})
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/trace?format=raw", nil))
	events, err := ParseEvents(rec.Body.Bytes())
	if err != nil || len(events) != 1 || events[0].Name != "again" {
		t.Fatalf("raw trace = %+v err=%v", events, err)
	}

	// Disable again.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/trace", strings.NewReader(`{"enabled":false}`)))
	if rec.Code != http.StatusOK || tr.Enabled() {
		t.Fatalf("disable: code=%d enabled=%v", rec.Code, tr.Enabled())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/trace", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE = %d", rec.Code)
	}
}

func TestServePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.NewHistogram("esthera_demo_seconds", "demo latency", []float64{0.01, 0.1}).Observe(0.05)
	reg.RegisterCollector(func(e *Emitter) { e.Counter("esthera_demo_total", "demo", 2) })
	rec := httptest.NewRecorder()
	reg.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != PrometheusContentType {
		t.Fatalf("content type = %q", ct)
	}
	text := rec.Body.String()
	for _, want := range []string{"esthera_demo_total 2", `esthera_demo_seconds_bucket{le="0.1"} 1`} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, text)
		}
	}
	if err := LintPrometheus(strings.NewReader(text)); err != nil {
		t.Fatalf("lint: %v", err)
	}
}
