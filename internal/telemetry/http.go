package telemetry

import (
	"encoding/json"
	"net/http"
)

func decodeJSONBody(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// ServeHTTP serves the registry as a Prometheus text exposition: the
// one /metrics format of every esthera endpoint, whatever the request's
// Accept header or query string.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", PrometheusContentType)
	_ = r.WritePrometheus(w)
}

// TraceHandler exposes a Tracer over HTTP: GET drains the buffered
// spans (?format=raw for the nanosecond wire format, Chrome
// trace-event JSON otherwise); POST with {"enabled": true|false}
// toggles recording.
func TraceHandler(t *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			events := t.Drain()
			w.Header().Set("Content-Type", "application/json")
			if r.URL.Query().Get("format") == "raw" {
				meta := TraceMeta{Process: t.Process(), EpochUnixNano: t.EpochUnixNano(), Dropped: t.Dropped()}
				_ = EncodeTrace(w, meta, events)
				return
			}
			_ = WriteChromeTrace(w, events)
		case http.MethodPost:
			var req struct {
				Enabled bool `json:"enabled"`
			}
			if err := decodeJSONBody(r, &req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			t.SetEnabled(req.Enabled)
			w.Header().Set("Content-Type", "application/json")
			if req.Enabled {
				_, _ = w.Write([]byte(`{"enabled":true}` + "\n"))
			} else {
				_, _ = w.Write([]byte(`{"enabled":false}` + "\n"))
			}
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
}
