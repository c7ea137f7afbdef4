// Package log (imported as tlog) is the serving stack's log/slog.Handler:
// it keeps the newest records in a fixed ring, drained as JSON lines
// over /logz, and mirrors warn-and-above records to an optional sink
// (stderr in the binaries). A LogAttrs call below the enabled level
// allocates nothing unless it builds a Trace attribute.
package log

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"

	"esthera/internal/telemetry"
)

const ringCap = 2048 // records kept; older ones are overwritten and counted as dropped

const ringFirst = 64 // the ring's first allocation; it doubles up to ringCap as records arrive

const levelOff = slog.Level(math.MaxInt32) // above every record's level: silences the log

// Handler is the slog.Handler behind /logz; its ServeHTTP serves /logz.
// Handlers derived by WithAttrs and WithGroup share the ring and level.
type Handler struct {
	*ring
	frames []slog.Attr // one group per WithAttrs (key "") or WithGroup call
}

type ring struct {
	level   slog.LevelVar
	opts    slog.HandlerOptions
	sink    slog.Handler // JSON onto the sink; nil without one
	mu      sync.Mutex
	recs    []slog.Record // the newest min(n, ringCap) records, grown as they arrive
	n       int           // records handled since the last drain
	dropped int64         // records overwritten before earlier drains
}

// New builds the handler for process proc. It records at level and
// above, and mirrors warn-and-above records to sink when it is non-nil.
func New(proc string, level slog.Level, sink io.Writer) *Handler {
	r := &ring{opts: slog.HandlerOptions{ReplaceAttr: schema(proc)}}
	r.level.Set(level)
	if sink != nil {
		r.sink = slog.NewJSONHandler(sink, &r.opts)
	}
	return &Handler{ring: r}
}

// Enabled reports whether records at lv are kept: one atomic load.
//
//esthera:hotpath noalloc
func (h *Handler) Enabled(_ context.Context, lv slog.Level) bool {
	return lv >= h.level.Level()
}

// Handle stores rec in the ring, overwriting the oldest record when
// full, and mirrors it to the sink at warn and above.
func (h *Handler) Handle(ctx context.Context, rec slog.Record) error {
	if len(h.frames) > 0 {
		rec = h.scoped(rec)
	}
	rec = rec.Clone()
	h.mu.Lock()
	h.put(rec)
	h.mu.Unlock()
	if h.sink != nil && rec.Level >= slog.LevelWarn {
		return h.sink.Handle(ctx, rec)
	}
	return nil
}

// put stores rec: appended while the ring is filling (its storage
// doubling up to ringCap), over the oldest record once it is full.
// Caller holds mu.
func (r *ring) put(rec slog.Record) {
	switch {
	case len(r.recs) == ringCap:
		r.recs[r.n%ringCap] = rec
	case len(r.recs) < cap(r.recs):
		r.recs = append(r.recs, rec)
	default:
		grown := make([]slog.Record, len(r.recs), min(max(2*cap(r.recs), ringFirst), ringCap))
		copy(grown, r.recs)
		r.recs = append(grown, rec)
	}
	r.n++
}

// WithAttrs returns a handler whose records carry as.
func (h *Handler) WithAttrs(as []slog.Attr) slog.Handler { return h.with("", as) }

// WithGroup returns a handler that nests later attributes under name.
func (h *Handler) WithGroup(name string) slog.Handler { return h.with(name, nil) }

func (h *Handler) with(group string, as []slog.Attr) *Handler {
	f := slog.Attr{Key: group, Value: slog.GroupValue(as...)}
	return &Handler{ring: h.ring, frames: append(slices.Clip(h.frames), f)}
}

// scoped copies rec with its attributes nested inside h's frames.
func (h *Handler) scoped(rec slog.Record) slog.Record {
	var attrs []slog.Attr
	rec.Attrs(func(a slog.Attr) bool { attrs = append(attrs, a); return true })
	for i := len(h.frames) - 1; i >= 0; i-- {
		f := h.frames[i]
		attrs = []slog.Attr{{Key: f.Key, Value: slog.GroupValue(append(slices.Clip(f.Value.Group()), attrs...)...)}}
	}
	out := slog.NewRecord(rec.Time, rec.Level, rec.Message, rec.PC)
	out.AddAttrs(attrs...)
	return out
}

// ServeHTTP is the /logz endpoint: GET drains the ring as JSON lines
// (the X-Esthera-Log-Dropped header counts records overwritten so far);
// POST with {"level":"debug"} retunes the minimum level at runtime.
func (h *Handler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	switch req.Method {
	case http.MethodGet:
		h.mu.Lock()
		k := 0
		if h.n > len(h.recs) { // wrapped: start at the oldest record's slot
			k = h.n % ringCap
		}
		recs := append(slices.Clone(h.recs[k:]), h.recs[:k]...)
		h.dropped += int64(h.n - len(recs))
		w.Header().Set("X-Esthera-Log-Dropped", strconv.FormatInt(h.dropped, 10))
		clear(h.recs)
		h.recs = h.recs[:0]
		h.n = 0
		h.mu.Unlock()
		w.Header().Set("Content-Type", "application/x-ndjson")
		out := slog.NewJSONHandler(w, &h.opts)
		for _, rec := range recs {
			if out.Handle(req.Context(), rec) != nil {
				return
			}
		}
	case http.MethodPost:
		var body struct {
			Level string `json:"level"`
		}
		dec := json.NewDecoder(http.MaxBytesReader(nil, req.Body, 1<<16))
		dec.DisallowUnknownFields()
		var lv slog.Level
		err := dec.Decode(&body)
		if err == nil {
			lv, err = ParseLevel(body.Level)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		h.level.Set(lv)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"level":"` + levelName(lv) + `"}` + "\n"))
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// schema is the JSON handler's ReplaceAttr: {"ts":RFC3339Nano UTC,
// "level":"info","proc":proc,"msg":...} plus attributes, durations as <key>_ns.
func schema(proc string) func([]string, slog.Attr) slog.Attr {
	return func(groups []string, a slog.Attr) slog.Attr {
		v := a.Value
		switch {
		case v.Kind() == slog.KindDuration:
			a.Key += "_ns"
		case len(groups) > 0: // ts, level and msg are top-level keys only
		case a.Key == slog.TimeKey && v.Kind() == slog.KindTime:
			a = slog.Time("ts", v.Time().UTC())
		case a.Key == slog.LevelKey && v.Kind() == slog.KindAny:
			if lv, ok := v.Any().(slog.Level); ok {
				a = slog.String(slog.LevelKey, levelName(lv))
				if proc != "" {
					// An empty-key group renders inline: proc follows level.
					a = slog.Attr{Value: slog.GroupValue(a, slog.String("proc", proc))}
				}
			}
		}
		return a
	}
}

var levels = map[string]slog.Level{
	"debug": slog.LevelDebug, "info": slog.LevelInfo, "": slog.LevelInfo,
	"warn": slog.LevelWarn, "warning": slog.LevelWarn, "error": slog.LevelError, "off": levelOff,
}

// ParseLevel parses debug, info (or ""), warn (or warning), error or off.
func ParseLevel(s string) (slog.Level, error) {
	if lv, ok := levels[s]; ok {
		return lv, nil
	}
	return slog.LevelInfo, fmt.Errorf("log: unknown level %q (debug, info, warn, error, off)", s)
}

// levelName spells lv the way ParseLevel reads it.
func levelName(lv slog.Level) string {
	if lv >= levelOff {
		return "off"
	}
	return strings.ToLower(lv.String())
}

// Trace correlates a record with a distributed trace: it renders as
// "trace" and "span" hex keys. Building it boxes tc (one allocation).
func Trace(tc telemetry.TraceContext) slog.Attr { return slog.Any("", traceValue(tc)) }

type traceValue telemetry.TraceContext

func (t traceValue) LogValue() slog.Value {
	return slog.GroupValue(slog.String("trace", t.Trace.String()), slog.String("span", strconv.FormatUint(t.Span, 16)))
}
