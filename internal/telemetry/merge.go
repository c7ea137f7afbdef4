package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Multi-process trace merging. Each process in a swarm drains its own
// tracer; its raw trace file carries the tracer's epoch (wall clock)
// and process name. The router additionally estimates every replica's
// clock offset from its health probes (see shard.Router). Merging maps
// each process's epoch-relative timestamps onto the reference (router)
// clock:
//
//	unified(ev) = (EpochUnixNano - OffsetNS) + ev.TS
//
// where OffsetNS = remote_clock - reference_clock, so subtracting it
// re-expresses remote wall-clock instants in reference time. The
// earliest unified instant becomes t=0 of the merged timeline.

// ProcessTrace is one process's contribution to a merged timeline.
// Multiple ProcessTraces may share a Meta.Process name (periodic drains
// of the same tracer); they land on the same merged track.
type ProcessTrace struct {
	Meta TraceMeta
	// OffsetNS is the estimated clock offset of this process relative
	// to the reference clock (remote minus reference), as reported by
	// the router's ping-based estimator. 0 for the reference process.
	OffsetNS int64
	Events   []Event
}

// MergeStats summarizes a merged timeline.
type MergeStats struct {
	Processes          int `json:"processes"`
	Events             int `json:"events"`
	Traces             int `json:"traces"`
	CrossProcessTraces int `json:"cross_process_traces"`
}

// CrossTrace describes one trace ID observed in two or more processes —
// the signature of a request that actually crossed the transport.
type CrossTrace struct {
	Trace     TraceID  `json:"trace"`
	Processes []string `json:"processes"`
	Spans     []string `json:"spans"`
}

// MergeTraces aligns per-process traces onto one timeline and writes a
// single Chrome trace with one pid (and process_name metadata) per
// process. It returns summary stats plus every cross-process trace,
// which the chaos drill asserts on.
func MergeTraces(w io.Writer, procs []ProcessTrace) (MergeStats, []CrossTrace, error) {
	if len(procs) == 0 {
		return MergeStats{}, nil, fmt.Errorf("telemetry: merge of zero traces")
	}
	// Track assignment: one pid per distinct process name, in first-seen
	// order. Unnamed inputs get positional names so nothing collapses
	// silently.
	pids := map[string]int{}
	var names []string
	nameOf := func(i int, p ProcessTrace) string {
		if p.Meta.Process != "" {
			return p.Meta.Process
		}
		return fmt.Sprintf("proc-%d", i+1)
	}
	for i, p := range procs {
		name := nameOf(i, p)
		if _, ok := pids[name]; !ok {
			pids[name] = len(names) + 1
			names = append(names, name)
		}
	}

	// Reference instant: the earliest offset-corrected epoch. Files
	// without an epoch (hand-converted Chrome input) keep their own
	// zero, which leaves them overlaid at the timeline origin rather
	// than rejected.
	var base int64
	haveBase := false
	for _, p := range procs {
		if p.Meta.EpochUnixNano == 0 {
			continue
		}
		u := p.Meta.EpochUnixNano - p.OffsetNS
		if !haveBase || u < base {
			base, haveBase = u, true
		}
	}

	out := chromeTrace{}
	for _, name := range names {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", PID: pids[name],
			Args: map[string]any{"name": name},
		})
	}

	stats := MergeStats{Processes: len(names)}
	byTrace := map[TraceID]*CrossTrace{}
	seenIn := map[TraceID]map[string]bool{}
	var merged []chromeEvent
	for i, p := range procs {
		name := nameOf(i, p)
		shift := int64(0)
		if p.Meta.EpochUnixNano != 0 && haveBase {
			shift = (p.Meta.EpochUnixNano - p.OffsetNS) - base
		}
		for _, ev := range p.Events {
			ev.TS += time.Duration(shift)
			ce := toChromeEvent(ev, pids[name])
			merged = append(merged, ce)
			stats.Events++
			if ev.Trace.IsZero() {
				continue
			}
			ct := byTrace[ev.Trace]
			if ct == nil {
				ct = &CrossTrace{Trace: ev.Trace}
				byTrace[ev.Trace] = ct
				seenIn[ev.Trace] = map[string]bool{}
			}
			if !seenIn[ev.Trace][name] {
				seenIn[ev.Trace][name] = true
				ct.Processes = append(ct.Processes, name)
			}
			ct.Spans = append(ct.Spans, ev.Name)
		}
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].TS != merged[j].TS {
			return merged[i].TS < merged[j].TS
		}
		return merged[i].Name < merged[j].Name
	})
	out.TraceEvents = append(out.TraceEvents, merged...)

	stats.Traces = len(byTrace)
	var cross []CrossTrace
	for _, ct := range byTrace {
		if len(ct.Processes) < 2 {
			continue
		}
		sort.Strings(ct.Processes)
		ct.Spans = dedupSorted(ct.Spans)
		cross = append(cross, *ct)
	}
	sort.Slice(cross, func(i, j int) bool { return cross[i].Trace.String() < cross[j].Trace.String() })
	stats.CrossProcessTraces = len(cross)

	if w != nil {
		if err := json.NewEncoder(w).Encode(out); err != nil {
			return stats, cross, err
		}
	}
	return stats, cross, nil
}

// dedupSorted sorts and uniques a string slice in place.
func dedupSorted(s []string) []string {
	sort.Strings(s)
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}
