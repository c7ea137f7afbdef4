package device

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"esthera/internal/telemetry"
)

// Profiler accumulates per-kernel launch statistics. It backs the Fig. 4
// kernel-breakdown experiments and supplies the work counts consumed by
// the analytic platform model (Fig. 3).
type Profiler struct {
	mu      sync.Mutex
	entries map[string]*KernelStats
	order   []string // first-launch order, for stable reporting
}

// KernelStats is the accumulated record for one kernel name. It is plain
// copyable data (JSON: Elapsed as integer nanoseconds), so snapshots can
// be handed out without sharing profiler state.
type KernelStats struct {
	Name     string        `json:"name"`
	Launches int64         `json:"launches"`
	Elapsed  time.Duration `json:"elapsed_ns"`
	Count    Counters      `json:"counters"`
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{entries: make(map[string]*KernelStats)}
}

func (p *Profiler) record(s LaunchStats) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.entries[s.Name]
	if e == nil {
		e = &KernelStats{Name: s.Name}
		p.entries[s.Name] = e
		p.order = append(p.order, s.Name)
	}
	e.Launches++
	e.Elapsed += s.Elapsed
	e.Count.Add(&s.Count)
}

// Reset clears all accumulated statistics.
func (p *Profiler) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.entries = make(map[string]*KernelStats)
	p.order = nil
}

// Snapshot returns a copy of the per-kernel statistics in first-launch
// order.
func (p *Profiler) Snapshot() []KernelStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]KernelStats, 0, len(p.order))
	for _, name := range p.order {
		out = append(out, *p.entries[name])
	}
	return out
}

// Stats is the copyable export of a profiler: every kernel's
// accumulated record plus the totals, taken atomically. The serve
// layer carries it in its in-process Stats snapshot and renders it
// into /metrics with Collect.
type Stats struct {
	// TotalElapsed is the summed kernel time (integer nanoseconds in
	// JSON).
	TotalElapsed time.Duration `json:"total_elapsed_ns"`
	// TotalLaunches is the summed launch count.
	TotalLaunches int64 `json:"total_launches"`
	// Kernels lists per-kernel records in first-launch order.
	Kernels []KernelStats `json:"kernels"`
}

// Stats returns the profiler's full accumulated statistics as one
// consistent, detached copy.
func (p *Profiler) Stats() Stats {
	snap := p.Snapshot()
	st := Stats{Kernels: snap}
	for _, e := range snap {
		st.TotalElapsed += e.Elapsed
		st.TotalLaunches += e.Launches
	}
	return st
}

// Collect emits the snapshot into a telemetry registry gather:
// per-kernel elapsed time and launch counts under the esthera_kernel_*
// names, so device profiling joins the unified /metrics exposition.
func (st Stats) Collect(e *telemetry.Emitter) {
	e.Counter("esthera_kernel_launches_total", "Kernel launches by kernel name.",
		float64(st.TotalLaunches))
	e.Counter("esthera_kernel_elapsed_seconds_total", "Accumulated kernel wall time.",
		st.TotalElapsed.Seconds())
	for _, k := range st.Kernels {
		e.Counter("esthera_kernel_seconds_total", "Accumulated wall time per kernel.",
			k.Elapsed.Seconds(), "kernel", k.Name)
		e.Counter("esthera_kernel_runs_total", "Launches per kernel.",
			float64(k.Launches), "kernel", k.Name)
	}
}

// Total returns the summed elapsed time over all kernels.
func (p *Profiler) Total() time.Duration {
	var t time.Duration
	for _, e := range p.Snapshot() {
		t += e.Elapsed
	}
	return t
}

// Breakdown returns each kernel's fraction of the total elapsed time,
// sorted descending. This is the quantity plotted in Fig. 4.
func (p *Profiler) Breakdown() []Fraction {
	snap := p.Snapshot()
	var total time.Duration
	for _, e := range snap {
		total += e.Elapsed
	}
	out := make([]Fraction, 0, len(snap))
	for _, e := range snap {
		f := 0.0
		if total > 0 {
			f = float64(e.Elapsed) / float64(total)
		}
		out = append(out, Fraction{Name: e.Name, Fraction: f, Elapsed: e.Elapsed})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Fraction > out[j].Fraction })
	return out
}

// Fraction is one kernel's share of a breakdown.
type Fraction struct {
	Name     string
	Fraction float64
	Elapsed  time.Duration
}

// String renders the breakdown as a compact single-line summary.
func (p *Profiler) String() string {
	var b strings.Builder
	for i, f := range p.Breakdown() {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%s=%.1f%%", f.Name, 100*f.Fraction)
	}
	return b.String()
}
