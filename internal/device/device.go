// Package device provides the many-core execution substrate that stands in
// for the paper's CUDA/OpenCL devices (substitution recorded in DESIGN.md §2).
//
// The paper maps one particle to one GPU thread and one sub-filter to one
// work-group (§VI); work-groups run concurrently on the device's streaming
// multiprocessors / compute units, communicate through global memory only
// across kernel launches, and use fast local memory plus barriers within a
// group. This package reproduces that model in Go:
//
//   - A Device has a number of compute units, realized as persistent worker
//     goroutines started once in New (the GPU's persistent-thread idiom);
//     work-groups of a launch are scheduled across them.
//   - A kernel body is written in barrier-phased data-parallel form: a
//     sequence of Step(fn) calls, where each Step runs fn once per lane
//     and an implicit group-wide barrier separates consecutive steps —
//     exactly the discipline CUDA kernels with __syncthreads follow.
//   - Per-group local memory is allocated against a configurable capacity
//     (48 KiB by default, as on the paper's NVIDIA SMs), so kernels are
//     forced to size their working sets like real GPU kernels.
//   - Every launch is timed and its lane-operations and memory traffic are
//     counted, feeding both the Fig. 4 kernel-breakdown experiments and
//     the analytic platform cost model (internal/platform) used for Fig. 3.
//
// Kernel launches are globally synchronizing, as in CUDA's default stream:
// Launch returns only when every work-group has finished, so a kernel may
// read global data written by the previous kernel without further
// synchronization, but never data written by another group in the same
// launch. LaunchFused additionally lets a kernel body run several
// logically distinct phases back to back per work-group — the kernel
// fusion the GPU particle-filter literature applies to group-local phases
// — while still attributing time and work to per-phase profiler entries.
package device

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"esthera/internal/telemetry"
)

// DefaultLocalMemBytes is the per-group local memory capacity used when a
// Device is created with LocalMemBytes == 0. It matches the 48 KiB
// scratch-pad of the paper's NVIDIA SMs (Table III).
const DefaultLocalMemBytes = 48 * 1024

// Device models a many-core accelerator: a set of compute units executing
// work-groups, with per-group local memory and a launch profiler.
//
// The zero value is not ready to use; call New.
type Device struct {
	workers       int
	localMemBytes int
	prof          *Profiler

	// The persistent compute-unit pool: worker goroutines started once in
	// New, fed launches through tasks. Launch never blocks on the pool —
	// the launching goroutine always participates in draining its own
	// grid, so a saturated (or closed) pool degrades to caller-side
	// execution instead of deadlocking, and nested/concurrent launches
	// from independent goroutines make progress unconditionally.
	tasks chan *launchTask
	quit  chan struct{}
	once  sync.Once

	// groups recycles Group objects (and their local-memory arenas)
	// across launches. A drain participant holds one Group for every
	// work-group it runs, so a launch costs each participant one pop and
	// one push. Unlike a sync.Pool, this stack is neither emptied by
	// garbage collection nor split per P, so once it holds a Group per
	// concurrent participant no launch allocates one; popping the most
	// recently pushed Group keeps its arenas cache-warm.
	groupsMu sync.Mutex
	groups   []*Group

	// free recycles launchTask objects (with their completion channel and
	// phase-accounting slices), so launches allocate nothing. New fills
	// it: at most 2·workers queued references plus one per draining
	// worker can pin a task, so a launcher always finds an unpinned one.
	// A task is only reused once no stale submission-queue reference to
	// it remains (tracked by launchTask.refs).
	free chan *launchTask

	// tracer, when set and enabled, receives one span per launch plus
	// per-phase child spans for fused launches. Launch timing is
	// measured regardless; the tracer only re-records the already
	// measured intervals, so enabling it cannot change kernel results.
	tracer atomic.Pointer[telemetry.Tracer]
}

// Config configures a Device.
type Config struct {
	// Workers is the number of compute units (concurrently executing
	// work-groups). 0 means GOMAXPROCS.
	Workers int
	// LocalMemBytes is the per-group local-memory capacity. 0 means
	// DefaultLocalMemBytes; negative means unlimited.
	LocalMemBytes int
}

// New creates a Device and starts its persistent compute units.
func New(cfg Config) *Device {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	lm := cfg.LocalMemBytes
	if lm == 0 {
		lm = DefaultLocalMemBytes
	}
	d := &Device{
		workers:       w,
		localMemBytes: lm,
		prof:          NewProfiler(),
		tasks:         make(chan *launchTask, 2*w),
		quit:          make(chan struct{}),
		free:          make(chan *launchTask, 4*w),
		groups:        make([]*Group, 0, 4*w),
	}
	for i := 0; i < cap(d.free); i++ {
		d.free <- d.newTask()
	}
	// The compute units reference only the two channels, never the Device
	// itself, so an abandoned Device becomes unreachable, its finalizer
	// closes quit, and the workers exit instead of leaking.
	for i := 0; i < w; i++ {
		go computeUnit(d.tasks, d.quit)
	}
	runtime.SetFinalizer(d, (*Device).Close)
	return d
}

// Close stops the persistent compute units. It is idempotent — any mix of
// explicit double-Close and a later finalizer run resolves to exactly one
// shutdown — and optional (an unreachable Device is closed by a
// finalizer; explicit Close clears it). Launch remains valid after Close:
// the launching goroutine executes all work-groups itself.
func (d *Device) Close() {
	d.once.Do(func() {
		runtime.SetFinalizer(d, nil)
		close(d.quit)
	})
}

// computeUnit is one persistent worker: it drains whole launches, one at
// a time, until the device is closed.
func computeUnit(tasks <-chan *launchTask, quit <-chan struct{}) {
	for {
		select {
		case t := <-tasks:
			t.drain()
			t.refs.Add(-1)
		case <-quit:
			return
		}
	}
}

// Workers returns the number of compute units.
func (d *Device) Workers() int { return d.workers }

// SetTracer attaches a span tracer; launches record one span each (and
// fused launches one child span per phase). Pass nil to detach. Safe
// to call concurrently with launches.
func (d *Device) SetTracer(tr *telemetry.Tracer) { d.tracer.Store(tr) }

// Tracer returns the attached span tracer, or nil.
func (d *Device) Tracer() *telemetry.Tracer { return d.tracer.Load() }

// Profiler returns the device's launch profiler.
func (d *Device) Profiler() *Profiler { return d.prof }

// Grid describes the shape of a kernel launch: Groups work-groups of
// GroupSize lanes each.
type Grid struct {
	Groups    int
	GroupSize int
}

// KernelFunc is a kernel body, executed once per work-group.
type KernelFunc func(g *Group)

// LaunchStats reports the measured cost of one kernel launch (or, for
// LaunchFused, one phase of a fused launch).
type LaunchStats struct {
	Name    string
	Grid    Grid
	Elapsed time.Duration
	Count   Counters
}

// launchTask is one in-flight kernel launch. Work-groups are claimed in
// contiguous runs from the atomic next counter (see claim), so any
// number of compute units (plus the launching goroutine) can
// cooperatively drain one grid; every counter below is task-local, so
// concurrent launches never interleave their accounting.
type launchTask struct {
	dev    *Device
	grid   Grid
	kern   KernelFunc
	phases int // 0 for plain launches

	next    atomic.Int64 // next unclaimed group id
	pending atomic.Int64 // groups whose results are not yet folded in
	refs    atomic.Int64 // outstanding submission-queue references

	mu          sync.Mutex
	total       Counters
	phaseTotals []Counters
	phaseTimes  []time.Duration
	panics      []interface{}

	// statsBuf backs LaunchFused's returned per-phase stats; it is owned
	// by the (recycled) task, so the returned slice is only valid until a
	// later launch reuses this task.
	statsBuf []LaunchStats

	done chan struct{} // receives one token when pending reaches zero
}

// claimSplit sets the guided claim size (see claim).
const claimSplit = 2

// claim takes the next contiguous run [lo, hi) of unclaimed groups, or
// an empty run once the grid is exhausted. It is guided
// self-scheduling: a run is max(1, remaining/(claimSplit·workers))
// groups, so the first claims are large and the last ones single
// groups, which keeps the participants' finishing times within about
// a group of each other. A run, rather than one group per claim, keeps
// adjacent sub-filters on one core: their small per-group state
// (sorting-network stages, stream positions, column headers, flags)
// sits side by side in memory, and groups dealt out one at a time
// bounce those cache lines between the cores at every launch.
func (t *launchTask) claim() (lo, hi int64) {
	groups := int64(t.grid.Groups)
	split := int64(claimSplit * t.dev.workers)
	for {
		lo = t.next.Load()
		left := groups - lo
		if left <= 0 {
			return lo, lo
		}
		n := left / split
		if n < 1 {
			n = 1
		}
		if t.next.CompareAndSwap(lo, lo+n) {
			return lo, lo + n
		}
	}
}

// drain claims and executes work-groups until the grid is exhausted,
// folding this participant's accounting into the task once at the end.
func (t *launchTask) drain() {
	var (
		local Counters
		g     *Group
		ran   int64
	)
	for {
		lo, hi := t.claim()
		if lo == hi {
			break
		}
		if g == nil {
			g = t.dev.getGroup()
			g.beginDrain(t.phases)
		}
		for gid := lo; gid < hi; gid++ {
			t.runGroup(g, int(gid), &local)
		}
		ran += hi - lo
	}
	if ran == 0 {
		return
	}
	t.mu.Lock()
	t.total.Add(&local)
	for i := range g.drainPhases {
		t.phaseTotals[i].Add(&g.drainPhases[i])
		t.phaseTimes[i] += g.drainTimes[i]
	}
	t.mu.Unlock()
	t.dev.putGroup(g)
	// Completion is signaled only after this participant's counters are
	// visible, so the launcher reads a consistent total after <-done.
	// Exactly one participant observes zero, so the buffered send never
	// blocks, and the channel is drained by finish — ready for reuse.
	if t.pending.Add(-ran) == 0 {
		t.done <- struct{}{}
	}
}

// runGroup executes the kernel for work-group gid on the participant's
// Group, recovering panics (e.g. local-memory overflow) so a kernel
// failure is propagated to the launching goroutine without killing the
// persistent worker that happened to execute it.
func (t *launchTask) runGroup(g *Group, gid int, local *Counters) {
	g.reset(gid, t.grid.GroupSize, t.dev.localMemBytes, t.phases)
	defer func() {
		if r := recover(); r != nil {
			t.mu.Lock()
			t.panics = append(t.panics, r)
			t.mu.Unlock()
		}
		g.finish(local)
	}()
	t.kern(g)
}

// getGroup pops the most recently recycled Group, or allocates one.
func (d *Device) getGroup() *Group {
	d.groupsMu.Lock()
	defer d.groupsMu.Unlock()
	n := len(d.groups)
	if n == 0 {
		return &Group{}
	}
	g := d.groups[n-1]
	d.groups = d.groups[:n-1]
	return g
}

// putGroup pushes a Group for a later drain; one beyond the stack's
// capacity is left to the garbage collector.
func (d *Device) putGroup(g *Group) {
	d.groupsMu.Lock()
	defer d.groupsMu.Unlock()
	if len(d.groups) < cap(d.groups) {
		d.groups = append(d.groups, g)
	}
}

// taskPhases is the fused-phase capacity a task is built with, enough
// for every fused launch the kernels issue, so reusing a task for a
// wider launch than its last one allocates nothing.
const taskPhases = 4

// newTask builds an idle launch task.
func (d *Device) newTask() *launchTask {
	return &launchTask{
		dev:         d,
		done:        make(chan struct{}, 1),
		phaseTotals: make([]Counters, 0, taskPhases),
		phaseTimes:  make([]time.Duration, 0, taskPhases),
		statsBuf:    make([]LaunchStats, 0, taskPhases),
	}
}

// getTask pops a recycled launchTask, or allocates one. A task is never
// reused while a submission-queue reference to it is live: that happens
// whenever the launcher drained the whole grid before a queued helper
// woke up, which at two or more workers is most launches (and at one P,
// where a woken helper waits for the launcher to block, nearly all).
// Such a task goes back on the free list for a later launch and the next
// one is tried, so the launch allocates only when every free task is
// still referenced, which with one launcher cannot happen.
func (d *Device) getTask() *launchTask {
	for n := len(d.free); n > 0; n-- {
		select {
		case t := <-d.free:
			if t.refs.Load() == 0 {
				return t
			}
			d.putTask(t)
		default:
		}
	}
	return d.newTask()
}

// putTask returns a finished, fully-read task to the freelist.
func (d *Device) putTask(t *launchTask) {
	t.kern = nil
	select {
	case d.free <- t:
	default:
	}
}

// start validates the grid, builds the task, and wakes up to
// min(workers, groups) - 1 pool workers; the caller is always the final
// participant and must call t.drain() followed by <-t.done.
func (d *Device) start(grid Grid, phases int, k KernelFunc) *launchTask {
	if grid.Groups <= 0 || grid.GroupSize <= 0 {
		panic(fmt.Sprintf("device: invalid grid %+v", grid))
	}
	t := d.getTask()
	t.grid, t.kern, t.phases = grid, k, phases
	t.next.Store(0)
	t.pending.Store(int64(grid.Groups))
	t.total = Counters{}
	t.panics = t.panics[:0]
	if phases > 0 {
		if cap(t.phaseTotals) < phases {
			t.phaseTotals = make([]Counters, phases)
			t.phaseTimes = make([]time.Duration, phases)
			t.statsBuf = make([]LaunchStats, phases)
		}
		t.phaseTotals = t.phaseTotals[:phases]
		t.phaseTimes = t.phaseTimes[:phases]
		t.statsBuf = t.statsBuf[:phases]
		for i := range t.phaseTotals {
			t.phaseTotals[i] = Counters{}
			t.phaseTimes[i] = 0
		}
	}
	helpers := d.workers - 1
	if helpers > grid.Groups-1 {
		helpers = grid.Groups - 1
	}
	for i := 0; i < helpers; i++ {
		t.refs.Add(1)
		select {
		case d.tasks <- t:
		default:
			// Pool submission queue is full (deep concurrent launches):
			// the remaining groups are drained by the caller and by
			// whichever workers free up to take the queued references.
			t.refs.Add(-1)
			return t
		}
	}
	return t
}

// finish waits for completion and propagates the first kernel panic. A
// panicking task is never recycled, so the panic value stays intact.
func (t *launchTask) finish() {
	t.drain()
	<-t.done
	if len(t.panics) > 0 {
		panic(t.panics[0])
	}
}

// Launch runs the kernel over the grid, blocking until all work-groups
// complete, and records the launch under name in the profiler.
//
// Work-groups may be executed in any order and concurrently; a kernel must
// only write global data that no other group of the same launch touches.
// Launch is safe to call from concurrent goroutines: each launch's
// accounting is isolated, and the launching goroutine always participates
// in executing its own grid, so progress never depends on pool capacity.
func (d *Device) Launch(name string, grid Grid, k KernelFunc) LaunchStats {
	start := time.Now()
	t := d.start(grid, 0, k)
	t.finish()
	stats := LaunchStats{Name: name, Grid: grid, Elapsed: time.Since(start), Count: t.total}
	d.putTask(t)
	d.prof.record(stats)
	if tr := d.tracer.Load(); tr.Enabled() {
		ev := telemetry.Event{Name: name, Cat: "launch", TS: tr.Stamp(start), Dur: stats.Elapsed}
		ev.SetArg("groups", int64(grid.Groups))
		ev.SetArg("lanes", int64(grid.GroupSize))
		tr.Record(ev)
	}
	return stats
}

// LaunchFused runs one kernel body that executes several logically
// distinct phases back to back per work-group — the kernel-fusion
// optimization for group-local pipelines, where only the trailing global
// barrier is semantically required and the intermediate launch
// boundaries were pure overhead. The body selects the active phase with
// Group.Phase(i); work accounted before the first Phase call lands in
// phase 0.
//
// The launch is recorded in the profiler as one entry per phase name:
// each phase receives its exact work counters and a share of the
// launch's wall-clock time proportional to the CPU time its sections
// consumed across all groups, so kernel-breakdown experiments (Fig. 4)
// see the same per-phase attribution as with separate launches. The
// returned slice holds the per-phase stats in phase order; it is backed
// by recycled launch state and only valid until a later launch on this
// device — copy it to retain it.
func (d *Device) LaunchFused(phases []string, grid Grid, k KernelFunc) []LaunchStats {
	if len(phases) == 0 {
		panic("device: LaunchFused requires at least one phase name")
	}
	start := time.Now()
	t := d.start(grid, len(phases), k)
	t.finish()
	wall := time.Since(start)

	var busy time.Duration
	for _, pt := range t.phaseTimes {
		busy += pt
	}
	out := t.statsBuf
	var attributed time.Duration
	for i, name := range phases {
		share := wall / time.Duration(len(phases))
		if busy > 0 {
			share = time.Duration(float64(wall) * (float64(t.phaseTimes[i]) / float64(busy)))
		}
		if i == len(phases)-1 {
			share = wall - attributed // exact: shares sum to the wall time
		}
		attributed += share
		out[i] = LaunchStats{Name: name, Grid: grid, Elapsed: share, Count: t.phaseTotals[i]}
		d.prof.record(out[i])
	}
	if tr := d.tracer.Load(); tr.Enabled() {
		// One parent span for the fused launch plus one child per phase,
		// laid end to end using the profiler's attributed shares; batched
		// so they land on one track and nest by containment in viewers.
		evs := make([]telemetry.Event, 0, len(phases)+1)
		parent := telemetry.Event{Name: "fused", Cat: "launch", TS: tr.Stamp(start), Dur: wall}
		parent.SetArg("groups", int64(grid.Groups))
		parent.SetArg("phases", int64(len(phases)))
		evs = append(evs, parent)
		off := tr.Stamp(start)
		for i, name := range phases {
			evs = append(evs, telemetry.Event{Name: name, Cat: "phase", TS: off, Dur: out[i].Elapsed})
			off += out[i].Elapsed
		}
		tr.RecordBatch(evs)
	}
	d.putTask(t)
	return out
}
