package device

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// claimGrids and claimWorkers span the guided claim's edge cases: a
// one-group grid, grids smaller than the pool, grids that do not divide
// by claimSplit·workers, and grids one either side of a power of two.
var (
	claimGrids   = []int{1, 2, 3, 5, 16, 37, 64, 511, 512, 513}
	claimWorkers = []int{1, 2, 3, 4, 16}
)

// claimSize is the lane count of every claim-coverage launch.
const claimSize = 3

// claimKernel runs work that differs per group, so a group run twice or
// skipped changes the launch's totals: group gid marks itself in hits,
// then runs gid%3+1 steps in which each lane accounts gid+1 ops.
// The phase switch lands the last step in phase 1 of a fused launch.
func claimKernel(hits []int64, fused bool) KernelFunc {
	return func(g *Group) {
		gid := g.ID()
		atomic.AddInt64(&hits[gid], 1)
		steps := gid%3 + 1
		for s := 0; s < steps; s++ {
			if fused && s == steps-1 {
				g.Phase(1)
			}
			g.StepSpan(func(lo, hi int) {
				for lane := lo; lane < hi; lane++ {
					g.Ops(gid + 1)
				}
			})
		}
	}
}

// claimWant returns the exact totals claimKernel accounts over a grid:
// all of them for a plain launch, and the phase 0 and phase 1 shares of
// a fused one.
func claimWant(groups int) (all, phase0, phase1 Counters) {
	for gid := 0; gid < groups; gid++ {
		steps := int64(gid%3 + 1)
		ops := int64(claimSize * (gid + 1))
		all.Steps += steps
		all.LaneInvocations += steps * claimSize
		all.Ops += steps * ops
		phase0.Steps += steps - 1
		phase0.LaneInvocations += (steps - 1) * claimSize
		phase0.Ops += (steps - 1) * ops
		phase1.Steps++
		phase1.LaneInvocations += claimSize
		phase1.Ops += ops
	}
	return all, phase0, phase1
}

// claimTimeout bounds one claim-coverage launch. A claim rule that
// loses or repeats a group leaves its launch waiting forever for its
// pending count to reach zero, so runClaims reports the groups that did
// not run exactly once instead of hanging.
const claimTimeout = 10 * time.Second

// runClaims launches claimKernel over len(hits) groups, plain under name
// or fused under name+"/a" and name+"/b", and checks that every group
// ran exactly once. The callers read the totals from the profiler:
// LaunchFused's returned slice belongs to a recycled task, which a
// concurrent launch on the same device may already be reusing.
func runClaims(d *Device, name string, hits []int64, fused bool) error {
	grid := Grid{Groups: len(hits), GroupSize: claimSize}
	done := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- fmt.Errorf("launch panicked: %v", r)
			}
		}()
		if fused {
			d.LaunchFused([]string{name + "/a", name + "/b"}, grid, claimKernel(hits, true))
		} else {
			d.Launch(name, grid, claimKernel(hits, false))
		}
		done <- nil
	}()
	timer := time.NewTimer(claimTimeout)
	defer timer.Stop()
	var err error
	select {
	case err = <-done:
	case <-timer.C:
		err = fmt.Errorf("launch did not return within %v", claimTimeout)
	}
	var wrong []string
	for gid := range hits {
		if h := atomic.LoadInt64(&hits[gid]); h != 1 {
			wrong = append(wrong, fmt.Sprintf("group %d ran %d times", gid, h))
		}
	}
	if len(wrong) > 0 {
		err = errors.Join(err, errors.New(strings.Join(wrong, ", ")))
	}
	return err
}

// profiled returns the profiler's entries by kernel name.
func profiled(d *Device) map[string]KernelStats {
	got := make(map[string]KernelStats)
	for _, e := range d.Profiler().Snapshot() {
		got[e.Name] = e
	}
	return got
}

// sameTotals compares the counters claimKernel sets.
func sameTotals(what string, got, want Counters) error {
	if got.Ops != want.Ops || got.Steps != want.Steps || got.LaneInvocations != want.LaneInvocations {
		return fmt.Errorf("%s: ops/steps/lanes = %d/%d/%d, want %d/%d/%d", what,
			got.Ops, got.Steps, got.LaneInvocations, want.Ops, want.Steps, want.LaneInvocations)
	}
	return nil
}

// TestClaimsCoverGrid checks the guided claims at every grid and worker
// count of the table, for Launch and LaunchFused: each group runs
// exactly once and Ops, Steps and LaneInvocations are exact. An
// off-by-one in the claim arithmetic shows in the last, partial claim.
func TestClaimsCoverGrid(t *testing.T) {
	for _, workers := range claimWorkers {
		d := New(Config{Workers: workers, LocalMemBytes: -1})
		for _, groups := range claimGrids {
			all, phase0, phase1 := claimWant(groups)
			for _, fused := range []bool{false, true} {
				want := map[string]Counters{"claim": all}
				if fused {
					want = map[string]Counters{"claim/a": phase0, "claim/b": phase1}
				}
				// Repeats reuse recycled tasks and Groups, and let the
				// helpers join at different points of the grid.
				for r := 0; r < 3; r++ {
					where := fmt.Sprintf("workers=%d groups=%d fused=%v repeat %d", workers, groups, fused, r)
					d.Profiler().Reset()
					if err := runClaims(d, "claim", make([]int64, groups), fused); err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					got := profiled(d)
					if len(got) != len(want) {
						t.Fatalf("%s: %d profiler entries, want %d", where, len(got), len(want))
					}
					for name, w := range want {
						if err := sameTotals(where+" "+name, got[name].Count, w); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
		d.Close()
	}
}

// TestClaimsCoverGridConcurrently runs four launchers on one device,
// each sweeping the grid table with plain and fused launches, so their
// helpers interleave claims on different grids of the same pool. Each
// launcher records its launches under names of its own, and the
// profiler's totals for those names must equal the table's sums.
func TestClaimsCoverGridConcurrently(t *testing.T) {
	const launchers = 4
	for _, workers := range claimWorkers {
		d := New(Config{Workers: workers, LocalMemBytes: -1})
		want := make(map[string]Counters)
		var wg sync.WaitGroup
		for l := 0; l < launchers; l++ {
			name := fmt.Sprintf("claim-%d", l)
			var plain, a, b Counters
			for _, groups := range claimGrids {
				all, phase0, phase1 := claimWant(groups)
				plain.Add(&all)
				a.Add(&phase0)
				b.Add(&phase1)
			}
			want[name], want[name+"/a"], want[name+"/b"] = plain, a, b
			wg.Add(1)
			go func(l int) {
				defer wg.Done()
				for i := range claimGrids {
					// Each launcher walks the table from its own offset, so
					// concurrent launches differ in size.
					groups := claimGrids[(i+l)%len(claimGrids)]
					for _, fused := range []bool{false, true} {
						if err := runClaims(d, name, make([]int64, groups), fused); err != nil {
							t.Errorf("workers=%d launcher %d groups=%d fused=%v: %v", workers, l, groups, fused, err)
							return
						}
					}
				}
			}(l)
		}
		wg.Wait()
		d.Close()
		if t.Failed() {
			return
		}
		got := profiled(d)
		for name, w := range want {
			e := got[name]
			if e.Launches != int64(len(claimGrids)) {
				t.Errorf("workers=%d %s: %d launches, want %d", workers, name, e.Launches, len(claimGrids))
			}
			if err := sameTotals(fmt.Sprintf("workers=%d %s", workers, name), e.Count, w); err != nil {
				t.Error(err)
			}
		}
	}
}

// TestClaimRunsShrink pins the guided rule itself on one participant:
// claims are contiguous, each takes max(1, remaining/(claimSplit·workers))
// groups, and together they cover the grid once, in order.
func TestClaimRunsShrink(t *testing.T) {
	for _, workers := range claimWorkers {
		for _, groups := range claimGrids {
			task := &launchTask{dev: &Device{workers: workers}, grid: Grid{Groups: groups, GroupSize: 1}}
			var at int64
			for {
				lo, hi := task.claim()
				if lo == hi {
					break
				}
				want := (int64(groups) - at) / int64(claimSplit*workers)
				if want < 1 {
					want = 1
				}
				if lo != at || hi-lo != want {
					t.Fatalf("workers=%d groups=%d: claim [%d, %d), want [%d, %d)", workers, groups, lo, hi, at, at+want)
				}
				at = hi
			}
			if at != int64(groups) {
				t.Fatalf("workers=%d groups=%d: claims stopped at %d", workers, groups, at)
			}
		}
	}
}
