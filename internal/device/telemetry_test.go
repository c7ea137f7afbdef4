package device

import (
	"testing"
	"time"

	"esthera/internal/telemetry"
)

// TestLaunchRecordsSpans asserts the device emits one span per launch
// with the launch's name and grid args, and nothing when the tracer is
// disabled or detached.
func TestLaunchRecordsSpans(t *testing.T) {
	d := New(Config{Workers: 2})
	defer d.Close()

	d.Launch("untraced", Grid{Groups: 2, GroupSize: 4}, func(g *Group) {})

	tr := telemetry.New()
	d.SetTracer(tr)
	d.Launch("disabled", Grid{Groups: 2, GroupSize: 4}, func(g *Group) {})
	if evs := tr.Drain(); len(evs) != 0 {
		t.Fatalf("disabled tracer recorded %d events", len(evs))
	}

	tr.SetEnabled(true)
	d.Launch("traced", Grid{Groups: 3, GroupSize: 8}, func(g *Group) {})
	evs := tr.Drain()
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Name != "traced" || ev.Cat != "launch" {
		t.Fatalf("span %q/%q, want traced/launch", ev.Name, ev.Cat)
	}
	if ev.Dur <= 0 {
		t.Errorf("span duration %v, want > 0", ev.Dur)
	}
	args := map[string]int64{}
	for _, a := range ev.Args {
		args[a.Name] = a.Value
	}
	if args["groups"] != 3 || args["lanes"] != 8 {
		t.Errorf("span args %v, want groups=3 lanes=8", ev.Args)
	}
}

// TestLaunchFusedRecordsNestedPhases asserts a fused launch emits a
// parent span plus one child per phase, all on the same track (so trace
// viewers nest them), with the children tiling the parent exactly: the
// phase spans are the profiler's attributed shares, not re-measured.
func TestLaunchFusedRecordsNestedPhases(t *testing.T) {
	d := New(Config{Workers: 2})
	defer d.Close()
	tr := telemetry.New()
	tr.SetEnabled(true)
	d.SetTracer(tr)

	phases := []string{"alpha", "beta", "gamma"}
	d.LaunchFused(phases, Grid{Groups: 4, GroupSize: 8}, func(g *Group) {
		for i := range phases {
			g.Phase(i)
			g.StepOne(func() { time.Sleep(100 * time.Microsecond) })
		}
	})

	evs := tr.Drain()
	if len(evs) != 1+len(phases) {
		t.Fatalf("got %d events, want %d", len(evs), 1+len(phases))
	}
	var parent *telemetry.Event
	children := map[string]telemetry.Event{}
	for i := range evs {
		if evs[i].Name == "fused" {
			parent = &evs[i]
		} else {
			children[evs[i].Name] = evs[i]
		}
	}
	if parent == nil {
		t.Fatal("no fused parent span")
	}
	var sum time.Duration
	for _, name := range phases {
		c, ok := children[name]
		if !ok {
			t.Fatalf("missing phase span %q", name)
		}
		if c.Cat != "phase" {
			t.Errorf("phase %q cat %q", name, c.Cat)
		}
		if c.TID != parent.TID {
			t.Errorf("phase %q on track %d, parent on %d: children must share the parent's track", name, c.TID, parent.TID)
		}
		if c.TS < parent.TS || c.TS+c.Dur > parent.TS+parent.Dur {
			t.Errorf("phase %q [%v,%v] outside parent [%v,%v]", name, c.TS, c.TS+c.Dur, parent.TS, parent.TS+parent.Dur)
		}
		sum += c.Dur
	}
	if sum != parent.Dur {
		t.Errorf("phase durations sum to %v, parent %v: children must tile the parent", sum, parent.Dur)
	}
}
