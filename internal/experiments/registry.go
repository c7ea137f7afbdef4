package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"
)

// Options are the knobs `esthera run` exposes. A zero field selects each
// experiment's own default: 8 runs × 60 steps for the accuracy
// experiments, 160 steps for Fig. 8, the reduced performance sweeps.
type Options struct {
	Runs, Steps int
	Seed        uint64
	Joints      int
	Workers     int
	// Full runs the performance figures at paper scale (up to 2M
	// particles).
	Full bool
	// Plot prints Fig. 8 as an ASCII chart instead of its table.
	Plot bool
}

func (o Options) accuracy() AccuracyOptions {
	return AccuracyOptions{Steps: o.Steps, Runs: o.Runs, Seed: o.Seed, Joints: o.Joints, Workers: o.Workers}
}

func (o Options) perf() PerfOptions {
	return PerfOptions{Totals: o.sweep(1<<10, 1<<13, 1<<16, 1<<18), Joints: o.Joints, Workers: o.Workers}
}

// sweep returns a figure's reduced x-axis, or nil (the paper's) under Full.
func (o Options) sweep(reduced ...int) []int {
	if o.Full {
		return nil
	}
	return reduced
}

// An Experiment regenerates one artifact of the evaluation.
type Experiment struct {
	Name string
	// Run prints the artifact to w and returns its tables.
	Run func(w io.Writer, o Options) ([]*Table, error)
}

// Registry is every experiment, in the order `esthera run` takes them
// when none is named.
var Registry = []Experiment{
	{"table3", tables(func(Options) ([]*Table, error) { return []*Table{Table3Platforms()}, nil })},
	{"fig3", perfTable(Fig3UpdateRate)},
	{"fig4a", tables(func(o Options) ([]*Table, error) {
		return one(Fig4aParticlesPerSubFilter(o.perf(), o.sweep(32, 128, 512)))
	})},
	{"fig4b", tables(func(o Options) ([]*Table, error) {
		return one(Fig4bSubFilters(o.perf(), o.sweep(64, 512, 2048)))
	})},
	{"fig4c", perfTable(func(o PerfOptions) (*Table, error) { return Fig4cStateDims(o, nil) })},
	{"fig4cpu", perfTable(func(o PerfOptions) (*Table, error) { return Fig4CPUBreakdown(o, nil) })},
	{"fig5", perfTable(Fig5Resampling)},
	{"fig6", tables(func(o Options) ([]*Table, error) { return Fig6ExchangeSchemes(o.accuracy()) })},
	{"fig7", accTable(Fig7ExchangeCount)},
	{"fig8", runFig8},
	{"fig9", accTable(func(o AccuracyOptions) (*Table, error) { return Fig9DistributedOverhead(o, nil, nil) })},
	{"policy", accTable(PolicyAblation)},
	{"variants", accTable(VariantsAblation)},
	{"estimator", accTable(EstimatorAblation)},
	{"diversity", accTable(DiversityAblation)},
	{"precision", accTable(PrecisionAblation)},
	{"embedded", accTable(EmbeddedScaleDown)},
	{"closedloop", accTable(ClosedLoopAblation)},
	{"cluster-scaling", accTable(func(o AccuracyOptions) (*Table, error) { return ClusterScaling(o, nil) })},
	{"cluster-failure", accTable(ClusterFailure)},
}

// Select returns the named experiments in the order given, or the whole
// Registry when names is empty.
func Select(names []string) ([]Experiment, error) {
	if len(names) == 0 {
		return Registry, nil
	}
	sel := make([]Experiment, 0, len(names))
	for _, name := range names {
		i := slices.IndexFunc(Registry, func(e Experiment) bool { return e.Name == name })
		if i < 0 {
			return nil, fmt.Errorf("unknown experiment %q (want one of: %s)", name, Names())
		}
		sel = append(sel, Registry[i])
	}
	return sel, nil
}

// Names lists the Registry's names, space-separated.
func Names() string {
	names := make([]string, len(Registry))
	for i, e := range Registry {
		names[i] = e.Name
	}
	return strings.Join(names, " ")
}

// tables adapts a runner whose output is its tables alone.
func tables(run func(Options) ([]*Table, error)) func(io.Writer, Options) ([]*Table, error) {
	return func(w io.Writer, o Options) ([]*Table, error) {
		ts, err := run(o)
		if err != nil {
			return nil, err
		}
		for _, t := range ts {
			t.Fprint(w)
		}
		return ts, nil
	}
}

// accTable adapts a one-table accuracy experiment.
func accTable(run func(AccuracyOptions) (*Table, error)) func(io.Writer, Options) ([]*Table, error) {
	return tables(func(o Options) ([]*Table, error) { return one(run(o.accuracy())) })
}

// perfTable adapts a one-table performance experiment.
func perfTable(run func(PerfOptions) (*Table, error)) func(io.Writer, Options) ([]*Table, error) {
	return tables(func(o Options) ([]*Table, error) { return one(run(o.perf())) })
}

func one(t *Table, err error) ([]*Table, error) {
	if err != nil {
		return nil, err
	}
	return []*Table{t}, nil
}

// runFig8 prints the Fig. 8 traces (or, under o.Plot, their chart) and
// the §VIII-A convergence verdicts.
func runFig8(w io.Writer, o Options) ([]*Table, error) {
	res, err := Fig8Trajectory(o.accuracy(), o.Steps)
	if err != nil {
		return nil, err
	}
	if o.Plot {
		fmt.Fprint(w, res.Chart())
	} else {
		res.Table.Fprint(w)
	}
	fmt.Fprintf(w, "high-particle trace: trailing error %.3f m, converged=%v\n", res.HighTrailing, res.HighConverged)
	fmt.Fprintf(w, "low-particle trace:  trailing error %.3f m, converged=%v\n", res.LowTrailing, res.LowConverged)
	return []*Table{res.Table}, nil
}
