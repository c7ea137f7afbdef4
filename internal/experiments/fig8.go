package experiments

import (
	"fmt"
	"strconv"

	"esthera/internal/exchange"
	"esthera/internal/filter"
	"esthera/internal/metrics"
	"esthera/internal/plot"
	"esthera/internal/rng"
)

// Fig8Trajectory reproduces Figure 8: the lemniscate ground truth with
// two filter traces — a high-particle configuration that converges onto
// the path and a low-particle configuration that does not. The returned
// table holds the raw traces (for plotting or CSV export); Converged
// reports the §VIII-A validation outcome for both.
type Fig8Result struct {
	Table         *Table
	HighConverged bool
	LowConverged  bool
	HighTrailing  float64 // trailing-window mean error [m]
	LowTrailing   float64
}

// Fig8Trajectory runs the validation experiment. steps defaults to 160
// (four fifths of the 200-step lemniscate circuit).
func Fig8Trajectory(o AccuracyOptions, steps int) (*Fig8Result, error) {
	o = o.withDefaults()
	if steps == 0 {
		steps = 160
	}
	m, sc, err := armScenario(o.Joints)
	if err != nil {
		return nil, err
	}

	mkHigh := func(seed uint64) (filter.Filter, error) {
		// Converging configuration (64 sub-filters × 64 particles, ring).
		return parallelArmFilter(o, m, 64, 64, 1, exchange.Ring, seed)
	}
	mkLow := func(seed uint64) (filter.Filter, error) {
		// Too few particles to reliably acquire the path.
		return filter.NewCentralized(m, 8, seed, filter.CentralizedOptions{})
	}

	// Convergence verdicts average a few independent runs: a single
	// low-particle run occasionally gets lucky (and a high-particle run
	// occasionally stumbles), but the means separate cleanly.
	window := steps / 3
	trailing := func(mk func(seed uint64) (filter.Filter, error), runs int) (float64, error) {
		sum := 0.0
		for r := 0; r < runs; r++ {
			f, err := mk(o.Seed + uint64(r))
			if err != nil {
				return 0, err
			}
			s := metrics.Run(f, sc, steps, o.Seed+uint64(100+r))
			sum += s.MeanAfter(steps - window)
		}
		return sum / float64(runs), nil
	}
	highTrail, err := trailing(mkHigh, 3)
	if err != nil {
		return nil, err
	}
	lowTrail, err := trailing(mkLow, 3)
	if err != nil {
		return nil, err
	}

	// The plotted traces come from one representative run.
	high, err := mkHigh(o.Seed)
	if err != nil {
		return nil, err
	}
	low, err := mkLow(o.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Fig. 8 — lemniscate ground truth with two filter traces",
		Header: []string{"step", "truth-x", "truth-y", "high-x", "high-y", "low-x", "low-y"},
	}
	measR := rng.New(rng.NewPhiloxStream(o.Seed+100, 0x4D53))
	truth := make([]float64, m.StateDim())
	z := make([]float64, m.MeasurementDim())
	u := make([]float64, m.ControlDim())
	for k := 1; k <= steps; k++ {
		sc.TrueState(k, truth)
		sc.Control(k, u)
		m.Measure(z, truth, measR)
		eh := high.Step(u, z)
		el := low.Step(u, z)
		tx, ty := m.TrackedPosition(truth)
		hx, hy := m.TrackedPosition(eh.State)
		lx, ly := m.TrackedPosition(el.State)
		t.Append(k, tx, ty, hx, hy, lx, ly)
	}
	const threshold = 0.15 // meters: "on the path" for a 0.6 m figure
	res := &Fig8Result{
		Table:         t,
		HighConverged: highTrail < threshold,
		LowConverged:  lowTrail < threshold,
		HighTrailing:  highTrail,
		LowTrailing:   lowTrail,
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("high (64×64, ring t=1): mean trailing error %.3f m over 3 runs, converged=%v", res.HighTrailing, res.HighConverged),
		fmt.Sprintf("low (8 particles): mean trailing error %.3f m over 3 runs, converged=%v", res.LowTrailing, res.LowConverged))
	return res, nil
}

// Chart renders the ground truth and both traces as a 72×28 ASCII chart.
func (r *Fig8Result) Chart() string {
	// The cells are the floats Fig8Trajectory appended, so they parse.
	cols := func(c int) ([]float64, []float64) {
		xs := make([]float64, len(r.Table.Rows))
		ys := make([]float64, len(r.Table.Rows))
		for i, row := range r.Table.Rows {
			xs[i], _ = strconv.ParseFloat(row[c], 64)
			ys[i], _ = strconv.ParseFloat(row[c+1], 64)
		}
		return xs, ys
	}
	tx, ty := cols(1)
	hx, hy := cols(3)
	lx, ly := cols(5)
	return plot.Render("Fig. 8 — lemniscate ground truth and filter traces", 72, 28,
		plot.Series{Name: "ground truth", Glyph: '.', Connect: true, XS: tx, YS: ty},
		plot.Series{Name: "high-particle estimate", Glyph: 'o', XS: hx, YS: hy},
		plot.Series{Name: "low-particle estimate", Glyph: 'x', XS: lx, YS: ly},
	)
}
