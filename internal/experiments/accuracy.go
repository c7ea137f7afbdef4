package experiments

import (
	"fmt"
	"runtime"

	"esthera/internal/device"
	"esthera/internal/exchange"
	"esthera/internal/filter"
	"esthera/internal/metrics"
	"esthera/internal/model"
	"esthera/internal/model/arm"
)

// AccuracyOptions sizes the accuracy experiments (Figs. 6, 7, 9 and the
// ablations). The paper averaged 100 runs of 100 steps per
// configuration; the defaults here are reduced (recorded in table notes
// and EXPERIMENTS.md), and `esthera run -runs 100 -steps 100` restores it.
type AccuracyOptions struct {
	Steps int // default 60
	Runs  int // default 8
	Seed  uint64
	// Joints configures the arm model (Table II: 5).
	Joints int
	// SubFilterCounts is the Fig. 6/7 x-axis (default 16…512).
	SubFilterCounts []int
	// SubFilterSizes are the Fig. 6 line families (default 8, 16, 64).
	SubFilterSizes []int
	// ExchangeCounts are the Fig. 7 panels (default 0, 1, 4).
	ExchangeCounts []int
	// Workers sizes the host device.
	Workers int
}

func (o AccuracyOptions) withDefaults() AccuracyOptions {
	if o.Steps == 0 {
		o.Steps = 60
	}
	if o.Runs == 0 {
		o.Runs = 8
	}
	if o.Seed == 0 {
		o.Seed = 0xE57
	}
	if o.Joints == 0 {
		o.Joints = 5
	}
	if o.SubFilterCounts == nil {
		o.SubFilterCounts = []int{16, 64, 256, 512}
	}
	if o.SubFilterSizes == nil {
		o.SubFilterSizes = []int{8, 16, 64}
	}
	if o.ExchangeCounts == nil {
		o.ExchangeCounts = []int{0, 1, 4}
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// armScenario builds the benchmark scenario once per experiment.
func armScenario(joints int) (model.Model, model.Scenario, error) {
	m, sc, err := arm.NewScenario(arm.Config{Joints: joints}, arm.DefaultLemniscate())
	return m, sc, err
}

// meanError evaluates a filter constructor over the arm scenario with the
// option budget, returning the mean tracked-object position error in
// meters.
func meanError(o AccuracyOptions, sc model.Scenario, mk func(seed uint64) (filter.Filter, error)) (float64, error) {
	agg, err := metrics.Average(mk, func(int) model.Scenario { return sc }, o.Steps, o.Runs, o.Seed)
	if err != nil {
		return 0, err
	}
	return agg.MeanError, nil
}

// parallelArmFilter builds the device-parallel distributed filter for an
// accuracy cell. The device is shared per experiment via o.Workers.
func parallelArmFilter(o AccuracyOptions, m model.Model, n, mp, t int, scheme exchange.Scheme, seed uint64) (filter.Filter, error) {
	dev := device.New(device.Config{Workers: o.Workers, LocalMemBytes: -1})
	return filter.NewParallel(dev, m, filter.ParallelConfig{
		SubFilters:    n,
		ParticlesPer:  mp,
		Scheme:        scheme,
		ExchangeCount: t,
	}, seed)
}

// Fig6ExchangeSchemes reproduces Figure 6: estimation error versus the
// number of sub-filters, one table per exchange scheme (a: All-to-All,
// b: Ring, c: 2D Torus), with one column per sub-filter size, t = 1.
func Fig6ExchangeSchemes(o AccuracyOptions) ([]*Table, error) {
	o = o.withDefaults()
	m, sc, err := armScenario(o.Joints)
	if err != nil {
		return nil, err
	}
	var tables []*Table
	for _, scheme := range []exchange.Scheme{exchange.AllToAll, exchange.Ring, exchange.Torus2D} {
		t := &Table{
			Title:  fmt.Sprintf("Fig. 6 (%s) — estimation error vs number of sub-filters, t=1", scheme),
			Header: []string{"sub-filters"},
			Notes:  []string{fmt.Sprintf("mean object-position error [m], %d runs × %d steps", o.Runs, o.Steps)},
		}
		for _, mp := range o.SubFilterSizes {
			t.Header = append(t.Header, fmt.Sprintf("m=%d", mp))
		}
		for _, n := range o.SubFilterCounts {
			row := []interface{}{n}
			for _, mp := range o.SubFilterSizes {
				e, err := meanError(o, sc, func(seed uint64) (filter.Filter, error) {
					return parallelArmFilter(o, m, n, mp, 1, scheme, seed)
				})
				if err != nil {
					return nil, err
				}
				row = append(row, e)
			}
			t.Append(row...)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig7ExchangeCount reproduces Figure 7: estimation error versus the
// number of sub-filters for different per-neighbor exchange volumes t
// (panels t = 0, 1, 4 in the paper), ring topology, small sub-filters.
func Fig7ExchangeCount(o AccuracyOptions) (*Table, error) {
	o = o.withDefaults()
	m, sc, err := armScenario(o.Joints)
	if err != nil {
		return nil, err
	}
	// Pick the smallest configured sub-filter size that can absorb the
	// largest exchange volume (ring degree 2, incoming 2t must leave at
	// least one native particle).
	maxT := 0
	for _, tc := range o.ExchangeCounts {
		if tc > maxT {
			maxT = tc
		}
	}
	mp := 0
	for _, size := range o.SubFilterSizes {
		if 2*maxT < size {
			mp = size
			break
		}
	}
	if mp == 0 {
		mp = 2*maxT + 2
	}
	t := &Table{
		Title:  fmt.Sprintf("Fig. 7 — estimation error vs exchanged particles per neighbor (ring, m=%d)", mp),
		Header: []string{"sub-filters"},
		Notes:  []string{fmt.Sprintf("mean object-position error [m], %d runs × %d steps", o.Runs, o.Steps)},
	}
	for _, tc := range o.ExchangeCounts {
		t.Header = append(t.Header, fmt.Sprintf("t=%d", tc))
	}
	for _, n := range o.SubFilterCounts {
		row := []interface{}{n}
		for _, tc := range o.ExchangeCounts {
			e, err := meanError(o, sc, func(seed uint64) (filter.Filter, error) {
				return parallelArmFilter(o, m, n, mp, tc, exchange.Ring, seed)
			})
			if err != nil {
				return nil, err
			}
			row = append(row, e)
		}
		t.Append(row...)
	}
	return t, nil
}

// Fig9DistributedOverhead reproduces Figure 9: estimation error of
// distributed configurations (one column per sub-filter size) against the
// centralized filter at equal total particle counts.
func Fig9DistributedOverhead(o AccuracyOptions, totals []int, sizes []int) (*Table, error) {
	o = o.withDefaults()
	if totals == nil {
		totals = []int{256, 1024, 4096, 16384}
	}
	if sizes == nil {
		sizes = []int{4, 16, 64, 256}
	}
	m, sc, err := armScenario(o.Joints)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Fig. 9 — estimation error: distributed (by sub-filter size) vs centralized",
		Header: []string{"particles", "centralized"},
		Notes: []string{
			fmt.Sprintf("mean object-position error [m], %d runs × %d steps; '-' = infeasible shape", o.Runs, o.Steps),
		},
	}
	for _, mp := range sizes {
		t.Header = append(t.Header, fmt.Sprintf("distr. (%d)", mp))
	}
	for _, total := range totals {
		row := []interface{}{total}
		e, err := meanError(o, sc, func(seed uint64) (filter.Filter, error) {
			return filter.NewCentralized(m, total, seed, filter.CentralizedOptions{})
		})
		if err != nil {
			return nil, err
		}
		row = append(row, e)
		for _, mp := range sizes {
			n := total / mp
			// Ring degree 2 × t=1 needs m > 2; and at least 2 sub-filters.
			if n < 2 || mp <= 2 || n*mp != total {
				row = append(row, "-")
				continue
			}
			e, err := meanError(o, sc, func(seed uint64) (filter.Filter, error) {
				return parallelArmFilter(o, m, n, mp, 1, exchange.Ring, seed)
			})
			if err != nil {
				return nil, err
			}
			row = append(row, e)
		}
		t.Append(row...)
	}
	return t, nil
}
