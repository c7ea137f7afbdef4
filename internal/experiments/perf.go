package experiments

import (
	"fmt"
	"runtime"
	"time"

	"esthera/internal/device"
	"esthera/internal/exchange"
	"esthera/internal/filter"
	"esthera/internal/kernels"
	"esthera/internal/model/arm"
	"esthera/internal/platform"
	"esthera/internal/rng"
)

// PerfOptions sizes the performance experiments (Figs. 3–5).
type PerfOptions struct {
	// Totals are the total particle counts swept in Fig. 3 / Fig. 5.
	// Nil selects the paper's range 1K–2M.
	Totals []int
	// SubFilterSize is m for the GPU-style configuration (Table II: 128).
	SubFilterSize int
	// Rounds is how many filtering rounds feed the counters (3 default).
	Rounds int
	// Joints configures the arm model (Table II: 5).
	Joints int
	// Workers sizes the host device (default GOMAXPROCS).
	Workers int
}

func (o PerfOptions) withDefaults() PerfOptions {
	if o.Totals == nil {
		o.Totals = []int{1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 21}
	}
	if o.SubFilterSize == 0 {
		o.SubFilterSize = 128
	}
	if o.Rounds == 0 {
		o.Rounds = 3
	}
	if o.Joints == 0 {
		o.Joints = 5
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Table3Platforms lists the Table III platform descriptors the cost
// model predicts for.
func Table3Platforms() *Table {
	t := &Table{
		Title: "Table III — hardware platforms",
		Header: []string{"platform", "type", "units", "clock GHz", "SP GFLOP/s",
			"mem GB/s", "TDP W", "released"},
		Notes: []string{"seq-c models the paper's single-core sequential C reference"},
	}
	for _, p := range platform.Platforms() {
		t.Append(p.Name, string(p.Kind), p.Units, p.ClockGHz, p.GFlopsSP, p.MemBWGBs, p.TDPWatts, p.Released)
	}
	return t
}

// newArmPipeline builds the paper-default arm filter at a given shape and
// returns it together with its scenario.
func newArmPipeline(o PerfOptions, subFilters, particlesPer, joints int, algo kernels.Algo) (*filter.Parallel, *arm.Scenario, *device.Device, error) {
	m, sc, err := arm.NewScenario(arm.Config{Joints: joints}, arm.DefaultLemniscate())
	if err != nil {
		return nil, nil, nil, err
	}
	dev := device.New(device.Config{Workers: o.Workers, LocalMemBytes: -1})
	f, err := filter.NewParallel(dev, m, filter.ParallelConfig{
		SubFilters:    subFilters,
		ParticlesPer:  particlesPer,
		Scheme:        exchange.Ring,
		ExchangeCount: 1,
		Resampler:     algo,
	}, 1)
	if err != nil {
		return nil, nil, nil, err
	}
	return f, sc, dev, nil
}

// runRounds drives the filter for o.Rounds steps against the scenario.
func runRounds(f *filter.Parallel, sc *arm.Scenario, rounds int, seed uint64) {
	m := sc.Model()
	measR := rng.New(rng.NewPhiloxStream(seed, 1))
	truth := make([]float64, m.StateDim())
	z := make([]float64, m.MeasurementDim())
	u := make([]float64, m.ControlDim())
	for k := 1; k <= rounds; k++ {
		sc.TrueState(k, truth)
		sc.Control(k, u)
		m.Measure(z, truth, measR)
		f.Step(u, z)
	}
}

// Fig3UpdateRate reproduces Figure 3: achieved update rate (Hz) versus
// total particle count, per platform. Platform columns are cost-model
// predictions from the instrumented kernel counters; the final column is
// the measured wall rate of the Go substrate on this host.
func Fig3UpdateRate(o PerfOptions) (*Table, error) {
	o = o.withDefaults()
	plats := platform.Platforms()
	header := []string{"particles", "sub-filters"}
	for _, p := range plats {
		header = append(header, p.Name+" (Hz)")
	}
	header = append(header, "go-host (Hz)")
	t := &Table{
		Title:  "Fig. 3 — particle filter update rate vs total particles (arm, 9 state vars)",
		Header: header,
		Notes: []string{
			"platform columns are analytic cost-model predictions (see DESIGN.md §2)",
			fmt.Sprintf("m=%d particles per sub-filter, ring exchange t=1, %d rounds measured", o.SubFilterSize, o.Rounds),
		},
	}
	for _, total := range o.Totals {
		n := total / o.SubFilterSize
		if n < 1 {
			n = 1
		}
		f, sc, dev, err := newArmPipeline(o, n, o.SubFilterSize, o.Joints, kernels.AlgoRWS)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		runRounds(f, sc, o.Rounds, 7)
		wall := time.Since(start)
		snap := dev.Profiler().Snapshot()
		row := []interface{}{total, n}
		for _, p := range plats {
			_, round := p.PredictRound(snap, o.Rounds, n)
			row = append(row, platform.UpdateRateHz(round))
		}
		row = append(row, platform.UpdateRateHz(wall/time.Duration(o.Rounds)))
		t.Append(row...)
	}
	return t, nil
}

// breakdownRow runs one configuration and returns the per-kernel fraction
// of the named platform's predicted round time — the quantity Fig. 4
// plots ("the plotted breakdowns have been run on a GTX 580 running
// CUDA"; the CPU variant reproduces the §VII-C dual-Xeon discussion).
func breakdownRow(o PerfOptions, platName string, subFilters, particlesPer, joints int) (map[string]float64, error) {
	f, sc, dev, err := newArmPipeline(o, subFilters, particlesPer, joints, kernels.AlgoRWS)
	if err != nil {
		return nil, err
	}
	runRounds(f, sc, o.Rounds, 11)
	p, err := platform.ByName(platName)
	if err != nil {
		return nil, err
	}
	kts, total := p.PredictRound(dev.Profiler().Snapshot(), o.Rounds, subFilters)
	frac := map[string]float64{}
	for _, kt := range kts {
		if total > 0 {
			frac[kt.Name] += kt.Time.Seconds() / total.Seconds()
		}
	}
	return frac, nil
}

// kernelOrder is the Fig. 4 legend order.
var kernelOrder = []string{"rand", "sampling", "local sort", "global estimate", "exchange", "resampling"}

func breakdownTable(title, xlabel string, xs []int, run func(x int) (map[string]float64, error)) (*Table, error) {
	t := &Table{Title: title, Header: append([]string{xlabel}, kernelOrder...)}
	for _, x := range xs {
		frac, err := run(x)
		if err != nil {
			return nil, err
		}
		row := []interface{}{x}
		for _, k := range kernelOrder {
			row = append(row, fmt.Sprintf("%.1f%%", 100*frac[k]))
		}
		t.Append(row...)
	}
	t.Notes = append(t.Notes, "fractions of the GTX 580 cost-model round time (paper ran Fig. 4 on a GTX 580)")
	return t, nil
}

// Fig4aParticlesPerSubFilter reproduces Fig. 4a: kernel breakdown while
// scaling the sub-filter size.
func Fig4aParticlesPerSubFilter(o PerfOptions, sizes []int) (*Table, error) {
	o = o.withDefaults()
	if sizes == nil {
		sizes = []int{32, 64, 128, 256, 512, 1024}
	}
	return breakdownTable("Fig. 4a — breakdown vs particles per sub-filter (256 sub-filters)",
		"particles/sub-filter", sizes, func(m int) (map[string]float64, error) {
			return breakdownRow(o, "GTX 580", 256, m, o.Joints)
		})
}

// Fig4bSubFilters reproduces Fig. 4b: kernel breakdown while scaling the
// number of sub-filters.
func Fig4bSubFilters(o PerfOptions, counts []int) (*Table, error) {
	o = o.withDefaults()
	if counts == nil {
		counts = []int{64, 256, 1024, 4096, 8192}
	}
	return breakdownTable("Fig. 4b — breakdown vs number of sub-filters (m=128)",
		"sub-filters", counts, func(n int) (map[string]float64, error) {
			return breakdownRow(o, "GTX 580", n, o.SubFilterSize, o.Joints)
		})
}

// Fig4cStateDims reproduces Fig. 4c: kernel breakdown while scaling the
// state dimension (arm joints), 8–48 state variables.
func Fig4cStateDims(o PerfOptions, dims []int) (*Table, error) {
	o = o.withDefaults()
	if dims == nil {
		dims = []int{8, 16, 24, 32, 48}
	}
	return breakdownTable("Fig. 4c — breakdown vs state dimension (256 sub-filters, m=128)",
		"state dims", dims, func(d int) (map[string]float64, error) {
			joints := d - 4 // state dim = joints + 4
			if joints < 1 {
				joints = 1
			}
			return breakdownRow(o, "GTX 580", 256, o.SubFilterSize, joints)
		})
}

// Fig4CPUBreakdown is the §VII-C companion to Fig. 4a: the same
// breakdown on the dual-Xeon cost model, where "the biggest difference
// between our dual CPU and GPGPU performance is that the CPU spends much
// more time on random numbers (40% at 16 particles/sub-filter)" because
// MTGP is optimized for GPUs.
func Fig4CPUBreakdown(o PerfOptions, sizes []int) (*Table, error) {
	o = o.withDefaults()
	if sizes == nil {
		sizes = []int{16, 64, 128, 512}
	}
	t, err := breakdownTable("§VII-C — breakdown on the dual E5-2660 vs particles per sub-filter (256 sub-filters)",
		"particles/sub-filter", sizes, func(m int) (map[string]float64, error) {
			return breakdownRow(o, "2x E5-2660", 256, m, o.Joints)
		})
	if err != nil {
		return nil, err
	}
	t.Notes = t.Notes[:0]
	t.Notes = append(t.Notes, "fractions of the 2x E5-2660 cost-model round time (GPU-tuned MTGP penalized per §VII-C)")
	return t, nil
}
