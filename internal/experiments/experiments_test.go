package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// small budgets so the suite stays CI-friendly; the cmd tools run the
// full sweeps.
func smallPerf() PerfOptions {
	return PerfOptions{Totals: []int{1 << 10, 1 << 12}, SubFilterSize: 64, Rounds: 2, Workers: 4}
}

func smallAcc() AccuracyOptions {
	return AccuracyOptions{
		Steps: 25, Runs: 3, Workers: 4,
		SubFilterCounts: []int{8, 32},
		SubFilterSizes:  []int{8, 16}, // torus degree 4 × t=1 needs m > 4
		ExchangeCounts:  []int{0, 1},
	}
}

func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{Title: "demo", Header: []string{"a", "bb"}, Notes: []string{"n"}}
	tab.Append(1, 2.5)
	tab.Append("x", "y")
	s := tab.String()
	for _, want := range []string{"== demo ==", "a", "bb", "2.5", "note: n"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in:\n%s", want, s)
		}
	}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 || lines[0] != "a,bb" {
		t.Fatalf("csv wrong:\n%s", buf.String())
	}
}

func TestFig3Shape(t *testing.T) {
	// Fig. 3's ordering only emerges once the device is saturated, so
	// this test uses a mid-size and a large configuration (launch
	// overhead dominates and flattens the small sizes, as in the paper).
	tab, err := Fig3UpdateRate(PerfOptions{
		Totals: []int{1 << 12, 1 << 18}, SubFilterSize: 64, Rounds: 2, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	// Columns: particles, sub-filters, then 7 platforms, then go-host.
	if len(tab.Header) != 2+7+1 {
		t.Fatalf("header %v", tab.Header)
	}
	// More particles → lower rate, on every platform column.
	for col := 2; col < len(tab.Header); col++ {
		small := cell(t, tab, 0, col)
		big := cell(t, tab, 1, col)
		if !(big < small) {
			t.Errorf("col %s: rate did not drop with particles (%v -> %v)", tab.Header[col], small, big)
		}
		if small <= 0 {
			t.Errorf("col %s: non-positive rate", tab.Header[col])
		}
	}
	// At the larger size, the fastest GPU must beat the dual CPU, which
	// must beat the sequential reference (Fig. 3 / §VII-C shape).
	colOf := func(name string) int {
		for i, h := range tab.Header {
			if strings.HasPrefix(h, name) {
				return i
			}
		}
		t.Fatalf("no column %q", name)
		return -1
	}
	seq := cell(t, tab, 1, colOf("seq-c"))
	dual := cell(t, tab, 1, colOf("2x E5-2660"))
	gpu := cell(t, tab, 1, colOf("HD 7970"))
	if !(dual > seq) || !(gpu > dual) {
		t.Fatalf("platform ordering broken: seq=%v dual=%v gpu=%v", seq, dual, gpu)
	}
}

func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("bad percentage %q", s)
	}
	return v
}

func TestFig4aSortResampleGrowWithSubFilterSize(t *testing.T) {
	o := smallPerf()
	tab, err := Fig4aParticlesPerSubFilter(o, []int{32, 256})
	if err != nil {
		t.Fatal(err)
	}
	// Columns: particles/sub-filter, rand, sampling, local sort, global
	// estimate, exchange, resampling.
	sortSmall := parsePct(t, tab.Rows[0][3])
	sortBig := parsePct(t, tab.Rows[1][3])
	resSmall := parsePct(t, tab.Rows[0][6])
	resBig := parsePct(t, tab.Rows[1][6])
	if !(sortBig+resBig > sortSmall+resSmall) {
		t.Fatalf("sort+resample fraction did not grow with m: %v+%v -> %v+%v",
			sortSmall, resSmall, sortBig, resBig)
	}
}

func TestFig4cSamplingGrowsWithStateDims(t *testing.T) {
	o := smallPerf()
	tab, err := Fig4cStateDims(o, []int{8, 32})
	if err != nil {
		t.Fatal(err)
	}
	sampSmall := parsePct(t, tab.Rows[0][2])
	sampBig := parsePct(t, tab.Rows[1][2])
	if !(sampBig > sampSmall) {
		t.Fatalf("sampling fraction did not grow with state dims: %v -> %v", sampSmall, sampBig)
	}
}

func TestFig5Shape(t *testing.T) {
	o := PerfOptions{Totals: []int{1 << 12, 1 << 15}, SubFilterSize: 64, Rounds: 2, Workers: 4}
	tab, err := Fig5Resampling(o)
	if err != nil {
		t.Fatal(err)
	}
	last := len(tab.Rows) - 1
	seqRWS := cell(t, tab, last, 1)
	seqVose := cell(t, tab, last, 2)
	if !raceEnabled && !(seqVose < seqRWS) {
		t.Fatalf("sequential: Vose (%v ms) must beat RWS (%v ms) at large n", seqVose, seqRWS)
	}
	// Parallel sub-filter setting: Vose never faster (cost model).
	for row := range tab.Rows {
		gpuRWS := cell(t, tab, row, 3)
		gpuVose := cell(t, tab, row, 4)
		if gpuVose < gpuRWS*0.95 {
			t.Fatalf("row %d: parallel Vose (%v) beat RWS (%v); Fig. 5 says it never does", row, gpuVose, gpuRWS)
		}
	}
}

func TestFig6AllSchemesProduceTables(t *testing.T) {
	tabs, err := Fig6ExchangeSchemes(smallAcc())
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 3 {
		t.Fatalf("%d tables, want 3", len(tabs))
	}
	for _, tab := range tabs {
		if len(tab.Rows) != 2 || len(tab.Rows[0]) != 3 {
			t.Fatalf("table %q shape wrong", tab.Title)
		}
		for r := range tab.Rows {
			for c := 1; c < 3; c++ {
				if v := cell(t, tab, r, c); !(v > 0) || v > 2 {
					t.Fatalf("%s: implausible error %v", tab.Title, v)
				}
			}
		}
	}
}

func TestFig6MoreSubFiltersCompensateFewerParticles(t *testing.T) {
	// The headline Fig. 6 observation: "a low number of particles can be
	// compensated by adding more sub-filters" (ring panel).
	o := smallAcc()
	o.Runs = 4
	o.SubFilterCounts = []int{8, 64}
	o.SubFilterSizes = []int{6}
	tabs, err := Fig6ExchangeSchemes(o)
	if err != nil {
		t.Fatal(err)
	}
	ring := tabs[1]
	few := cell(t, ring, 0, 1)
	many := cell(t, ring, 1, 1)
	if !(many < few) {
		t.Fatalf("ring m=4: error with 64 sub-filters (%v) not below 8 sub-filters (%v)", many, few)
	}
}

func TestFig7ExchangeHelps(t *testing.T) {
	o := smallAcc()
	o.Runs = 4
	o.SubFilterCounts = []int{32}
	o.SubFilterSizes = []int{4}
	tab, err := Fig7ExchangeCount(o)
	if err != nil {
		t.Fatal(err)
	}
	t0 := cell(t, tab, 0, 1)
	t1 := cell(t, tab, 0, 2)
	if !(t1 < t0) {
		t.Fatalf("t=1 error (%v) not below t=0 (%v)", t1, t0)
	}
}

func TestFig8HighConvergesLowDoesNot(t *testing.T) {
	o := smallAcc()
	res, err := Fig8Trajectory(o, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HighConverged {
		t.Fatalf("high-particle filter did not converge (trailing %v m)", res.HighTrailing)
	}
	if res.LowConverged {
		t.Fatalf("8-particle filter converged (trailing %v m); expected divergence", res.LowTrailing)
	}
	if len(res.Table.Rows) != 100 {
		t.Fatalf("trace rows %d", len(res.Table.Rows))
	}
}

func TestFig9DistributedComparable(t *testing.T) {
	o := smallAcc()
	o.Runs = 3
	tab, err := Fig9DistributedOverhead(o, []int{512}, []int{4, 32})
	if err != nil {
		t.Fatal(err)
	}
	centralized := cell(t, tab, 0, 1)
	d32 := cell(t, tab, 0, 3)
	if d32 > 3*centralized {
		t.Fatalf("distributed m=32 error %v far above centralized %v", d32, centralized)
	}
}

func TestPolicyAblation(t *testing.T) {
	o := smallAcc()
	tab, err := PolicyAblation(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("%d policies", len(tab.Rows))
	}
	errs := map[string]float64{}
	for r, row := range tab.Rows {
		errs[row[0]] = cell(t, tab, r, 1)
	}
	if !(errs["always"] < errs["never"]) {
		t.Fatalf("always (%v) must beat never (%v)", errs["always"], errs["never"])
	}
}

func TestVariantsAblation(t *testing.T) {
	o := smallAcc()
	o.Runs = 2
	o.Steps = 20
	tab, err := VariantsAblation(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 10 {
		t.Fatalf("%d variants", len(tab.Rows))
	}
	ungm := map[string]float64{}
	for r, row := range tab.Rows {
		ungm[row[0]] = cell(t, tab, r, 2)
	}
	// The multimodal UNGM must defeat the parametric EKF relative to the
	// centralized PF (the paper's motivation).
	if !(ungm["centralized"] < ungm["ekf"]) {
		t.Fatalf("PF (%v) must beat EKF (%v) on UNGM", ungm["centralized"], ungm["ekf"])
	}
}

func TestEstimatorAblation(t *testing.T) {
	tab, err := EstimatorAblation(smallAcc())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("%d estimators", len(tab.Rows))
	}
	for r := range tab.Rows {
		if v := cell(t, tab, r, 1); !(v > 0) || v > 2 {
			t.Fatalf("implausible estimator error %v", v)
		}
	}
}

func TestDiversityAblationShowsAllToAllCollapse(t *testing.T) {
	o := smallAcc()
	o.Steps = 30
	tab, err := DiversityAblation(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("%d schemes", len(tab.Rows))
	}
	div := map[string]float64{}
	for r, row := range tab.Rows {
		div[row[0]] = cell(t, tab, r, 1)
	}
	// All-to-All must show the lowest diversity of the exchanging
	// schemes, and strictly less than no-exchange.
	if !(div["all-to-all"] < div["ring"]) || !(div["all-to-all"] < div["none"]) {
		t.Fatalf("all-to-all diversity %v not below ring %v / none %v",
			div["all-to-all"], div["ring"], div["none"])
	}
	for name, v := range div {
		if v <= 0 || v > 1 {
			t.Fatalf("scheme %s diversity %v out of (0,1]", name, v)
		}
	}
}

func TestPrecisionAblationSPAdequate(t *testing.T) {
	o := smallAcc()
	tab, err := PrecisionAblation(o)
	if err != nil {
		t.Fatal(err)
	}
	dp := cell(t, tab, 0, 1)
	sp := cell(t, tab, 1, 1)
	// The paper's finding: single precision does not meaningfully change
	// accuracy. Allow generous slack for Monte Carlo noise.
	if sp > 2*dp+0.05 || dp > 2*sp+0.05 {
		t.Fatalf("precision gap implausible: float64 %v vs float32 %v", dp, sp)
	}
}

func TestClusterScalingTable(t *testing.T) {
	o := smallAcc()
	o.Runs = 2
	tab, err := ClusterScaling(o, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	if v := cell(t, tab, 0, 3); v != 0 {
		t.Fatalf("single node bytes/round = %v, want 0", v)
	}
	if v := cell(t, tab, 1, 3); v <= 0 {
		t.Fatalf("two-node bytes/round = %v, want > 0", v)
	}
	for r := range tab.Rows {
		if e := cell(t, tab, r, 2); !(e > 0) || e > 1 {
			t.Fatalf("row %d implausible error %v", r, e)
		}
	}
}

func TestClusterFailureTable(t *testing.T) {
	o := smallAcc()
	tab, err := ClusterFailure(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("%d phases", len(tab.Rows))
	}
	healthy := cell(t, tab, 0, 2)
	during := cell(t, tab, 1, 2)
	recovered := cell(t, tab, 2, 2)
	// Tracking must survive the failure and the recovery (no collapse).
	if during > 50*healthy+0.05 || recovered > 50*healthy+0.05 {
		t.Fatalf("tracking collapsed: healthy %v, during %v, recovered %v", healthy, during, recovered)
	}
}

func TestEmbeddedScaleDown(t *testing.T) {
	o := smallAcc()
	tab, err := EmbeddedScaleDown(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	// Smaller configurations must be (predicted) faster, and the largest
	// must be at least as accurate as the smallest.
	rateSmall := cell(t, tab, 0, 4)
	rateBig := cell(t, tab, len(tab.Rows)-1, 4)
	if !(rateSmall > rateBig) {
		t.Fatalf("tiny config rate %v not above big config rate %v", rateSmall, rateBig)
	}
	errSmall := cell(t, tab, 0, 3)
	errBig := cell(t, tab, len(tab.Rows)-1, 3)
	if errBig > errSmall {
		t.Fatalf("big config error %v above tiny config %v", errBig, errSmall)
	}
}

func TestFig4CPURandShareExceedsGPU(t *testing.T) {
	o := smallPerf()
	cpu, err := Fig4CPUBreakdown(o, []int{16})
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := Fig4aParticlesPerSubFilter(o, []int{16})
	if err != nil {
		t.Fatal(err)
	}
	cpuRand := parsePct(t, cpu.Rows[0][1])
	gpuRand := parsePct(t, gpu.Rows[0][1])
	// §VII-C: the CPU spends much more of its round on random numbers
	// (paper: 40% at m=16) than the GPU does.
	if !(cpuRand > 1.5*gpuRand) {
		t.Fatalf("CPU rand share %v%% not well above GPU %v%%", cpuRand, gpuRand)
	}
	if cpuRand < 20 || cpuRand > 60 {
		t.Fatalf("CPU rand share %v%%, want in the 20-60%% band (paper: ~40%%)", cpuRand)
	}
}

func TestClosedLoopAblationRateMatters(t *testing.T) {
	o := smallAcc()
	o.Runs = 3
	o.Steps = 50
	tab, err := ClosedLoopAblation(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 || len(tab.Rows[0]) != 5 {
		t.Fatalf("table shape %dx%d", len(tab.Rows), len(tab.Rows[0]))
	}
	// The big filter at full rate must beat it at 1/8 rate (stale
	// estimates degrade the loop), and beat the tiny filter at full rate.
	bigFull := cell(t, tab, 2, 1)
	bigSlow := cell(t, tab, 2, 4)
	tinyFull := cell(t, tab, 0, 1)
	if !(bigFull < bigSlow) {
		t.Fatalf("full-rate (%v rad) not better than 1/8-rate (%v rad)", bigFull, bigSlow)
	}
	if !(bigFull < tinyFull) {
		t.Fatalf("64×64 (%v rad) not better than 4×8 (%v rad)", bigFull, tinyFull)
	}
}
