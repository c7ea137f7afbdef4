package filter_test

import (
	"math"
	"testing"

	"esthera/internal/device"
	"esthera/internal/exchange"
	"esthera/internal/filter"
	"esthera/internal/kernels"
	"esthera/internal/metrics"
	"esthera/internal/model"
	"esthera/internal/resample"
	"esthera/internal/rng"
)

// ungmScenario builds a fresh simulated UNGM scenario for a run index.
func ungmScenario(run int) model.Scenario {
	return model.NewSimulated(model.NewUNGM(), uint64(1000+run))
}

// meanErr runs f over the UNGM scenario and returns the mean |x̂ - x|.
func meanErr(t *testing.T, f filter.Filter, steps int, run int) float64 {
	t.Helper()
	s := metrics.Run(f, ungmScenario(run), steps, uint64(5000+run))
	return s.Mean()
}

func TestCentralizedTracksUNGM(t *testing.T) {
	f, err := filter.NewCentralized(model.NewUNGM(), 2000, 1, filter.CentralizedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Average over a few runs for stability; the UNGM prior std is ~18
	// (stationary spread of the dynamics is ~±20), so mean error well
	// under 5 indicates genuine tracking.
	sum := 0.0
	const runs = 5
	for run := 0; run < runs; run++ {
		f.Reset(uint64(run + 1))
		sum += meanErr(t, f, 80, run)
	}
	if avg := sum / runs; avg > 5 {
		t.Fatalf("centralized PF mean error %v on UNGM, want < 5", avg)
	}
}

func TestMoreParticlesHelp(t *testing.T) {
	// 8 particles vs 4096 particles on the same data: the large filter
	// must be clearly better on average.
	small, err := filter.NewCentralized(model.NewUNGM(), 8, 1, filter.CentralizedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	big, err := filter.NewCentralized(model.NewUNGM(), 4096, 1, filter.CentralizedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var sumSmall, sumBig float64
	const runs = 6
	for run := 0; run < runs; run++ {
		small.Reset(uint64(run + 1))
		big.Reset(uint64(run + 1))
		sumSmall += meanErr(t, small, 60, run)
		sumBig += meanErr(t, big, 60, run)
	}
	if sumBig >= sumSmall {
		t.Fatalf("4096 particles (err %v) not better than 8 (err %v)", sumBig/runs, sumSmall/runs)
	}
}

func TestCentralizedResamplerChoicesAgree(t *testing.T) {
	// RWS, Vose and systematic must deliver comparable accuracy.
	results := map[string]float64{}
	for _, rs := range []resample.Resampler{resample.RWS{}, resample.Vose{}, resample.Systematic{}} {
		f, err := filter.NewCentralized(model.NewUNGM(), 1000, 1, filter.CentralizedOptions{Resampler: rs})
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		const runs = 4
		for run := 0; run < runs; run++ {
			f.Reset(uint64(run + 1))
			sum += meanErr(t, f, 60, run)
		}
		results[rs.Name()] = sum / runs
	}
	for name, e := range results {
		if e > 5 {
			t.Errorf("resampler %s mean error %v, want < 5", name, e)
		}
	}
}

func TestNeverResampleDegenerates(t *testing.T) {
	// Without resampling the SIS filter must do worse than with it
	// (the degeneracy problem, §II-B1).
	always, err := filter.NewCentralized(model.NewUNGM(), 500, 1, filter.CentralizedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	never, err := filter.NewCentralized(model.NewUNGM(), 500, 1,
		filter.CentralizedOptions{Policy: resample.Never{}})
	if err != nil {
		t.Fatal(err)
	}
	var sumA, sumN float64
	const runs = 6
	for run := 0; run < runs; run++ {
		always.Reset(uint64(run + 1))
		never.Reset(uint64(run + 1))
		sumA += meanErr(t, always, 80, run)
		sumN += meanErr(t, never, 80, run)
	}
	if sumN <= sumA {
		t.Fatalf("SIS without resampling (err %v) beat always-resample (err %v)", sumN/runs, sumA/runs)
	}
}

func TestCentralizedResetReproducible(t *testing.T) {
	f, err := filter.NewCentralized(model.NewUNGM(), 64, 7, filter.CentralizedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a := metrics.Run(f, ungmScenario(0), 30, 9)
	f.Reset(7)
	b := metrics.Run(f, ungmScenario(0), 30, 9)
	for i := range a.Err {
		if a.Err[i] != b.Err[i] {
			t.Fatalf("reset not reproducible at step %d: %v vs %v", i, a.Err[i], b.Err[i])
		}
	}
}

func TestCentralizedValidation(t *testing.T) {
	if _, err := filter.NewCentralized(model.NewUNGM(), 0, 1, filter.CentralizedOptions{}); err == nil {
		t.Fatal("zero particles must error")
	}
}

func TestDistributedConfigValidation(t *testing.T) {
	m := model.NewUNGM()
	cases := []filter.DistributedConfig{
		{SubFilters: 0, ParticlesPer: 8},
		{SubFilters: 4, ParticlesPer: 0},
		{SubFilters: 4, ParticlesPer: 8, ExchangeCount: -1},
		// Ring degree 2 × t 4 = 8 incoming >= 8 particles.
		{SubFilters: 4, ParticlesPer: 8, Scheme: exchange.Ring, ExchangeCount: 4},
		// Torus degree 4 × t 2 = 8 incoming >= 8 particles.
		{SubFilters: 16, ParticlesPer: 8, Scheme: exchange.Torus2D, ExchangeCount: 2},
	}
	for i, cfg := range cases {
		if _, err := filter.NewDistributed(m, cfg, 1); err == nil {
			t.Errorf("case %d: config %+v must be rejected", i, cfg)
		}
	}
	// t = 0 with any scheme degrades to no exchange and is fine.
	if _, err := filter.NewDistributed(m, filter.DistributedConfig{
		SubFilters: 4, ParticlesPer: 8, Scheme: exchange.Ring, ExchangeCount: 0,
	}, 1); err != nil {
		t.Fatalf("t=0 config rejected: %v", err)
	}
}

func TestDistributedTracksUNGM(t *testing.T) {
	f, err := filter.NewDistributed(model.NewUNGM(), filter.DistributedConfig{
		SubFilters: 32, ParticlesPer: 32, Scheme: exchange.Ring, ExchangeCount: 1,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	const runs = 5
	for run := 0; run < runs; run++ {
		f.Reset(uint64(run + 1))
		sum += meanErr(t, f, 80, run)
	}
	if avg := sum / runs; avg > 5 {
		t.Fatalf("distributed PF mean error %v, want < 5", avg)
	}
}

func TestDistributedComparableToCentralized(t *testing.T) {
	// Fig. 9: with adequate sub-filter size, the distributed filter is
	// comparable to a centralized filter of the same total size. Allow a
	// generous factor, we only guard against being *way* off.
	cent, err := filter.NewCentralized(model.NewUNGM(), 1024, 1, filter.CentralizedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := filter.NewDistributed(model.NewUNGM(), filter.DistributedConfig{
		SubFilters: 16, ParticlesPer: 64, Scheme: exchange.Ring, ExchangeCount: 1,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sumC, sumD float64
	const runs = 6
	for run := 0; run < runs; run++ {
		cent.Reset(uint64(run + 1))
		dist.Reset(uint64(run + 1))
		sumC += meanErr(t, cent, 80, run)
		sumD += meanErr(t, dist, 80, run)
	}
	if sumD > 2.5*sumC {
		t.Fatalf("distributed error %v far above centralized %v", sumD/runs, sumC/runs)
	}
}

func TestExchangeImprovesTinySubFilters(t *testing.T) {
	// With very small sub-filters, exchanging even one particle should
	// help (Fig. 7): compare t=0 vs t=1 on a 64×4 network.
	mk := func(tcount int) *filter.Distributed {
		f, err := filter.NewDistributed(model.NewUNGM(), filter.DistributedConfig{
			SubFilters: 64, ParticlesPer: 4, Scheme: exchange.Ring, ExchangeCount: tcount,
		}, 1)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	noEx, withEx := mk(0), mk(1)
	var sum0, sum1 float64
	const runs = 8
	for run := 0; run < runs; run++ {
		noEx.Reset(uint64(run + 1))
		withEx.Reset(uint64(run + 1))
		sum0 += meanErr(t, noEx, 80, run)
		sum1 += meanErr(t, withEx, 80, run)
	}
	if sum1 >= sum0 {
		t.Fatalf("exchange t=1 (err %v) did not beat t=0 (err %v)", sum1/runs, sum0/runs)
	}
}

func TestDistributedSchemesAllTrack(t *testing.T) {
	for _, scheme := range []exchange.Scheme{exchange.AllToAll, exchange.Ring, exchange.Torus2D} {
		f, err := filter.NewDistributed(model.NewUNGM(), filter.DistributedConfig{
			SubFilters: 16, ParticlesPer: 16, Scheme: scheme, ExchangeCount: 1,
		}, 1)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		f.Reset(3)
		if e := meanErr(t, f, 60, 3); e > 6 {
			t.Errorf("scheme %v mean error %v, want < 6", scheme, e)
		}
	}
}

func TestDistributedWeightedMeanEstimator(t *testing.T) {
	f, err := filter.NewDistributed(model.NewUNGM(), filter.DistributedConfig{
		SubFilters: 16, ParticlesPer: 32, Scheme: exchange.Ring, ExchangeCount: 1,
		Estimator: filter.WeightedMean,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e := meanErr(t, f, 60, 1); e > 6 {
		t.Fatalf("weighted-mean estimator error %v, want < 6", e)
	}
}

func TestGaussianPFOnNearGaussianProblem(t *testing.T) {
	// On bearings-only tracking (unimodal) the GPF must track.
	g, err := filter.NewGaussian(model.NewBearings(), 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc := model.NewSimulated(model.NewBearings(), 77)
	s := metrics.Run(g, sc, 60, 99)
	if s.Mean() > 2.0 {
		t.Fatalf("gaussian PF mean error %v on bearings, want < 2", s.Mean())
	}
}

func TestGaussianValidation(t *testing.T) {
	if _, err := filter.NewGaussian(model.NewUNGM(), 1, 1); err == nil {
		t.Fatal("n=1 must error")
	}
}

func TestEKFUKFTrackBearings(t *testing.T) {
	for _, mk := range []func() filter.Filter{
		func() filter.Filter { return filter.NewEKF(model.NewBearings(), 1) },
		func() filter.Filter { return filter.NewUKF(model.NewBearings(), 1) },
	} {
		f := mk()
		sc := model.NewSimulated(model.NewBearings(), 55)
		s := metrics.Run(f, sc, 60, 66)
		if s.Mean() > 2.0 {
			t.Errorf("%s mean error %v on bearings, want < 2", f.Name(), s.Mean())
		}
	}
}

func TestPFBeatsEKFOnUNGM(t *testing.T) {
	// The motivating claim: on the severely non-linear bimodal UNGM the
	// particle filter outperforms the EKF (averaged over runs).
	var sumPF, sumEKF float64
	const runs = 6
	for run := 0; run < runs; run++ {
		pf, err := filter.NewCentralized(model.NewUNGM(), 1000, uint64(run+1), filter.CentralizedOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ekf := filter.NewEKF(model.NewUNGM(), uint64(run+1))
		sumPF += meanErr(t, pf, 80, run)
		sumEKF += meanErr(t, ekf, 80, run)
	}
	if sumPF >= sumEKF {
		t.Fatalf("PF error %v not better than EKF %v on UNGM", sumPF/runs, sumEKF/runs)
	}
}

func TestVariantsTrackUNGM(t *testing.T) {
	m := model.NewUNGM()
	mks := []func() (filter.Filter, error){
		func() (filter.Filter, error) { return filter.NewGDPF(m, 16, 32, 1) },
		func() (filter.Filter, error) { return filter.NewCDPF(m, 16, 32, 8, 1) },
		func() (filter.Filter, error) { return filter.NewRPA(m, 16, 32, 1) },
		func() (filter.Filter, error) { return filter.NewLDPF(m, 16, 32, 1) },
		func() (filter.Filter, error) {
			return filter.NewDistributed(m, filter.DistributedConfig{
				SubFilters: 16, ParticlesPer: 32, Scheme: exchange.Ring, ExchangeCount: 1,
			}, 1)
		},
	}
	for _, mk := range mks {
		f, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		const runs = 3
		for run := 0; run < runs; run++ {
			f.Reset(uint64(run + 1))
			sum += meanErr(t, f, 60, run)
		}
		if avg := sum / runs; avg > 6 {
			t.Errorf("%s mean error %v on UNGM, want < 6", f.Name(), avg)
		}
	}
}

func TestVariantsValidation(t *testing.T) {
	m := model.NewUNGM()
	if _, err := filter.NewGDPF(m, 0, 8, 1); err == nil {
		t.Fatal("GDPF with 0 sub-filters must error")
	}
	if _, err := filter.NewCDPF(m, 4, 8, 0, 1); err == nil {
		t.Fatal("CDPF with 0 representatives must error")
	}
	if _, err := filter.NewCDPF(m, 4, 8, 9, 1); err == nil {
		t.Fatal("CDPF with c > m must error")
	}
}

func TestParallelMatchesDistributedAccuracy(t *testing.T) {
	dev := device.New(device.Config{Workers: 4})
	par, err := filter.NewParallel(dev, model.NewUNGM(), filter.ParallelConfig{
		SubFilters: 32, ParticlesPer: 32, Scheme: exchange.Ring, ExchangeCount: 1,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := filter.NewDistributed(model.NewUNGM(), filter.DistributedConfig{
		SubFilters: 32, ParticlesPer: 32, Scheme: exchange.Ring, ExchangeCount: 1,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sumP, sumS float64
	const runs = 5
	for run := 0; run < runs; run++ {
		par.Reset(uint64(run + 1))
		seq.Reset(uint64(run + 1))
		sumP += meanErr(t, par, 60, run)
		sumS += meanErr(t, seq, 60, run)
	}
	avgP, avgS := sumP/runs, sumS/runs
	if avgP > 5 {
		t.Fatalf("parallel filter mean error %v, want < 5", avgP)
	}
	if avgP > 2*avgS+1 {
		t.Fatalf("parallel error %v far above sequential %v", avgP, avgS)
	}
}

func TestParallelDeterministicAcrossWorkerCounts(t *testing.T) {
	// Work-groups only touch their own global blocks, so the result must
	// be bit-identical however the groups are scheduled.
	run := func(workers int) []float64 {
		dev := device.New(device.Config{Workers: workers})
		f, err := filter.NewParallel(dev, model.NewUNGM(), filter.ParallelConfig{
			SubFilters: 16, ParticlesPer: 32, Scheme: exchange.Torus2D, ExchangeCount: 1,
		}, 42)
		if err != nil {
			t.Fatal(err)
		}
		s := metrics.Run(f, ungmScenario(0), 25, 7)
		return s.Err
	}
	a := run(1)
	b := run(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("worker-count nondeterminism at step %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestParallelVoseKernelWorks(t *testing.T) {
	dev := device.New(device.Config{Workers: 4})
	f, err := filter.NewParallel(dev, model.NewUNGM(), filter.ParallelConfig{
		SubFilters: 16, ParticlesPer: 32, Scheme: exchange.Ring, ExchangeCount: 1,
		Resampler: kernels.AlgoVose,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	const runs = 4
	for run := 0; run < runs; run++ {
		f.Reset(uint64(run + 1))
		sum += meanErr(t, f, 60, run)
	}
	if avg := sum / runs; avg > 5 {
		t.Fatalf("Vose-kernel filter mean error %v, want < 5", avg)
	}
}

func TestParallelAllToAllTracks(t *testing.T) {
	dev := device.New(device.Config{Workers: 4})
	f, err := filter.NewParallel(dev, model.NewUNGM(), filter.ParallelConfig{
		SubFilters: 16, ParticlesPer: 32, Scheme: exchange.AllToAll, ExchangeCount: 2,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e := meanErr(t, f, 60, 2); e > 6 {
		t.Fatalf("all-to-all filter mean error %v, want < 6", e)
	}
}

func TestEstimatorString(t *testing.T) {
	if filter.MaxWeight.String() != "max-weight" || filter.WeightedMean.String() != "weighted-mean" {
		t.Fatal("estimator names wrong")
	}
	if filter.Estimator(9).String() == "" {
		t.Fatal("unknown estimator must stringify")
	}
}

func TestEstimateLogWeightFinite(t *testing.T) {
	f, err := filter.NewCentralized(model.NewUNGM(), 100, 1, filter.CentralizedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sc := ungmScenario(0)
	m := sc.Model()
	truth := make([]float64, 1)
	z := make([]float64, 1)
	sc.TrueState(1, truth)
	m.Measure(z, truth, rng.New(rng.NewPhilox(3)))
	est := f.Step(nil, z)
	if math.IsNaN(est.LogWeight) {
		t.Fatal("estimate log-weight NaN")
	}
	if len(est.State) != 1 {
		t.Fatalf("estimate dim %d", len(est.State))
	}
}

func TestParallelWeightedMeanEstimator(t *testing.T) {
	dev := device.New(device.Config{Workers: 4})
	f, err := filter.NewParallel(dev, model.NewUNGM(), filter.ParallelConfig{
		SubFilters: 16, ParticlesPer: 32, Scheme: exchange.Ring, ExchangeCount: 1,
		Estimator: filter.WeightedMean,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	const runs = 4
	for run := 0; run < runs; run++ {
		f.Reset(uint64(run + 1))
		sum += meanErr(t, f, 60, run)
	}
	if avg := sum / runs; avg > 6 {
		t.Fatalf("parallel weighted-mean estimator error %v, want < 6", avg)
	}
}
