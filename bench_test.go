package esthera_test

// One benchmark per evaluation artifact of the paper. The benches time
// real filtering rounds on this host and attach the figure's own metric
// (update rate in Hz, or mean tracking error in meters) as custom
// benchmark metrics, so `go test -bench=.` regenerates the measured side
// of every table and figure. The cross-platform predictions and the full
// row/series printouts come from `esthera run` (see EXPERIMENTS.md).

import (
	"errors"
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"esthera"
	"esthera/internal/device"
	"esthera/internal/exchange"
	"esthera/internal/filter"
	"esthera/internal/kernels"
	"esthera/internal/model"
	"esthera/internal/model/arm"
	"esthera/internal/resample"
	"esthera/internal/rng"
	"esthera/internal/telemetry"
)

// benchScenario sets up the arm benchmark and measurement plumbing.
type benchScenario struct {
	m     model.Model
	sc    model.Scenario
	truth []float64
	z     []float64
	u     []float64
	measR *rng.Rand
	k     int
}

func newBenchScenario(b *testing.B, joints int) *benchScenario {
	b.Helper()
	m, sc, err := arm.NewScenario(arm.Config{Joints: joints}, arm.DefaultLemniscate())
	if err != nil {
		b.Fatal(err)
	}
	return &benchScenario{
		m: m, sc: sc,
		truth: make([]float64, m.StateDim()),
		z:     make([]float64, m.MeasurementDim()),
		u:     make([]float64, m.ControlDim()),
		measR: rng.New(rng.NewPhiloxStream(7, 0x4D53)),
	}
}

// step advances ground truth one step and returns (u, z).
func (s *benchScenario) step() ([]float64, []float64) {
	s.k++
	s.sc.TrueState(s.k, s.truth)
	s.sc.Control(s.k, s.u)
	s.m.Measure(s.z, s.truth, s.measR)
	return s.u, s.z
}

// trackedError returns the position error of an estimate vs current truth.
func (s *benchScenario) trackedError(est filter.Estimate) float64 {
	ex, ey := s.m.TrackedPosition(est.State)
	tx, ty := s.m.TrackedPosition(s.truth)
	dx, dy := ex-tx, ey-ty
	return dx*dx + dy*dy // squared; sqrt applied by caller on the mean
}

// benchParallelArm times full filtering rounds for a given shape and
// reports Hz and particles/sec.
func benchParallelArm(b *testing.B, subFilters, particlesPer, joints int) {
	b.Helper()
	s := newBenchScenario(b, joints)
	dev := device.New(device.Config{LocalMemBytes: -1})
	f, err := filter.NewParallel(dev, s.m, filter.ParallelConfig{
		SubFilters:    subFilters,
		ParticlesPer:  particlesPer,
		Scheme:        exchange.Ring,
		ExchangeCount: 1,
	}, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, z := s.step()
		f.Step(u, z)
	}
	b.StopTimer()
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "Hz")
		b.ReportMetric(float64(b.N)*float64(subFilters*particlesPer)/sec, "particles/s")
	}
}

// BenchmarkFig3UpdateRate regenerates the measured (host) side of Fig. 3:
// achieved update rate vs total particle count at m=128.
func BenchmarkFig3UpdateRate(b *testing.B) {
	for _, total := range []int{1 << 10, 1 << 14, 1 << 17, 1 << 20} {
		n := total / 128
		if n < 1 {
			n = 1
		}
		b.Run(byteSize(total), func(b *testing.B) {
			benchParallelArm(b, n, 128, 5)
		})
	}
}

// BenchmarkFig4aParticlesPerSubFilter scales the sub-filter size
// (Fig. 4a; per-kernel fractions via `esthera run fig4a`).
func BenchmarkFig4aParticlesPerSubFilter(b *testing.B) {
	for _, m := range []int{32, 128, 512} {
		b.Run(byteSize(m), func(b *testing.B) {
			benchParallelArm(b, 256, m, 5)
		})
	}
}

// BenchmarkFig4bSubFilters scales the network size (Fig. 4b).
func BenchmarkFig4bSubFilters(b *testing.B) {
	for _, n := range []int{64, 512, 2048} {
		b.Run(byteSize(n), func(b *testing.B) {
			benchParallelArm(b, n, 128, 5)
		})
	}
}

// BenchmarkFig4cStateDims scales the state dimension via the arm's joint
// count (Fig. 4c).
func BenchmarkFig4cStateDims(b *testing.B) {
	for _, dims := range []int{8, 16, 32} {
		b.Run(byteSize(dims), func(b *testing.B) {
			benchParallelArm(b, 256, 128, dims-4)
		})
	}
}

// BenchmarkFig5Resampling regenerates the measured side of Fig. 5: RWS vs
// Vose, sequential-centralized vs parallel sub-filter kernels.
func BenchmarkFig5Resampling(b *testing.B) {
	const n = 1 << 18
	weights := make([]float64, n)
	r := rng.New(rng.NewPhilox(1))
	for i := range weights {
		weights[i] = r.Float64()
	}
	dst := make([]int, n)
	for _, rs := range []resample.Resampler{resample.RWS{}, resample.Vose{}} {
		b.Run("sequential-"+rs.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rs.Resample(dst, weights, r)
			}
		})
	}
	for _, algo := range []kernels.Algo{kernels.AlgoRWS, kernels.AlgoVose} {
		b.Run("kernel-"+algo.String(), func(b *testing.B) {
			m, _, err := arm.NewScenario(arm.Config{}, arm.DefaultLemniscate())
			if err != nil {
				b.Fatal(err)
			}
			dev := device.New(device.Config{LocalMemBytes: -1})
			top, _ := exchange.NewTopology(exchange.None, n/128)
			pipe, err := kernels.New(dev, m, kernels.Config{
				SubFilters: n / 128, ParticlesPer: 128, Topology: top, Resampler: algo,
			}, 1)
			if err != nil {
				b.Fatal(err)
			}
			lw := pipe.LogWeights()
			for i := range lw {
				lw[i] = r.Float64() * 4
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pipe.KernelResample()
			}
		})
	}
}

// benchAccuracy times filtering rounds and reports the figure's metric —
// the mean tracked-position error — alongside.
func benchAccuracy(b *testing.B, mk func() (filter.Filter, error)) {
	b.Helper()
	s := newBenchScenario(b, 5)
	f, err := mk()
	if err != nil {
		b.Fatal(err)
	}
	sumSq := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, z := s.step()
		est := f.Step(u, z)
		sumSq += s.trackedError(est)
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(math.Sqrt(sumSq/float64(b.N)), "rmse_m")
	}
}

// BenchmarkFig6ExchangeSchemes regenerates Fig. 6's configurations
// (error metric attached as rmse_m; full sweep via `esthera run fig6`).
func BenchmarkFig6ExchangeSchemes(b *testing.B) {
	for _, scheme := range []exchange.Scheme{exchange.AllToAll, exchange.Ring, exchange.Torus2D} {
		sch := scheme
		b.Run(scheme.String(), func(b *testing.B) {
			benchAccuracy(b, func() (filter.Filter, error) {
				dev := device.New(device.Config{LocalMemBytes: -1})
				m, _, err := arm.NewScenario(arm.Config{}, arm.DefaultLemniscate())
				if err != nil {
					return nil, err
				}
				return filter.NewParallel(dev, m, filter.ParallelConfig{
					SubFilters: 64, ParticlesPer: 16, Scheme: sch, ExchangeCount: 1,
				}, 1)
			})
		})
	}
}

// BenchmarkFig7ExchangeCount regenerates Fig. 7's configurations.
func BenchmarkFig7ExchangeCount(b *testing.B) {
	for _, t := range []int{0, 1, 4} {
		tc := t
		b.Run(byteSize(t), func(b *testing.B) {
			benchAccuracy(b, func() (filter.Filter, error) {
				dev := device.New(device.Config{LocalMemBytes: -1})
				m, _, err := arm.NewScenario(arm.Config{}, arm.DefaultLemniscate())
				if err != nil {
					return nil, err
				}
				return filter.NewParallel(dev, m, filter.ParallelConfig{
					SubFilters: 64, ParticlesPer: 16, Scheme: exchange.Ring, ExchangeCount: tc,
				}, 1)
			})
		})
	}
}

// BenchmarkFig8Trajectory times the Fig. 8 high-particle configuration.
func BenchmarkFig8Trajectory(b *testing.B) {
	benchAccuracy(b, func() (filter.Filter, error) {
		dev := device.New(device.Config{LocalMemBytes: -1})
		m, _, err := arm.NewScenario(arm.Config{}, arm.DefaultLemniscate())
		if err != nil {
			return nil, err
		}
		return filter.NewParallel(dev, m, filter.ParallelConfig{
			SubFilters: 64, ParticlesPer: 64, Scheme: exchange.Ring, ExchangeCount: 1,
		}, 1)
	})
}

// BenchmarkFig9DistributedVsCentralized regenerates Fig. 9's comparison
// at 4096 total particles.
func BenchmarkFig9DistributedVsCentralized(b *testing.B) {
	m, _, err := arm.NewScenario(arm.Config{}, arm.DefaultLemniscate())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("centralized", func(b *testing.B) {
		benchAccuracy(b, func() (filter.Filter, error) {
			return filter.NewCentralized(m, 4096, 1, filter.CentralizedOptions{})
		})
	})
	for _, mp := range []int{16, 64} {
		size := mp
		b.Run("distributed-m"+byteSize(mp), func(b *testing.B) {
			benchAccuracy(b, func() (filter.Filter, error) {
				dev := device.New(device.Config{LocalMemBytes: -1})
				return filter.NewParallel(dev, m, filter.ParallelConfig{
					SubFilters: 4096 / size, ParticlesPer: size,
					Scheme: exchange.Ring, ExchangeCount: 1,
				}, 1)
			})
		})
	}
}

// BenchmarkTableIIDefaults times the full paper-default configuration
// (Table II: 120 sub-filters × 128 particles, 5-joint arm, ring t=1).
func BenchmarkTableIIDefaults(b *testing.B) {
	s := newBenchScenario(b, 5)
	f, err := esthera.NewFilter(s.m, esthera.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, z := s.step()
		f.Step(u, z)
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "Hz")
	}
}

// benchRoundPath times full filtering rounds through either the unfused
// kernel-per-launch path (Pipeline.Round) or the fused path
// (Pipeline.RoundFused) at the paper's default 128-lane work-groups. The
// two are bit-identical (see internal/kernels golden-trace tests); the
// ratio between them is pure launch/synchronization overhead, the cost
// this PR's persistent pool + kernel fusion attack. The launch-overhead
// series pass UNGM, whose per-lane model work is small, so the
// sub-filter kernels stay in the launch-overhead-dominated regime of
// Fig. 4a's left edge.
func benchRoundPath(b *testing.B, m model.Model, fused, traced bool, subFilters, particlesPer int, algo kernels.Algo) {
	b.Helper()
	dev := device.New(device.Config{LocalMemBytes: -1})
	defer dev.Close()
	top, err := exchange.NewTopology(exchange.Ring, subFilters)
	if err != nil {
		b.Fatal(err)
	}
	pipe, err := kernels.New(dev, m, kernels.Config{
		SubFilters:    subFilters,
		ParticlesPer:  particlesPer,
		ExchangeCount: 1,
		Topology:      top,
		Resampler:     algo,
	}, 1)
	if err != nil {
		b.Fatal(err)
	}
	if traced {
		tr := telemetry.New()
		tr.SetEnabled(true)
		dev.SetTracer(tr)
		pipe.SetTracer(tr)
		pipe.SetHealthEvery(1)
	}
	z := make([]float64, m.MeasurementDim())
	round := func(i int) {
		z[0] = 10 * math.Sin(float64(i)*0.3)
		if fused {
			pipe.RoundFused(nil, z, i+1)
		} else {
			pipe.Round(nil, z, i+1)
		}
	}
	// Warm-up rounds fill the device's Group stack and local-memory
	// arenas before timing (New fills the launch-task list), so a short
	// run (a low -benchtime, or the slow n=256 series) does not read
	// those first-round allocations as allocs/op.
	const warm = 10
	for i := 0; i < warm; i++ {
		round(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := warm; i < warm+b.N; i++ {
		round(i)
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)*float64(subFilters*particlesPer)/sec, "particles/s")
	}
}

// BenchmarkRound is the unfused baseline: six kernels, six launches.
func BenchmarkRound(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run("n="+strconv.Itoa(n)+"/m=128", func(b *testing.B) {
			benchRoundPath(b, model.NewUNGM(), false, false, n, 128, kernels.AlgoRWS)
		})
	}
}

// BenchmarkRoundFused fuses rand+sampling+local sort into one launch.
// BENCH_2.json records the pair; the fused/unfused ratio is this PR's
// headline number. Telemetry stays detached here — this is the number
// scripts/bench_guard.sh holds the hot path to.
func BenchmarkRoundFused(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run("n="+strconv.Itoa(n)+"/m=128", func(b *testing.B) {
			benchRoundPath(b, model.NewUNGM(), true, false, n, 128, kernels.AlgoRWS)
		})
	}
}

// BenchmarkRoundFusedScalarModels is the fused round for the served
// models with no native VecModel, at the serve default 16×64 shape. The
// per-lane adapter runs Step once per particle, so every transition
// draw takes the block buffer's scalar Uint64 path, which the UNGM
// series, all bulk fills, barely touch.
func BenchmarkRoundFusedScalarModels(b *testing.B) {
	for _, c := range []struct {
		name string // the serve registry's name
		m    model.Model
	}{
		{"volatility", model.NewStochasticVolatility()},
		{"vehicle", model.NewVehicle()},
	} {
		b.Run(c.name+"/n=16/m=64", func(b *testing.B) {
			benchRoundPath(b, c.m, true, false, 16, 64, kernels.AlgoRWS)
		})
	}
}

// BenchmarkRoundFusedTraced is the fused round with full observability
// on: span recording for every launch and round, filter health sampled
// every round. The delta vs BenchmarkRoundFused is the enabled-telemetry
// overhead; DESIGN.md §9 records the measured budget.
func BenchmarkRoundFusedTraced(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run("n="+strconv.Itoa(n)+"/m=128", func(b *testing.B) {
			benchRoundPath(b, model.NewUNGM(), true, true, n, 128, kernels.AlgoRWS)
		})
	}
}

// BenchmarkRoundBatch is the serve-path variant: B concurrent sessions'
// rounds executed either as B independent unfused rounds (what serving
// cost before cross-session batching) or as one fused batched round
// (kernels.Batcher.Round, what the serve scheduler issues). The
// batched-fused-b=32 row is serve-busy's shape: 32 UNGM 16×64 ring t=1
// sessions. The ceiling row runs the same 32 sessions on GOMAXPROCS
// independent 1-worker devices, one goroutine each: what the host
// allows without a shared device. Both ns/op are per round of all 32
// sessions, so ceiling over batched is the device's scaling against
// that limit (DESIGN.md §2.1).
func BenchmarkRoundBatch(b *testing.B) {
	// mk builds sessions UNGM pipelines on dev, seeded seed+1 on.
	mk := func(b *testing.B, dev *device.Device, seed, sessions, subFilters, particlesPer int) []*kernels.Pipeline {
		b.Helper()
		ps := make([]*kernels.Pipeline, sessions)
		for i := range ps {
			top, err := exchange.NewTopology(exchange.Ring, subFilters)
			if err != nil {
				b.Fatal(err)
			}
			ps[i], err = kernels.New(dev, model.NewUNGM(), kernels.Config{
				SubFilters:    subFilters,
				ParticlesPer:  particlesPer,
				ExchangeCount: 1,
				Topology:      top,
			}, uint64(seed+i+1))
			if err != nil {
				b.Fatal(err)
			}
		}
		return ps
	}
	report := func(b *testing.B, particles int) {
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(float64(b.N)*float64(particles)/sec, "particles/s")
		}
	}
	// batchStep returns round i of a persistent Batcher with reused
	// entries over mk's sessions: how a long-lived scheduler drives this
	// path. The steady-state round is allocation-free (pinned by
	// TestRoundBatchSteadyStateAllocs).
	batchStep := func(b *testing.B, dev *device.Device, seed, sessions, subFilters, particlesPer int) func(i int) error {
		ps := mk(b, dev, seed, sessions, subFilters, particlesPer)
		batcher := kernels.NewBatcher(dev)
		batch := make([]*kernels.BatchRound, sessions)
		for j, p := range ps {
			batch[j] = &kernels.BatchRound{P: p}
		}
		z := []float64{0}
		return func(i int) error {
			z[0] = 10 * math.Sin(float64(i)*0.3)
			for _, e := range batch {
				e.Z = z
				e.K = i + 1
			}
			return batcher.Round(batch)
		}
	}
	// Warm-up rounds grow the batchers' tables and the devices' Group
	// stacks to steady state (see benchRoundPath).
	const warm = 10
	b.Run("sequential-unfused", func(b *testing.B) {
		dev := device.New(device.Config{LocalMemBytes: -1})
		defer dev.Close()
		ps := mk(b, dev, 0, 8, 16, 128)
		z := []float64{0}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			z[0] = 10 * math.Sin(float64(i)*0.3)
			for _, p := range ps {
				p.Round(nil, z, i+1)
			}
		}
		b.StopTimer()
		report(b, 8*16*128)
	})
	batched := func(b *testing.B, sessions, subFilters, particlesPer int) {
		dev := device.New(device.Config{LocalMemBytes: -1})
		defer dev.Close()
		step := batchStep(b, dev, 0, sessions, subFilters, particlesPer)
		for i := 0; i < warm; i++ {
			if err := step(i); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := warm; i < warm+b.N; i++ {
			if err := step(i); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		report(b, sessions*subFilters*particlesPer)
	}
	b.Run("batched-fused", func(b *testing.B) { batched(b, 8, 16, 128) })
	b.Run("batched-fused-b=32-n=16-m=64", func(b *testing.B) { batched(b, 32, 16, 64) })
	b.Run("ceiling-b=32-n=16-m=64", func(b *testing.B) {
		const sessions = 32
		p := runtime.GOMAXPROCS(0)
		if p > sessions {
			p = sessions
		}
		// Pipeline w gets an even share of the sessions, seeded as the
		// batched row seeds them, so the two rows step the same filters.
		steps := make([]func(int) error, p)
		seed := 0
		for w := range steps {
			share := sessions / p
			if w < sessions%p {
				share++
			}
			dev := device.New(device.Config{Workers: 1, LocalMemBytes: -1})
			defer dev.Close()
			steps[w] = batchStep(b, dev, seed, share, 16, 64)
			seed += share
		}
		for i := 0; i < warm; i++ {
			for _, step := range steps {
				if err := step(i); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		var wg sync.WaitGroup
		for _, step := range steps {
			wg.Add(1)
			go func(step func(int) error) {
				defer wg.Done()
				for i := warm; i < warm+b.N; i++ {
					if err := step(i); err != nil {
						b.Error(err)
						return
					}
				}
			}(step)
		}
		wg.Wait()
		b.StopTimer()
		report(b, sessions*16*64)
	})
}

func byteSize(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return strconv.Itoa(n>>20) + "M"
	case n >= 1<<10 && n%(1<<10) == 0:
		return strconv.Itoa(n>>10) + "K"
	}
	return strconv.Itoa(n)
}

// BenchmarkServeSessions measures the serving layer's aggregate step
// throughput at increasing tenancy: the same total number of observation
// steps pushed through 1, 8 and 64 concurrent sessions on one shared
// device. Rising aggregate Hz with session count is the cross-session
// batching at work (more pending steps per scheduling round → larger
// merged grids → better device utilization).
func BenchmarkServeSessions(b *testing.B) {
	for _, sessions := range []int{1, 8, 64} {
		b.Run("sessions="+strconv.Itoa(sessions), func(b *testing.B) {
			s := esthera.NewServer(esthera.ServerConfig{})
			defer s.Shutdown()
			ids := make([]string, sessions)
			for i := range ids {
				var err error
				ids[i], err = s.Create(esthera.FilterSpec{
					Model: "ungm", SubFilters: 16, ParticlesPer: 64, Seed: uint64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			var next atomic.Int64
			b.ResetTimer()
			var wg sync.WaitGroup
			for i := range ids {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for k := 1; next.Add(1) <= int64(b.N); k++ {
						z := []float64{10 * math.Sin(float64(k)*0.3+float64(i))}
						for {
							_, err := s.Step(ids[i], nil, z)
							if err == nil {
								break
							}
							var sat *esthera.SaturatedError
							if !errors.As(err, &sat) {
								b.Error(err)
								return
							}
							time.Sleep(sat.RetryAfter)
						}
					}
				}(i)
			}
			wg.Wait()
			b.StopTimer()
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(b.N)/sec, "steps/s")
			}
		})
	}
}
