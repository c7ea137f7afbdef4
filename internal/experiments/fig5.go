package experiments

import (
	"time"

	"esthera/internal/device"
	"esthera/internal/exchange"
	"esthera/internal/kernels"
	"esthera/internal/model/arm"
	"esthera/internal/platform"
	"esthera/internal/resample"
	"esthera/internal/rng"
)

// Fig5Resampling reproduces Figure 5: runtime of the Roulette Wheel
// Selection algorithm versus Vose's alias method, at two scales:
//
//   - a sequential centralized filter resampling all n particles at once
//     (measured wall time, the "C (centr.)" lines), where Vose's O(1)
//     generation wins decisively at large n; and
//   - the parallel sub-filter setting (m = 128, n/128 work-groups), where
//     the table-construction serialization means "resampling with Vose's
//     is never faster" — shown both as GTX 680 cost-model predictions
//     (the "OpenCL" lines) and as measured host wall time.
func Fig5Resampling(o PerfOptions) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		Title: "Fig. 5 — resampling runtime: RWS vs Vose's alias method",
		Header: []string{"particles",
			"C-rws (ms)", "C-vose (ms)",
			"gtx680-rws (ms)", "gtx680-vose (ms)",
			"host-rws (ms)", "host-vose (ms)"},
		Notes: []string{
			"C columns: measured sequential wall time; gtx680 columns: cost-model prediction at m=128",
		},
	}
	gpu, err := platform.ByName("GTX 680")
	if err != nil {
		return nil, err
	}
	for _, n := range o.Totals {
		seqRWS, seqVose := measureSequentialResample(n)
		gpuRWS, hostRWS, err := measureKernelResample(o, gpu, n, kernels.AlgoRWS)
		if err != nil {
			return nil, err
		}
		gpuVose, hostVose, err := measureKernelResample(o, gpu, n, kernels.AlgoVose)
		if err != nil {
			return nil, err
		}
		t.Append(n,
			ms(seqRWS), ms(seqVose),
			ms(gpuRWS), ms(gpuVose),
			ms(hostRWS), ms(hostVose))
	}
	return t, nil
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// measureSequentialResample times one full centralized resample of n
// particles with RWS and with Vose (index generation only — payload
// movement is common to both algorithms). The two resamplers' trials
// alternate, so a burst of load on the host lands on both.
func measureSequentialResample(n int) (rws, vose time.Duration) {
	r := rng.New(rng.NewPhilox(1))
	w := make([]float64, n)
	for i := range w {
		w[i] = r.Float64()
	}
	dst := make([]int, n)
	algos := [2]resample.Resampler{resample.RWS{}, resample.Vose{}}
	// Warm each once, then time the best of three (loaded-host noise
	// guard).
	for _, rs := range algos {
		rs.Resample(dst, w, r)
	}
	best := [2]time.Duration{1 << 62, 1 << 62}
	for trial := 0; trial < 3; trial++ {
		for i, rs := range algos {
			start := time.Now()
			rs.Resample(dst, w, r)
			if d := time.Since(start); d < best[i] {
				best[i] = d
			}
		}
	}
	return best[0], best[1]
}

// measureKernelResample runs only the resampling kernel over n/m
// sub-filters of m=SubFilterSize particles and returns the platform
// prediction and the measured host time for one launch.
func measureKernelResample(o PerfOptions, p platform.Platform, n int, algo kernels.Algo) (predicted, host time.Duration, err error) {
	m := o.SubFilterSize
	groups := n / m
	if groups < 1 {
		groups = 1
	}
	mdl, _, err := arm.NewScenario(arm.Config{Joints: o.Joints}, arm.DefaultLemniscate())
	if err != nil {
		return 0, 0, err
	}
	dev := device.New(device.Config{Workers: o.Workers, LocalMemBytes: -1})
	top, err := exchange.NewTopology(exchange.None, groups)
	if err != nil {
		return 0, 0, err
	}
	pipe, err := kernels.New(dev, mdl, kernels.Config{
		SubFilters:   groups,
		ParticlesPer: m,
		Topology:     top,
		Resampler:    algo,
	}, 1)
	if err != nil {
		return 0, 0, err
	}
	// Non-trivial weights so the algorithms do real work.
	r := rng.New(rng.NewPhilox(2))
	lw := pipe.LogWeights()
	for i := range lw {
		lw[i] = r.Float64() * 4
	}
	const launches = 3
	for i := 0; i < launches; i++ {
		pipe.KernelResample()
	}
	for _, e := range dev.Profiler().Snapshot() {
		if e.Name == "resampling" {
			predicted = p.PredictKernel(e.Count, e.Launches, groups) / launches
			host = e.Elapsed / launches
		}
	}
	return predicted, host, nil
}
