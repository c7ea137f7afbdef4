package experiments

import (
	"fmt"

	"esthera/internal/device"
	"esthera/internal/exchange"
	"esthera/internal/filter"
	"esthera/internal/metrics"
	"esthera/internal/model"
	"esthera/internal/resample"
)

// PolicyAblation quantifies the §IV resampling-frequency discussion:
// always resampling vs the ESS-threshold criterion vs random-frequency
// resampling vs never, on the arm benchmark.
func PolicyAblation(o AccuracyOptions) (*Table, error) {
	o = o.withDefaults()
	m, sc, err := armScenario(o.Joints)
	if err != nil {
		return nil, err
	}
	policies := []resample.Policy{
		resample.Always{},
		resample.ESSThreshold{Frac: 0.5},
		resample.RandomFrequency{P: 0.5},
		resample.Never{},
	}
	t := &Table{
		Title:  "§IV ablation — resampling policy (distributed 64×32, no exchange)",
		Header: []string{"policy", "mean error [m]"},
		Notes: []string{
			fmt.Sprintf("%d runs × %d steps", o.Runs, o.Steps),
			"exchange disabled (t=0) to isolate the resampling-frequency effect: with exchanges enabled, neighbor replacement itself applies selection pressure and masks the policy",
		},
	}
	for _, pol := range policies {
		p := pol
		e, err := meanError(o, sc, func(seed uint64) (filter.Filter, error) {
			dev := device.New(device.Config{Workers: o.Workers, LocalMemBytes: -1})
			return filter.NewParallel(dev, m, filter.ParallelConfig{
				SubFilters: 64, ParticlesPer: 32,
				Scheme: exchange.None, ExchangeCount: 0,
				Policy: p,
			}, seed)
		})
		if err != nil {
			return nil, err
		}
		t.Append(p.Name(), e)
	}
	return t, nil
}

// VariantsAblation compares the related-work filter designs (§III-B) on
// the arm benchmark and on the multimodal UNGM: centralized, the paper's
// distributed design, LDPF, GDPF, CDPF, RPA, the Gaussian PF, and the
// Kalman baselines.
func VariantsAblation(o AccuracyOptions) (*Table, error) {
	o = o.withDefaults()
	armM, armSc, err := armScenario(o.Joints)
	if err != nil {
		return nil, err
	}
	ungmM := model.NewUNGM()
	ungmSc := model.NewSimulated(ungmM, o.Seed+9)

	const total = 1024
	const n, mp = 32, 32
	type mk func(m model.Model, seed uint64) (filter.Filter, error)
	variants := []struct {
		name string
		mk   mk
	}{
		{"centralized", func(m model.Model, seed uint64) (filter.Filter, error) {
			return filter.NewCentralized(m, total, seed, filter.CentralizedOptions{})
		}},
		{"distributed (ring t=1)", func(m model.Model, seed uint64) (filter.Filter, error) {
			dev := device.New(device.Config{Workers: o.Workers, LocalMemBytes: -1})
			return filter.NewParallel(dev, m, filter.ParallelConfig{
				SubFilters: n, ParticlesPer: mp, Scheme: exchange.Ring, ExchangeCount: 1,
			}, seed)
		}},
		{"ldpf (t=0)", func(m model.Model, seed uint64) (filter.Filter, error) {
			return filter.NewLDPF(m, n, mp, seed)
		}},
		{"gdpf (global resample)", func(m model.Model, seed uint64) (filter.Filter, error) {
			return filter.NewGDPF(m, n, mp, seed)
		}},
		{"cdpf (c=8)", func(m model.Model, seed uint64) (filter.Filter, error) {
			return filter.NewCDPF(m, n, mp, 8, seed)
		}},
		{"rpa", func(m model.Model, seed uint64) (filter.Filter, error) {
			return filter.NewRPA(m, n, mp, seed)
		}},
		{"gaussian pf", func(m model.Model, seed uint64) (filter.Filter, error) {
			return filter.NewGaussian(m, total, seed)
		}},
		{"auxiliary pf", func(m model.Model, seed uint64) (filter.Filter, error) {
			return filter.NewAPF(m, total, seed, filter.MaxWeight)
		}},
		{"ekf", func(m model.Model, seed uint64) (filter.Filter, error) {
			return filter.NewEKF(m.(model.Linearizable), seed), nil
		}},
		{"ukf", func(m model.Model, seed uint64) (filter.Filter, error) {
			return filter.NewUKF(m.(model.Linearizable), seed), nil
		}},
	}

	t := &Table{
		Title:  "§III-B ablation — filter designs on the arm and on UNGM",
		Header: []string{"filter", "arm error [m]", "ungm error"},
		Notes: []string{
			fmt.Sprintf("%d runs × %d steps; 1024 particles total (32 sub-filters × 32)", o.Runs, o.Steps),
		},
	}
	for _, v := range variants {
		mkArm := v.mk
		armErr, err := meanError(o, armSc, func(seed uint64) (filter.Filter, error) { return mkArm(armM, seed) })
		if err != nil {
			return nil, err
		}
		ungmErr, err := metrics.Average(
			func(seed uint64) (filter.Filter, error) { return mkArm(ungmM, seed) },
			func(int) model.Scenario { return ungmSc },
			o.Steps, o.Runs, o.Seed+1)
		if err != nil {
			return nil, err
		}
		t.Append(v.name, armErr, ungmErr.MeanError)
	}
	return t, nil
}

// EstimatorAblation compares the max-weight global estimate (the paper's
// operator) with the weighted mean on the arm benchmark (design decision
// 6 in DESIGN.md).
func EstimatorAblation(o AccuracyOptions) (*Table, error) {
	o = o.withDefaults()
	m, sc, err := armScenario(o.Joints)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "§IV ablation — global estimate operator (sequential distributed 32×32)",
		Header: []string{"estimator", "mean error [m]"},
		Notes:  []string{fmt.Sprintf("%d runs × %d steps", o.Runs, o.Steps)},
	}
	for _, est := range []filter.Estimator{filter.MaxWeight, filter.WeightedMean} {
		e := est
		v, err := meanError(o, sc, func(seed uint64) (filter.Filter, error) {
			return filter.NewDistributed(m, filter.DistributedConfig{
				SubFilters: 32, ParticlesPer: 32,
				Scheme: exchange.Ring, ExchangeCount: 1,
				Estimator: e,
			}, seed)
		})
		if err != nil {
			return nil, err
		}
		t.Append(e.String(), v)
	}
	return t, nil
}
