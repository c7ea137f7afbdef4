// Command esthera runs particle filters and regenerates the paper's
// evaluation. It has two subcommands:
//
//	esthera track [flags]
//	    Run one filter against one of the bundled benchmark scenarios
//	    and report the per-step estimation error and the achieved update
//	    rate.
//
//	esthera run [flags] [experiment...]
//	    Regenerate the named experiments (all of them, in registry
//	    order, when none is named): Table III, Figs. 3–9, the §III-B/§IV
//	    ablations and §IX. Budgets are reduced by default; -full, -runs
//	    and -steps restore paper scale. With -out, every table is also
//	    written as .txt and .csv, plus REPORT.txt, a copy of everything
//	    printed.
//
// Examples:
//
//	esthera track -model arm -joints 5 -subfilters 120 -m 128 -steps 100
//	esthera track -model ungm -filter centralized -particles 4096
//	esthera run table3 fig3
//	esthera run -runs 100 -steps 100 fig6
//	esthera run -plot fig8
//	esthera run -out report/
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"esthera"
	"esthera/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "esthera:", err)
		os.Exit(1)
	}
}

// run dispatches one command line (without the program name).
func run(args []string, stdout io.Writer) error {
	usage := "usage: esthera track [flags] | esthera run [flags] [experiment...]\nexperiments: " + experiments.Names()
	if len(args) == 0 {
		return fmt.Errorf("missing subcommand\n%s", usage)
	}
	switch args[0] {
	case "track":
		return runTrack(args[1:], stdout)
	case "run":
		return runExperiments(args[1:], stdout)
	}
	return fmt.Errorf("unknown subcommand %q\n%s", args[0], usage)
}

func runTrack(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("track", flag.ExitOnError)
	var (
		modelName  = fs.String("model", "arm", "model: arm, ungm, bearings, volatility")
		joints     = fs.Int("joints", 5, "arm joints (state dim = joints + 4)")
		filterName = fs.String("filter", "parallel", "filter: parallel, sequential, centralized, gaussian, ekf, ukf")
		subFilters = fs.Int("subfilters", 120, "sub-filter count N")
		mPer       = fs.Int("m", 128, "particles per sub-filter")
		scheme     = fs.String("scheme", "ring", "exchange scheme: ring, torus, all-to-all, none")
		tCount     = fs.Int("t", 1, "particles exchanged per neighbor")
		resampler  = fs.String("resampler", "rws", "resampler: rws, vose, systematic")
		policy     = fs.String("policy", "always", "resampling policy: always, ess, random, never")
		estimator  = fs.String("estimator", "max-weight", "estimate operator: max-weight, weighted-mean")
		particles  = fs.Int("particles", 4096, "total particles (centralized/gaussian)")
		steps      = fs.Int("steps", 100, "filtering steps")
		seed       = fs.Uint64("seed", 1, "master seed")
		quiet      = fs.Bool("quiet", false, "suppress the per-step table")
	)
	_ = fs.Parse(args)

	m, sc, err := makeScenario(*modelName, *joints, *seed)
	if err != nil {
		return err
	}
	cfg := esthera.Config{
		SubFilters:            *subFilters,
		ParticlesPerSubFilter: *mPer,
		ExchangeScheme:        *scheme,
		ExchangeCount:         *tCount,
		Resampler:             *resampler,
		Policy:                *policy,
		Estimator:             *estimator,
		Seed:                  *seed,
	}
	f, total, err := makeFilter(*filterName, m, cfg, *particles, *seed)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "model=%s state-dim=%d filter=%s particles=%d steps=%d seed=%d\n",
		m.Name(), m.StateDim(), f.Name(), total, *steps, *seed)
	start := time.Now()
	errs, err := esthera.Track(f, sc, *steps, *seed+1000)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	if !*quiet {
		fmt.Fprintln(stdout, "step  error")
		for k, e := range errs {
			fmt.Fprintf(stdout, "%4d  %.4f\n", k+1, e)
		}
	}
	mean, worst := 0.0, 0.0
	for _, e := range errs {
		mean += e
		if e > worst {
			worst = e
		}
	}
	mean /= float64(len(errs))
	fmt.Fprintf(stdout, "mean error     %.4f\n", mean)
	fmt.Fprintf(stdout, "worst error    %.4f\n", worst)
	fmt.Fprintf(stdout, "update rate    %.1f Hz (%s per step on this host)\n",
		float64(*steps)/elapsed.Seconds(), elapsed/time.Duration(*steps))
	return nil
}

func makeScenario(name string, joints int, seed uint64) (esthera.Model, esthera.Scenario, error) {
	switch name {
	case "arm":
		return esthera.NewArmScenario(joints)
	case "ungm":
		m, sc := esthera.NewUNGMScenario(seed)
		return m, sc, nil
	case "bearings":
		m, sc := esthera.NewBearingsScenario(seed)
		return m, sc, nil
	case "volatility":
		m, sc := esthera.NewVolatilityScenario(seed)
		return m, sc, nil
	}
	return nil, nil, fmt.Errorf("unknown model %q", name)
}

func makeFilter(name string, m esthera.Model, cfg esthera.Config, particles int, seed uint64) (esthera.Filter, int, error) {
	switch name {
	case "parallel":
		f, err := esthera.NewFilter(m, cfg)
		return f, cfg.SubFilters * cfg.ParticlesPerSubFilter, err
	case "sequential":
		f, err := esthera.NewSequentialFilter(m, cfg)
		return f, cfg.SubFilters * cfg.ParticlesPerSubFilter, err
	case "centralized":
		f, err := esthera.NewCentralizedFilter(m, particles, seed)
		return f, particles, err
	case "gaussian":
		f, err := esthera.NewGaussianFilter(m, particles, seed)
		return f, particles, err
	case "ekf", "ukf":
		lin, ok := m.(esthera.Linearizable)
		if !ok {
			return nil, 0, fmt.Errorf("model %s does not support Kalman baselines", m.Name())
		}
		if name == "ekf" {
			return esthera.NewEKF(lin, seed), 0, nil
		}
		return esthera.NewUKF(lin, seed), 0, nil
	}
	return nil, 0, fmt.Errorf("unknown filter %q", name)
}

func runExperiments(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var o experiments.Options
	fs.IntVar(&o.Runs, "runs", 0, "independent runs per accuracy configuration (0 = 8; paper: 100)")
	fs.IntVar(&o.Steps, "steps", 0, "filtering steps per run (0 = 60, and 160 for Fig. 8; paper: 100)")
	fs.Uint64Var(&o.Seed, "seed", 0, "master seed (0 = 0xE57)")
	fs.IntVar(&o.Joints, "joints", 0, "arm joints (0 = 5)")
	fs.IntVar(&o.Workers, "workers", 0, "host device workers (0 = GOMAXPROCS)")
	fs.BoolVar(&o.Full, "full", false, "paper-scale performance sweeps (slow: up to 2M particles)")
	fs.BoolVar(&o.Plot, "plot", false, "print Fig. 8 as an ASCII chart instead of its table")
	out := fs.String("out", "", "also write every table as .txt and .csv, plus REPORT.txt, into this directory")
	_ = fs.Parse(args)

	exps, err := experiments.Select(fs.Args())
	if err != nil {
		return err
	}
	w := stdout
	var report strings.Builder
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
		fmt.Fprintf(&report, "esthera run %s\n\n", strings.Join(args, " "))
		w = io.MultiWriter(stdout, &report)
	}
	for _, e := range exps {
		tables, err := e.Run(w, o)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		if *out == "" {
			continue
		}
		for i, t := range tables {
			base := e.Name
			if len(tables) > 1 {
				base = fmt.Sprintf("%s-%d", e.Name, i+1)
			}
			if err := writeTable(filepath.Join(*out, base), t); err != nil {
				return err
			}
		}
	}
	if *out == "" {
		return nil
	}
	return os.WriteFile(filepath.Join(*out, "REPORT.txt"), []byte(report.String()), 0o644)
}

// writeTable writes t as base.txt and base.csv.
func writeTable(base string, t *experiments.Table) error {
	var csv bytes.Buffer
	if err := t.WriteCSV(&csv); err != nil {
		return err
	}
	if err := os.WriteFile(base+".txt", []byte(t.String()), 0o644); err != nil {
		return err
	}
	return os.WriteFile(base+".csv", csv.Bytes(), 0o644)
}
