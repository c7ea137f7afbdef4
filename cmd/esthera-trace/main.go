// Command esthera-trace is the tracing toolbox. Its subcommands work
// with the span tracer in internal/telemetry:
//
//	esthera-trace convert -in spans.json -out trace.json
//	    Convert recorded span events (the /trace wire format or an
//	    already-converted Chrome trace) to Chrome trace-event JSON,
//	    loadable in chrome://tracing or https://ui.perfetto.dev.
//	    Without -in, a built-in demo pipeline runs traced rounds and
//	    converts its own spans — a one-command way to get a real trace.
//
//	esthera-trace summary -in spans.json
//	    Aggregate spans by name: count, total, mean and max duration.
//
//	esthera-trace top -in spans.json -n 10
//	    The n longest individual spans.
//
//	esthera-trace fetch -out r1.json http://replica:8080/trace?format=raw
//	    Drain one process's spans over HTTP into a file.
//
//	esthera-trace merge -out swarm.json -shards shards.json r1.json r2.json router.json
//	    Align N per-process raw trace files onto one timeline (using the
//	    router's NTP-style clock-offset estimates from /v1/shards) and
//	    emit a single Chrome trace with one track per process. Spans of
//	    one request share a trace ID across processes; -require-cross
//	    exits non-zero unless a cross-process trace contains the named
//	    span (the chaos harness's failover assertion).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"esthera/internal/device"
	"esthera/internal/exchange"
	"esthera/internal/kernels"
	"esthera/internal/model"
	"esthera/internal/rng"
	"esthera/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "esthera-trace:", err)
		os.Exit(1)
	}
}

// run dispatches one command line (without the program name).
func run(args []string) error {
	const subcommands = "convert, summary, top, fetch, merge"
	if len(args) == 0 {
		return fmt.Errorf("missing subcommand (want one of %s)", subcommands)
	}
	switch args[0] {
	case "convert":
		return runConvert(args[1:])
	case "summary":
		return runSummary(args[1:])
	case "top":
		return runTop(args[1:])
	case "fetch":
		return runFetch(args[1:])
	case "merge":
		return runMerge(args[1:])
	}
	return fmt.Errorf("unknown subcommand %q (want one of %s)", args[0], subcommands)
}

// loadEvents reads span events from a file (either the /trace wire
// format or Chrome trace JSON), or, when path is empty, runs the
// built-in demo pipeline and returns its spans.
func loadEvents(path string, d demoOptions) ([]telemetry.Event, error) {
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		evs, err := telemetry.ParseEvents(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return evs, nil
	}
	return demoEvents(d)
}

// demoOptions sizes the built-in traced pipeline run.
type demoOptions struct {
	rounds, subFilters, particles int
	seed                          uint64
	fused                         bool
}

func (d *demoOptions) flags(fs *flag.FlagSet) {
	fs.IntVar(&d.rounds, "rounds", 20, "demo: filtering rounds to trace (with -in unset)")
	fs.IntVar(&d.subFilters, "subfilters", 8, "demo: sub-filters")
	fs.IntVar(&d.particles, "particles", 64, "demo: particles per sub-filter")
	fs.Uint64Var(&d.seed, "seed", 0xE57, "demo: master seed")
	fs.BoolVar(&d.fused, "fused", true, "demo: use the fused per-group round")
}

// demoEvents runs a traced UNGM pipeline and drains its spans: device
// launches (and fused phases), per-round filter spans, health sampling.
func demoEvents(d demoOptions) ([]telemetry.Event, error) {
	dev := device.New(device.Config{LocalMemBytes: -1})
	defer dev.Close()
	tr := telemetry.New()
	tr.SetEnabled(true)
	dev.SetTracer(tr)

	mdl := model.NewUNGM()
	top, err := exchange.NewTopology(exchange.Ring, d.subFilters)
	if err != nil {
		return nil, err
	}
	pipe, err := kernels.New(dev, mdl, kernels.Config{
		SubFilters: d.subFilters, ParticlesPer: d.particles,
		ExchangeCount: 1, Topology: top,
	}, d.seed)
	if err != nil {
		return nil, err
	}
	pipe.SetTracer(tr)
	pipe.SetHealthEvery(1)

	sc := model.NewSimulated(mdl, d.seed^0x9E3779B9)
	truth := make([]float64, mdl.StateDim())
	z := make([]float64, mdl.MeasurementDim())
	u := make([]float64, mdl.ControlDim())
	measR := rng.New(rng.NewPhiloxStream(d.seed, 0xFACE))
	for k := 1; k <= d.rounds; k++ {
		sc.TrueState(k, truth)
		sc.Control(k, u)
		mdl.Measure(z, truth, measR)
		if d.fused {
			pipe.RoundFused(u, z, k)
		} else {
			pipe.Round(u, z, k)
		}
	}
	return tr.Drain(), nil
}

func runConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	in := fs.String("in", "", "span events file (empty: run the built-in demo pipeline)")
	out := fs.String("out", "", "output file (empty: stdout)")
	var d demoOptions
	d.flags(fs)
	_ = fs.Parse(args)

	evs, err := loadEvents(*in, d)
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := telemetry.WriteChromeTrace(w, evs); err != nil {
		return err
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "%d events written to %s\n", len(evs), *out)
	}
	return nil
}

func runSummary(args []string) error {
	fs := flag.NewFlagSet("summary", flag.ExitOnError)
	in := fs.String("in", "", "span events file (empty: run the built-in demo pipeline)")
	var d demoOptions
	d.flags(fs)
	_ = fs.Parse(args)

	evs, err := loadEvents(*in, d)
	if err != nil {
		return err
	}
	sums := telemetry.Summarize(evs)
	fmt.Printf("%-24s %-10s %8s %14s %14s %14s\n", "name", "cat", "count", "total", "mean", "max")
	for _, s := range sums {
		fmt.Printf("%-24s %-10s %8d %14s %14s %14s\n",
			s.Name, s.Cat, s.Count, fmtDur(s.Total), fmtDur(s.Mean()), fmtDur(s.Max))
	}
	return nil
}

func runTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	in := fs.String("in", "", "span events file (empty: run the built-in demo pipeline)")
	n := fs.Int("n", 10, "spans to show")
	var d demoOptions
	d.flags(fs)
	_ = fs.Parse(args)

	evs, err := loadEvents(*in, d)
	if err != nil {
		return err
	}
	fmt.Printf("%-24s %-10s %14s %14s\n", "name", "cat", "start", "duration")
	for _, ev := range telemetry.Top(evs, *n) {
		fmt.Printf("%-24s %-10s %14s %14s\n", ev.Name, ev.Cat, fmtDur(ev.TS), fmtDur(ev.Dur))
	}
	return nil
}

func fmtDur(d time.Duration) string { return d.Round(time.Microsecond).String() }

// runMerge aligns N per-process raw trace files onto one timeline and
// writes a single Chrome trace with one track (pid) per process.
func runMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	out := fs.String("out", "", "output file (empty: stdout)")
	shardsPath := fs.String("shards", "", "router /v1/shards JSON supplying per-process clock offsets")
	offsetsArg := fs.String("offsets", "", "manual clock offsets as name=ns[,name=ns...] (override -shards)")
	requireCross := fs.String("require-cross", "", "exit non-zero unless a cross-process trace contains this span name")
	quiet := fs.Bool("quiet", false, "suppress the stats line on stderr")
	_ = fs.Parse(args)
	files := fs.Args()
	if len(files) == 0 {
		return fmt.Errorf("merge needs at least one trace file (GET /trace?format=raw output)")
	}

	offsets, err := loadOffsets(*shardsPath, *offsetsArg)
	if err != nil {
		return err
	}
	procs := make([]telemetry.ProcessTrace, 0, len(files))
	for i, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		meta, evs, err := telemetry.ParseTrace(data)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if len(evs) == 0 {
			return fmt.Errorf("%s: no span events (empty drain, or not a trace file)", path)
		}
		if meta.Process == "" {
			meta.Process = fmt.Sprintf("proc-%d", i)
		}
		procs = append(procs, telemetry.ProcessTrace{Meta: meta, OffsetNS: offsets[meta.Process], Events: evs})
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	stats, cross, err := telemetry.MergeTraces(w, procs)
	if err != nil {
		return err
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "merged %d processes, %d events, %d traces (%d cross-process)\n",
			stats.Processes, stats.Events, stats.Traces, stats.CrossProcessTraces)
	}
	if *requireCross != "" {
		for _, ct := range cross {
			for _, span := range ct.Spans {
				if span == *requireCross {
					if !*quiet {
						fmt.Fprintf(os.Stderr, "cross-process trace %s spans %v via %q\n",
							ct.Trace, ct.Processes, *requireCross)
					}
					return nil
				}
			}
		}
		return fmt.Errorf("no cross-process trace contains span %q (%d cross-process traces checked)",
			*requireCross, len(cross))
	}
	return nil
}

// loadOffsets builds the process → clock-offset (ns) map from the
// router's /v1/shards snapshot and/or manual name=ns overrides.
func loadOffsets(shardsPath, manual string) (map[string]int64, error) {
	offsets := make(map[string]int64)
	if shardsPath != "" {
		data, err := os.ReadFile(shardsPath)
		if err != nil {
			return nil, err
		}
		var doc struct {
			Shards []struct {
				Name          string `json:"name"`
				ClockOffsetNS int64  `json:"clock_offset_ns"`
			} `json:"shards"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, fmt.Errorf("%s: not a /v1/shards snapshot: %w", shardsPath, err)
		}
		for _, sh := range doc.Shards {
			offsets[sh.Name] = sh.ClockOffsetNS
		}
	}
	if manual != "" {
		for _, pair := range strings.Split(manual, ",") {
			name, ns, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok {
				return nil, fmt.Errorf("bad -offsets entry %q, want name=ns", pair)
			}
			v, err := strconv.ParseInt(ns, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad -offsets entry %q: %v", pair, err)
			}
			offsets[name] = v
		}
	}
	return offsets, nil
}

// runFetch drains one process's trace endpoint into a file.
func runFetch(args []string) error {
	fs := flag.NewFlagSet("fetch", flag.ExitOnError)
	out := fs.String("out", "", "output file (empty: stdout)")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("fetch needs exactly one URL (e.g. http://replica:8080/trace?format=raw)")
	}
	url := fs.Arg(0)
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("fetch %s: status %d: %s", url, resp.StatusCode, body)
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	_, err = io.Copy(w, resp.Body)
	return err
}
