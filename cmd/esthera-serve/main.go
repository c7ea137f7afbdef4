// Command esthera-serve runs the multi-session estimation service over
// HTTP: many concurrent tracking sessions — one distributed particle
// filter each — share one many-core device, with bounded admission,
// cross-session batched kernel launches, checkpoint/restore and a
// /metrics introspection endpoint.
//
// Examples:
//
//	esthera-serve                        # listen on :8080
//	esthera-serve -addr :9000 -workers 8
//	esthera-serve -queue 64 -batch 16 -sessions 128
//
// -batch caps how many queued steps share one launch; the scheduler
// never waits to fill a batch, so a lone step runs at once.
//
// API (JSON over HTTP; see internal/serve):
//
//	POST   /v1/sessions                 {"spec": {"model": "ungm", ...}}
//	POST   /v1/sessions/{id}/step       {"u": [...], "z": [...]}
//	GET    /v1/sessions/{id}
//	GET    /v1/sessions/{id}/checkpoint
//	POST   /v1/restore
//	DELETE /v1/sessions/{id}
//	GET    /metrics                     Prometheus text exposition of the server's stats
//	GET    /trace                       drain recorded spans as Chrome trace JSON
//	POST   /trace                       {"enabled": bool} toggles span recording
//	GET    /healthz                     liveness (200 while the process is up)
//	GET    /readyz                      readiness (503 once draining or closed)
//
// -trace starts span recording at boot; -health-stride controls
// per-session filter-health sampling. -pprof-addr serves net/http/pprof
// on a separate address (off by default, never on the service port).
//
// -shard-addr additionally serves the shard control endpoints there, as
// plain HTTP (see internal/shard): POST /v1/shard/ping, /v1/shard/export
// and /v1/shard/restore — health probes plus at-most-once checkpoint
// export and restore, which is what lets an esthera-router probe this
// replica, fail over its sessions, and live-migrate them bit-exactly.
// -shard-name sets the replica's name in probe replies, traces and logs
// (default -shard-addr in probe replies and -addr in traces and logs).
//
// On SIGINT/SIGTERM the server drains gracefully: it stops admitting
// new steps (readiness goes 503 so load balancers route around it),
// waits up to -drain-timeout for in-flight steps to deliver, then shuts
// the HTTP listener and the device down.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux, served only via -pprof-addr
	"os"
	"os/signal"
	"syscall"
	"time"

	"esthera"
	"esthera/internal/shard"
	"esthera/internal/telemetry"
	tlog "esthera/internal/telemetry/log"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 0, "device workers (0 = GOMAXPROCS)")
		sessions = flag.Int("sessions", 0, "max concurrent sessions (0 = 256)")
		queue    = flag.Int("queue", 0, "admission queue depth (0 = 128)")
		batch    = flag.Int("batch", 0, "max steps coalesced per launch (0 = 32)")
		retry    = flag.Duration("retry", 0, "retry-after hint before batch latency is measured (0 = 5ms)")
		drain    = flag.Duration("drain-timeout", 10*time.Second, "max wait for in-flight steps on shutdown")
		trace    = flag.Bool("trace", false, "start with span recording enabled (toggle at runtime via POST /trace)")
		stride   = flag.Int("health-stride", 0, "sample filter health every k rounds (0 = every round, <0 = off)")
		pprof    = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")
		shAddr   = flag.String("shard-addr", "", "serve the shard control endpoints (HTTP ping, export, restore) on this address (empty = disabled)")
		shName   = flag.String("shard-name", "", "replica name in probe replies, traces and logs (empty = -shard-addr in probe replies, -addr in traces and logs)")
		logLevel = flag.String("log-level", "info", "structured log level: debug, info, warn, error, off (runtime via POST /logz)")
		version  = flag.Bool("version", false, "print the build string and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(telemetry.BuildString())
		return
	}
	lv, err := tlog.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "esthera-serve:", err)
		os.Exit(2)
	}
	name := *shName
	if name == "" {
		name = *addr
	}

	s := esthera.NewServer(esthera.ServerConfig{
		Workers:      *workers,
		MaxSessions:  *sessions,
		QueueDepth:   *queue,
		MaxBatch:     *batch,
		RetryAfter:   *retry,
		Trace:        *trace,
		HealthStride: *stride,
		Name:         name,
		LogLevel:     lv,
		LogSink:      os.Stderr,
	})
	defer s.Shutdown()

	if *pprof != "" {
		// pprof gets its own listener and mux so profiling endpoints are
		// never exposed on the service address. http.DefaultServeMux
		// carries the net/http/pprof registrations from the import above.
		go func() {
			fmt.Fprintf(os.Stderr, "esthera-serve pprof listening on %s\n", *pprof)
			srv := &http.Server{Addr: *pprof, Handler: http.DefaultServeMux, ReadHeaderTimeout: 5 * time.Second}
			if err := srv.ListenAndServe(); err != nil {
				fmt.Fprintf(os.Stderr, "esthera-serve pprof: %v\n", err)
			}
		}()
	}

	if *shAddr != "" {
		name := *shName
		if name == "" {
			name = *shAddr
		}
		tl := shard.NewListener(name, shard.NewAgent(name, s))
		if err := tl.ListenAndServe(*shAddr); err != nil {
			fmt.Fprintf(os.Stderr, "esthera-serve shard control: %v\n", err)
			os.Exit(1)
		}
		defer tl.Close()
		fmt.Fprintf(os.Stderr, "esthera-serve shard control %q listening on %s\n", name, tl.Addr())
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           esthera.NewServerHandler(s),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "%s listening on %s\n", telemetry.BuildString(), *addr)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful drain: stop admitting steps first (readiness flips to 503,
	// new steps fail fast with ErrDraining), let in-flight batches finish
	// and deliver, then close the listener and stop the device.
	fmt.Fprintf(os.Stderr, "esthera-serve draining (timeout %v)\n", *drain)
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drain)
	if err := s.Drain(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "esthera-serve drain incomplete: %v\n", err)
	}
	cancelDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = srv.Shutdown(shutdownCtx)
}
