// Command esthera-router fronts N esthera-serve replicas as one
// serving surface: sessions are consistent-hashed onto shards, step
// and estimate requests forward with the retrying client, and the
// router live-migrates sessions between replicas — for failover when
// a shard dies (detected by health probes) and for load rebalancing
// when one shard runs hot.
//
// Each shard is named by three fields joined with "|":
//
//	name|http-base-url|transport-addr
//
// and shards are separated by commas:
//
//	esthera-router -addr :8080 \
//	  -shards 'a|http://127.0.0.1:8081|127.0.0.1:9081,b|http://127.0.0.1:8082|127.0.0.1:9082'
//
// transport-addr is the host:port of the replica's shard control
// endpoints (esthera-serve -shard-addr): plain HTTP, like the session
// API at http-base-url. Every router→replica request, session or
// control, goes through one HTTP client.
//
// The HTTP surface is a superset of esthera-serve's (a serve client
// works unchanged), plus:
//
//	POST /v1/sessions/{id}/migrate  {"target": "b"}   live migration ("" = least loaded)
//	POST /v1/rebalance                                level load across live shards
//	GET  /v1/shards                                   per-shard liveness and placement
//	GET  /metrics                                     router counters and per-shard gauges (Prometheus text;
//	                                                  replicas serve their own /metrics)
//
// -snapshot periodically refreshes every session's failover-insurance
// checkpoint through the replicas' session API, bounding how far a
// crash-failover can roll a session back. On SIGINT/SIGTERM the router
// stops probing and exits; replicas and their sessions are left running.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"esthera/internal/shard"
	"esthera/internal/telemetry"
	tlog "esthera/internal/telemetry/log"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		shards    = flag.String("shards", "", "comma-separated shard specs: name|http-base-url|transport-addr")
		vnodes    = flag.Int("vnodes", 0, "consistent-hash virtual nodes per shard (0 = 64)")
		probe     = flag.Duration("probe", 0, "health probe interval: a transport-addr's ping, else the shard's /healthz (0 = 500ms, negative disables)")
		failAfter = flag.Int("fail-after", 0, "consecutive failures before a shard is marked down (0 = 3)")
		rebalance = flag.Int("rebalance-threshold", 0, "migrate load when the busiest shard exceeds the idlest by more than this many sessions (0 = off)")
		retryHint = flag.Duration("retry-hint", 0, "Retry-After hint on migration/failover 503s (0 = 15ms)")
		snapshot  = flag.Duration("snapshot", 0, "failover-insurance checkpoint refresh interval (0 = off)")
		trace     = flag.Bool("trace", false, "start with span recording enabled (toggle at runtime via POST /trace)")
		logLevel  = flag.String("log-level", "info", "structured log level: debug, info, warn, error, off (runtime via POST /logz)")
		version   = flag.Bool("version", false, "print the build string and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(telemetry.BuildString())
		return
	}
	lv, err := tlog.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "esthera-router:", err)
		os.Exit(2)
	}
	specs, err := parseShards(*shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, "esthera-router:", err)
		os.Exit(2)
	}
	r, err := shard.NewRouter(shard.RouterConfig{
		Shards:             specs,
		Vnodes:             *vnodes,
		ProbeInterval:      *probe,
		FailAfter:          *failAfter,
		RebalanceThreshold: *rebalance,
		RetryAfter:         *retryHint,
		Trace:              *trace,
		LogLevel:           lv,
		LogSink:            os.Stderr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "esthera-router:", err)
		os.Exit(2)
	}
	defer r.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *snapshot > 0 {
		go func() {
			tick := time.NewTicker(*snapshot)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					r.Snapshot(ctx)
				}
			}
		}()
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           shard.NewRouterHandler(r),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "%s router listening on %s, %d shards\n", telemetry.BuildString(), *addr, len(specs))

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = srv.Shutdown(shutdownCtx)
}

// parseShards splits "name|url|transport,name|url|transport" into
// shard specs. The transport field may be empty: the shard is then
// probed through its session API's /healthz (liveness only, no clock
// sample), takes no part in migrations, and failover recreates its
// sessions from spec instead of restoring checkpoints. Checkpoint reads
// and -snapshot work either way.
func parseShards(s string) ([]shard.ShardSpec, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("-shards is required (name|http-base-url|transport-addr, comma-separated)")
	}
	var specs []shard.ShardSpec
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, "|")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("bad shard spec %q: want name|http-base-url|transport-addr", entry)
		}
		sp := shard.ShardSpec{Name: strings.TrimSpace(parts[0]), BaseURL: strings.TrimSpace(parts[1])}
		if len(parts) == 3 {
			sp.TransportAddr = strings.TrimSpace(parts[2])
		}
		specs = append(specs, sp)
	}
	return specs, nil
}
