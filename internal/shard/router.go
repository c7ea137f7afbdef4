// Package shard turns the single-process serving stack into the
// building block of a sharded, multi-process deployment — the
// process-boundary scaling PPF (arXiv:1310.5045) demonstrates for the
// paper's sub-filter design:
//
//   - A Router (ring.go, router.go, http.go) fronts N replicas:
//     session ids consistent-hash onto shards, step/estimate requests
//     forward through the retrying serve.Client, /metrics exposes the
//     router's own counters and per-shard gauges (each replica serves
//     its own), and live sessions migrate between replicas — drain
//     at the source, checkpoint, restore at the target, repoint
//     atomically — driven by health probes (failover) and per-shard
//     load (rebalance).
//   - An Agent (agent.go) gives every esthera-serve replica its control
//     endpoints, plain HTTP on their own address: health pings, session
//     export (checkpoint + close at a round boundary) and restore, with
//     at-most-once migration semantics — a replayed transfer returns the
//     original result instead of creating a second session.
//
// Router and replicas speak one protocol, JSON over HTTP, through one
// http.Client (RouterConfig.HTTPClient). Checkpoints ride the exact
// serve.Checkpoint wire format (base64 little-endian float64 bit
// patterns), so a transfer is bit-exact by construction: a migrated
// session's estimate stream is bit-identical to an unmigrated run,
// because the checkpoint captures every particle, weight and
// random-stream position, and export waits for the in-flight step, so
// the cut always lands on a round boundary (TestMigrationDeterminism).
package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"esthera/internal/serve"
	"esthera/internal/telemetry"
	tlog "esthera/internal/telemetry/log"
)

// ShardSpec names one replica: its HTTP base URL (the session API:
// create, step, read, checkpoint, delete) and the host:port its Agent
// serves the control endpoints on (health pings, export and restore;
// esthera-serve's -shard-addr). Without a TransportAddr the shard is
// probed through its session API's /healthz, takes part in no
// migration, and failover recreates its sessions from spec.
type ShardSpec struct {
	Name          string `json:"name"`
	BaseURL       string `json:"base_url"`
	TransportAddr string `json:"transport_addr"`
}

// RouterConfig shapes a Router.
type RouterConfig struct {
	// Shards is the replica set. Membership is fixed for the router's
	// lifetime; liveness is tracked per shard.
	Shards []ShardSpec
	// Vnodes is the consistent-hash ring's virtual node count per shard
	// (0 = DefaultVnodes).
	Vnodes int
	// ProbeInterval paces the health loop probing every shard — its
	// agent's ping, or its session API's /healthz without one (0 =
	// 500ms; negative disables the loop — liveness then moves only on
	// step-path strikes).
	ProbeInterval time.Duration
	// FailAfter is how many consecutive failures (probe or step
	// transport errors) mark a shard down and trigger failover (0 = 3).
	FailAfter int
	// RebalanceThreshold enables load-based rebalancing: when the
	// busiest live shard holds more than threshold sessions above the
	// idlest, sessions migrate until the spread closes. 0 disables
	// automatic rebalancing (Rebalance can still be called).
	RebalanceThreshold int
	// RetryAfter is the back-off hint attached to retryable router
	// errors — a migrating session, a shard mid-failover (0 = 15ms).
	RetryAfter time.Duration
	// HTTPClient carries every router→replica request, session forwards
	// and control calls alike (nil = a client the router owns, keeping
	// idleConnsPerShard idle connections to each shard).
	HTTPClient *http.Client
	// Name identifies the router's process in its traces and logs
	// ("" = "router").
	Name string
	// Trace enables span recording at router start (toggleable over
	// POST /trace). Each forwarded step, migration and failover carries
	// its trace downstream in a traceparent header.
	Trace bool
	// LogLevel / LogSink shape the router's structured log (drained
	// over /logz; Sink mirrors warnings+ to a writer, typically stderr).
	LogLevel slog.Level
	LogSink  io.Writer
}

// idleConnsPerShard is how many idle connections the router's own
// client keeps to each shard. Every forward in flight holds one
// connection, so a pool smaller than the concurrent forwards to a shard
// closes the surplus as replies come back and redials it for the next
// forwards (http.DefaultClient keeps 2 per host).
const idleConnsPerShard = 64

// clientMaxAttempts bounds the serve.Client's per-call retries against
// one replica. The router keeps this short: a saturated replica's hint
// is worth honoring a few times, but a dead one should fail over, not
// stall the caller.
const clientMaxAttempts = 4

func (c RouterConfig) withDefaults() RouterConfig {
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 3
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 15 * time.Millisecond
	}
	if c.Name == "" {
		c.Name = "router"
	}
	return c
}

// Router errors. ErrMigrating and ErrShardDown are retryable — the
// HTTP front-end maps them to 503 with the Retry-After hint, and the
// serve.Client's retry loop rides them out while a migration or
// failover completes.
var (
	ErrMigrating         = errors.New("shard: session is migrating, retry")
	ErrShardDown         = errors.New("shard: shard unavailable, retry")
	ErrMigrationInFlight = errors.New("shard: migration already in flight for session")
	ErrNoLiveShards      = errors.New("shard: no live shards")
	ErrUnknownShard      = errors.New("shard: unknown shard")
)

// controlTimeout bounds one export or restore whose context carries no
// earlier deadline, so a replica that accepts the request and then
// hangs cannot hold a migration open forever.
const controlTimeout = 30 * time.Second

// shardState is one replica's runtime state.
type shardState struct {
	spec ShardSpec
	// client reaches the session API at spec.BaseURL, control the
	// agent at spec.TransportAddr (nil without one).
	client  *serve.Client
	control *serve.Client
	// down flips after FailAfter consecutive strikes and back on a
	// successful probe.
	down    atomic.Bool
	strikes atomic.Int32
	// failingOver collapses concurrent failover triggers to one run.
	failingOver atomic.Bool
	lastPong    atomic.Pointer[PongMsg]
	// clockOffsetNS/rttNS are EWMAs of the NTP-style estimates the
	// probe loop derives from ping/pong timestamps: offset is the
	// replica clock minus the router clock (what `esthera-trace merge`
	// subtracts to align timelines), rtt the probe round trip.
	// clockSeen guards the EWMA seed (an offset of exactly 0 is legal).
	clockSeen     atomic.Bool
	clockOffsetNS atomic.Int64
	rttNS         atomic.Int64
}

// observeClock folds one probe's offset/rtt sample into the EWMAs.
func (sh *shardState) observeClock(offset, rtt int64) {
	if !sh.clockSeen.Swap(true) {
		sh.clockOffsetNS.Store(offset)
		sh.rttNS.Store(rtt)
		return
	}
	old := sh.clockOffsetNS.Load()
	sh.clockOffsetNS.Store(old + (offset-old)/4)
	old = sh.rttNS.Load()
	sh.rttNS.Store(old + (rtt-old)/4)
}

// route is one public session's placement. Guarded by Router.mu.
type route struct {
	spec serve.FilterSpec
	// shard names the owning replica; "" parks the session (its state
	// lives only in lastCP, or in spec, until a live shard takes it).
	shard    string
	remoteID string
	// epoch counts placements; it salts the migration id so a retried
	// old transfer can never collide with a newer one.
	epoch int
	// migrating holds new steps (retryable) while a transfer is in
	// flight; it is the at-most-once gate for Migrate.
	migrating bool
	// lastCP is failover insurance: the freshest checkpoint the router
	// holds (from the last migration, Checkpoint or Snapshot). Failover
	// of a dead shard restores from it — rolling back to the checkpoint —
	// or, while nil (never checkpointed), recreates from spec: step 0.
	lastCP *serve.Checkpoint
	steps  int64
}

// Router fronts N esthera-serve replicas as one serving surface:
// consistent-hash initial placement, forwarded steps with retryable
// backpressure, live migration, health-driven failover and load-driven
// rebalance. See the package documentation for the protocol.
type Router struct {
	cfg    RouterConfig
	shards map[string]*shardState
	names  []string // sorted shard names
	ring   *Ring

	tracer *telemetry.Tracer
	log    *slog.Logger
	logz   *tlog.Handler
	// sloStep tracks forwarded steps against the telemetry defaults:
	// 50ms at 99%.
	sloStep *telemetry.SLOTracker

	mu     sync.Mutex
	routes map[string]*route
	nextID uint64

	quit chan struct{}
	wg   sync.WaitGroup
	// ownClient marks cfg.HTTPClient as built by NewRouter, whose idle
	// connections Close drops.
	ownClient bool

	// Counters (atomics: Stats reads them live).
	stepsForwarded  atomic.Int64
	stepsHeld       atomic.Int64
	stepsRerouted   atomic.Int64
	migrations      atomic.Int64
	migrationErrors atomic.Int64
	failovers       atomic.Int64
	restored        atomic.Int64
	recreated       atomic.Int64
	parked          atomic.Int64
	probes          atomic.Int64
	probeFailures   atomic.Int64
	rebalanced      atomic.Int64
}

// NewRouter builds a router over the given shard set and starts its
// health loop (unless ProbeInterval < 0). Callers own Close.
func NewRouter(cfg RouterConfig) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Shards) == 0 {
		return nil, errors.New("shard: router needs at least one shard")
	}
	ownClient := cfg.HTTPClient == nil
	if ownClient {
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.MaxIdleConnsPerHost = idleConnsPerShard
		t.MaxIdleConns = idleConnsPerShard * len(cfg.Shards)
		cfg.HTTPClient = &http.Client{Transport: t}
	}
	r := &Router{
		cfg:     cfg,
		shards:  make(map[string]*shardState, len(cfg.Shards)),
		ring:    NewRing(cfg.Vnodes),
		routes:  make(map[string]*route),
		quit:    make(chan struct{}),
		tracer:  telemetry.New(),
		logz:    tlog.New(cfg.Name, cfg.LogLevel, cfg.LogSink),
		sloStep: telemetry.NewSLOTracker(telemetry.SLO{}),

		ownClient: ownClient,
	}
	r.log = slog.New(r.logz)
	r.tracer.SetEnabled(cfg.Trace)
	r.tracer.SetProcess(cfg.Name)
	newClient := func(base string) *serve.Client {
		return serve.NewClient(serve.ClientConfig{BaseURL: base, HTTPClient: cfg.HTTPClient, MaxAttempts: clientMaxAttempts})
	}
	for _, sp := range cfg.Shards {
		if sp.Name == "" || sp.BaseURL == "" {
			return nil, fmt.Errorf("shard: shard spec needs name and base_url (got %+v)", sp)
		}
		if _, dup := r.shards[sp.Name]; dup {
			return nil, fmt.Errorf("shard: duplicate shard name %q", sp.Name)
		}
		sh := &shardState{spec: sp, client: newClient(sp.BaseURL)}
		if sp.TransportAddr != "" {
			sh.control = newClient("http://" + sp.TransportAddr)
		}
		r.shards[sp.Name] = sh
		r.names = append(r.names, sp.Name)
		r.ring.Add(sp.Name)
	}
	sort.Strings(r.names)
	if cfg.ProbeInterval > 0 {
		r.wg.Add(1)
		go r.probeLoop()
	}
	return r, nil
}

// Close stops the health loop and, when the router built its own
// client, drops its idle connections. It does not touch the replicas or
// their sessions.
func (r *Router) Close() {
	select {
	case <-r.quit:
	default:
		close(r.quit)
	}
	r.wg.Wait()
	if r.ownClient {
		r.cfg.HTTPClient.CloseIdleConnections()
	}
}

// isLive reports whether a shard is accepting placements.
func (r *Router) isLive(name string) bool {
	sh, ok := r.shards[name]
	return ok && !sh.down.Load()
}

// Create builds a session on the shard its id hashes to and returns
// the router-scoped session id. It takes no checkpoint: until its first
// step a session is a pure function of its spec, so failover before any
// checkpoint recreates it from spec. A failure is classified like a
// step's (forwardError): a replica that cannot be reached takes a
// strike and the caller gets the retryable ErrShardDown.
func (r *Router) Create(ctx context.Context, spec serve.FilterSpec) (string, error) {
	r.mu.Lock()
	r.nextID++
	id := "t-" + strconv.FormatUint(r.nextID, 10)
	r.mu.Unlock()
	target := r.ring.LookupFunc(id, r.isLive)
	if target == "" {
		return "", ErrNoLiveShards
	}
	sh := r.shards[target]
	remoteID, err := sh.client.Create(ctx, spec)
	if err != nil {
		return "", r.forwardError(ctx, sh, err)
	}
	rt := &route{spec: spec, shard: target, remoteID: remoteID, epoch: 1}
	r.mu.Lock()
	r.routes[id] = rt
	r.mu.Unlock()
	return id, nil
}

// lookupRoute snapshots a route's placement for a forwarded call.
func (r *Router) lookupRoute(id string) (shardName, remoteID string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rt, ok := r.routes[id]
	if !ok {
		return "", "", serve.ErrNotFound
	}
	if rt.migrating {
		r.stepsHeld.Add(1)
		return "", "", ErrMigrating
	}
	if rt.shard == "" {
		return "", "", ErrShardDown
	}
	return rt.shard, rt.remoteID, nil
}

// traceStep derives the router-side trace identity of one forwarded
// call: the propagated trace context (or a fresh trace when the tracer
// is on and none arrived), a new ingress span, and a child ctx whose
// traceparent header parents the replica's request span to the
// router's. span == 0 means the call is untraced.
func (r *Router) traceStep(ctx context.Context) (context.Context, telemetry.TraceContext, uint64) {
	tc, ok := telemetry.TraceFromContext(ctx)
	if !ok {
		if !r.tracer.Enabled() {
			return ctx, telemetry.TraceContext{}, 0
		}
		tc = telemetry.TraceContext{Trace: telemetry.NewTraceID()}
	}
	span := telemetry.NewSpanID()
	ctx = telemetry.ContextWithTrace(ctx, telemetry.TraceContext{Trace: tc.Trace, Span: span})
	return ctx, tc, span
}

// Step forwards one observation step to the session's shard. Failures
// of the shard surface as the retryable ErrShardDown while failover
// rehomes the session; the caller's retry loop (serve.Client honors
// the 503 + Retry-After the HTTP layer emits) rides out the move.
func (r *Router) Step(ctx context.Context, id string, u, z []float64) (serve.StepResult, error) {
	shardName, remoteID, err := r.lookupRoute(id)
	if err != nil {
		return serve.StepResult{}, err
	}
	sh := r.shards[shardName]
	if sh.down.Load() {
		r.kickFailover(sh)
		return serve.StepResult{}, ErrShardDown
	}
	ctx, tc, span := r.traceStep(ctx)
	start := time.Now()
	res, err := sh.client.Step(ctx, remoteID, u, z)
	elapsed := time.Since(start)
	r.sloStep.Observe(elapsed)
	if span != 0 && r.tracer.Enabled() {
		ev := telemetry.Event{Name: "route.step", Cat: "router", TS: r.tracer.Stamp(start), Dur: elapsed,
			Trace: tc.Trace, Span: span, Parent: tc.Span}
		if err != nil {
			ev.SetArg("failed", 1)
		}
		r.tracer.Record(ev)
	}
	if err == nil {
		r.stepsForwarded.Add(1)
		r.mu.Lock()
		if rt, ok := r.routes[id]; ok {
			rt.steps++
		}
		r.mu.Unlock()
		return res, nil
	}
	r.log.LogAttrs(ctx, slog.LevelWarn, "step forward failed", tlog.Trace(telemetry.TraceContext{Trace: tc.Trace, Span: span}),
		slog.String("session", id), slog.String("shard", shardName), slog.String("error", err.Error()))
	return serve.StepResult{}, r.stepError(ctx, id, sh, remoteID, err)
}

// stepError classifies a forwarded session call's failure as
// forwardError does, except that a 404 means the replica lost the
// session — a restart — and is handled like a dead shard for that
// session alone: the route parks and is re-placed.
func (r *Router) stepError(ctx context.Context, id string, sh *shardState, remoteID string, err error) error {
	var api *serve.APIError
	if ctx.Err() == nil && errors.As(err, &api) && api.Status == http.StatusNotFound {
		r.parkRoute(id, sh.spec.Name, remoteID)
		r.stepsRerouted.Add(1)
		return ErrShardDown
	}
	err = r.forwardError(ctx, sh, err)
	if errors.Is(err, ErrShardDown) {
		r.stepsRerouted.Add(1)
	}
	return err
}

// forwardError classifies a forwarded call's failure: a context error
// passes through, a replica's reply is relayed as is, and a transport
// error strikes the shard toward failover and becomes the retryable
// ErrShardDown.
func (r *Router) forwardError(ctx context.Context, sh *shardState, err error) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if errors.As(err, new(*serve.APIError)) {
		return err
	}
	r.strike(sh)
	return ErrShardDown
}

// Estimate forwards a read of the session's latest estimate.
func (r *Router) Estimate(ctx context.Context, id string) (serve.StepResult, error) {
	shardName, remoteID, err := r.lookupRoute(id)
	if err != nil {
		return serve.StepResult{}, err
	}
	sh := r.shards[shardName]
	res, err := sh.client.Estimate(ctx, remoteID)
	if err != nil {
		return serve.StepResult{}, r.stepError(ctx, id, sh, remoteID, err)
	}
	return res, nil
}

// CloseSession tears the session down on its shard and forgets the
// route.
func (r *Router) CloseSession(ctx context.Context, id string) error {
	shardName, remoteID, err := r.lookupRoute(id)
	if errors.Is(err, ErrShardDown) {
		// Parked: the remote copy is already gone; dropping the route
		// is the whole close.
		r.mu.Lock()
		delete(r.routes, id)
		r.mu.Unlock()
		return nil
	}
	if err != nil {
		return err
	}
	r.mu.Lock()
	delete(r.routes, id)
	r.mu.Unlock()
	sh := r.shards[shardName]
	if cerr := sh.client.Close(ctx, remoteID); cerr != nil && !errors.Is(cerr, serve.ErrNotFound) {
		return cerr
	}
	return nil
}

// Checkpoint reads the session's current checkpoint through its
// replica's session API (GET /v1/sessions/{id}/checkpoint) without
// closing it, and refreshes the router's failover insurance with it.
// Failures are classified like a step's: a replica that lost the
// session parks and re-places the route, a transport error strikes the
// shard.
func (r *Router) Checkpoint(ctx context.Context, id string) (*serve.Checkpoint, error) {
	shardName, remoteID, err := r.lookupRoute(id)
	if err != nil {
		return nil, err
	}
	sh := r.shards[shardName]
	cp, err := sh.client.Checkpoint(ctx, remoteID)
	if err != nil {
		return nil, r.stepError(ctx, id, sh, remoteID, err)
	}
	r.mu.Lock()
	if rt, ok := r.routes[id]; ok && rt.shard == shardName && !rt.migrating {
		rt.lastCP = cp
	}
	r.mu.Unlock()
	return cp, nil
}

// Snapshot refreshes every routable session's failover-insurance
// checkpoint. It bounds how much history a crash-failover can roll
// back; the chaos harness runs it on a short period.
func (r *Router) Snapshot(ctx context.Context) (ok, failed int) {
	for _, id := range r.Sessions() {
		if ctx.Err() != nil {
			return ok, failed
		}
		if _, err := r.Checkpoint(ctx, id); err != nil {
			failed++
			continue
		}
		ok++
	}
	return ok, failed
}

// Sessions lists the router-scoped session ids, sorted.
func (r *Router) Sessions() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.routes))
	for id := range r.routes {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// ShardOf reports the shard currently owning the session ("" while
// parked).
func (r *Router) ShardOf(id string) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rt, ok := r.routes[id]
	if !ok {
		return "", serve.ErrNotFound
	}
	return rt.shard, nil
}

// exportFrom drains the session off sh's replica: the agent
// checkpoints and closes it in one atomic section, at-most-once per
// migration id. The trace context in ctx rides the traceparent header,
// so the replica's export span joins the caller's trace.
func (r *Router) exportFrom(ctx context.Context, sh *shardState, mid, remoteID string) (*serve.Checkpoint, error) {
	ctx, cancel := context.WithTimeout(ctx, controlTimeout)
	defer cancel()
	var msg CheckpointMsg
	if err := sh.control.Post(ctx, exportPath, ExportMsg{MigrationID: mid, SessionID: remoteID}, &msg); err != nil {
		return nil, err
	}
	if msg.Checkpoint == nil {
		return nil, errors.New("shard: export reply carried no checkpoint")
	}
	return msg.Checkpoint, nil
}

// restoreOn pushes a checkpoint to sh's agent and returns the restored
// session's replica-local id. At-most-once per migration id: a retry of
// a transfer the target already applied returns the original id.
func (r *Router) restoreOn(ctx context.Context, sh *shardState, mid string, cp *serve.Checkpoint) (string, error) {
	ctx, cancel := context.WithTimeout(ctx, controlTimeout)
	defer cancel()
	var msg RestoredMsg
	if err := sh.control.Post(ctx, restorePath, RestoreMsg{MigrationID: mid, Checkpoint: cp}, &msg); err != nil {
		return "", err
	}
	return msg.SessionID, nil
}

// Migrate moves a live session from its current shard to target
// ("" picks the least-loaded live shard). The protocol:
//
//  1. Hold: the route flips to migrating — new steps get the retryable
//     ErrMigrating; a second Migrate gets ErrMigrationInFlight
//     (at-most-once).
//  2. Drain + export: the source replica checkpoints and closes the
//     session atomically (serve.Export); the in-flight step finishes
//     first, so the cut is a round boundary.
//  3. Transfer + restore: the checkpoint is posted to the target's
//     agent and restores there, deduplicated by migration id.
//  4. Repoint: the route atomically points at the target and steps
//     resume. The estimate stream is bit-identical to an unmigrated
//     run.
//
// If the restore cannot reach the target the session parks (its state
// is the exported checkpoint) and placement retries on the failover
// path; the session is never left half-moved with two live copies.
//
// The whole protocol runs under one trace: the caller's propagated
// context or a freshly minted trace ID. The hold window (step 1 until
// repoint) is the "migrate.hold" span; export and restore are child
// spans, and the trace rides the control requests' traceparent header
// so both replicas' agent spans land in the same trace.
func (r *Router) Migrate(ctx context.Context, id, target string) error {
	tc, traced := telemetry.TraceFromContext(ctx)
	if !traced && r.tracer.Enabled() {
		tc = telemetry.TraceContext{Trace: telemetry.NewTraceID()}
		traced = true
	}
	var migSpan uint64
	if traced {
		migSpan = telemetry.NewSpanID()
	}
	r.mu.Lock()
	rt, ok := r.routes[id]
	if !ok {
		r.mu.Unlock()
		return serve.ErrNotFound
	}
	if rt.migrating {
		r.mu.Unlock()
		return ErrMigrationInFlight
	}
	if rt.shard == "" {
		r.mu.Unlock()
		return ErrShardDown
	}
	source := rt.shard
	if target == "" {
		target = r.leastLoadedLocked(source)
	}
	if target == source {
		r.mu.Unlock()
		return nil
	}
	tsh, ok := r.shards[target]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownShard, target)
	}
	if tsh.down.Load() {
		r.mu.Unlock()
		return ErrShardDown
	}
	if r.shards[source].control == nil || tsh.control == nil {
		r.mu.Unlock()
		return fmt.Errorf("shard: migration needs control endpoints (transport_addr) on both %q and %q", source, target)
	}
	rt.migrating = true
	rt.epoch++
	mid := id + "#" + strconv.Itoa(rt.epoch)
	remoteID := rt.remoteID
	holdStart := time.Now()
	r.mu.Unlock()

	if traced {
		ctx = telemetry.ContextWithTrace(ctx, telemetry.TraceContext{Trace: tc.Trace, Span: migSpan})
	}
	holdSpan := func(failed bool) {
		r.recordSpan("migrate.hold", tc, migSpan, tc.Span, holdStart, failed)
	}

	ssh := r.shards[source]
	expStart := time.Now()
	cp, err := r.exportFrom(ctx, ssh, mid, remoteID)
	r.recordSpan("migrate.export", tc, spanIf(traced), migSpan, expStart, err != nil)
	if err != nil {
		// Nothing moved: the source still owns the session (or lost it
		// to a crash, which the failover path will notice). Unwind.
		r.mu.Lock()
		rt.migrating = false
		r.mu.Unlock()
		holdSpan(true)
		r.migrationErrors.Add(1)
		r.log.LogAttrs(ctx, slog.LevelWarn, "migrate export failed", tlog.Trace(telemetry.TraceContext{Trace: tc.Trace, Span: migSpan}),
			slog.String("session", id), slog.String("source", source), slog.String("error", err.Error()))
		var api *serve.APIError
		if !errors.As(err, &api) {
			r.strike(ssh)
		}
		return fmt.Errorf("shard: migrate %s: export from %s: %w", id, source, err)
	}

	resStart := time.Now()
	newID, err := r.restoreOn(ctx, tsh, mid, cp)
	r.recordSpan("migrate.restore", tc, spanIf(traced), migSpan, resStart, err != nil)
	if err != nil {
		// The source copy is closed and the target unreachable: park
		// with the checkpoint and let placement retry elsewhere.
		r.mu.Lock()
		rt.shard = ""
		rt.remoteID = ""
		rt.lastCP = cp
		rt.migrating = false
		r.mu.Unlock()
		holdSpan(true)
		r.migrationErrors.Add(1)
		r.parked.Add(1)
		r.log.LogAttrs(ctx, slog.LevelWarn, "migrate restore failed, session parked", tlog.Trace(telemetry.TraceContext{Trace: tc.Trace, Span: migSpan}),
			slog.String("session", id), slog.String("target", target), slog.String("error", err.Error()))
		r.strike(tsh)
		go r.placeParked()
		return fmt.Errorf("shard: migrate %s: restore on %s: %w", id, target, err)
	}

	r.mu.Lock()
	rt.shard = target
	rt.remoteID = newID
	rt.lastCP = cp
	rt.migrating = false
	r.mu.Unlock()
	holdSpan(false)
	r.migrations.Add(1)
	r.log.LogAttrs(ctx, slog.LevelInfo, "migrated", tlog.Trace(telemetry.TraceContext{Trace: tc.Trace, Span: migSpan}),
		slog.String("session", id), slog.String("source", source), slog.String("target", target),
		slog.Duration("hold", time.Since(holdStart)))
	return nil
}

// recordSpan records one router span; a zero span ID (untraced call)
// or a disabled tracer makes it a no-op.
func (r *Router) recordSpan(name string, tc telemetry.TraceContext, span, parent uint64, start time.Time, failed bool) {
	if span == 0 || !r.tracer.Enabled() {
		return
	}
	ev := telemetry.Event{Name: name, Cat: "router", TS: r.tracer.Stamp(start), Dur: time.Since(start),
		Trace: tc.Trace, Span: span, Parent: parent}
	if failed {
		ev.SetArg("failed", 1)
	}
	r.tracer.Record(ev)
}

// spanIf mints a span ID for a traced operation (0 when untraced).
func spanIf(traced bool) uint64 {
	if !traced {
		return 0
	}
	return telemetry.NewSpanID()
}

// leastLoadedLocked picks the live shard owning the fewest routes,
// excluding exclude; caller holds r.mu. Ties break by name so the
// choice is deterministic.
func (r *Router) leastLoadedLocked(exclude string) string {
	counts := make(map[string]int, len(r.shards))
	for _, rt := range r.routes {
		if rt.shard != "" {
			counts[rt.shard]++
		}
	}
	best, bestN := "", -1
	for _, name := range r.names {
		if name == exclude || !r.isLive(name) {
			continue
		}
		if n := counts[name]; bestN < 0 || n < bestN {
			best, bestN = name, n
		}
	}
	return best
}

// parkRoute handles a replica that lost a session (a 404 from a shard
// the router still believes owns it — a replica restart): the route
// parks and placement retries from its insurance checkpoint or spec.
// The placement check inside guards against a racing migration having
// already repointed the route elsewhere.
func (r *Router) parkRoute(id, shardName, remoteID string) {
	r.mu.Lock()
	rt, ok := r.routes[id]
	if !ok || rt.migrating || rt.shard != shardName || rt.remoteID != remoteID {
		r.mu.Unlock()
		return
	}
	rt.migrating = true
	rt.shard = ""
	rt.remoteID = ""
	r.mu.Unlock()
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.placeRoute(id)
	}()
}

// strike records one failure against a shard; FailAfter consecutive
// strikes mark it down and trigger failover.
func (r *Router) strike(sh *shardState) {
	if n := sh.strikes.Add(1); int(n) >= r.cfg.FailAfter {
		if !sh.down.Swap(true) {
			r.log.LogAttrs(context.TODO(), slog.LevelWarn, "shard marked down",
				slog.String("shard", sh.spec.Name), slog.Int("strikes", int(n)))
			r.kickFailover(sh)
		}
	}
}

// kickFailover starts (at most one concurrent) failover run for a down
// shard.
func (r *Router) kickFailover(sh *shardState) {
	if !sh.failingOver.CompareAndSwap(false, true) {
		return
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer sh.failingOver.Store(false)
		r.failoverShard(sh)
	}()
}

// failoverShard rehomes every session of a down shard: restore from
// the failover-insurance checkpoint where one exists (rolling back to
// it), recreate from spec where none does. Sessions that cannot be
// placed park until a shard comes back.
func (r *Router) failoverShard(sh *shardState) {
	name := sh.spec.Name
	r.mu.Lock()
	var victims []string
	for id, rt := range r.routes {
		if rt.shard == name && !rt.migrating {
			rt.migrating = true
			rt.epoch++
			rt.shard = ""
			rt.remoteID = ""
			victims = append(victims, id)
		}
	}
	r.mu.Unlock()
	if len(victims) == 0 {
		return
	}
	r.failovers.Add(1)
	r.log.LogAttrs(context.TODO(), slog.LevelWarn, "shard failover",
		slog.String("shard", name), slog.Int("sessions", len(victims)))
	sort.Strings(victims)
	for _, id := range victims {
		r.placeRoute(id)
	}
}

// placeRoute homes one held route (migrating=true, shard="") on a live
// shard, or parks it when none can take it. It owns clearing the
// migrating flag.
//
// Placement runs under its own freshly minted trace (there is no
// request to inherit one from — failover is the router's initiative),
// carried in the restore request's traceparent header so the surviving
// replica's agent.restore span shares it: the cross-process failover
// trace.
func (r *Router) placeRoute(id string) {
	r.mu.Lock()
	rt, ok := r.routes[id]
	if !ok {
		r.mu.Unlock()
		return
	}
	cp := rt.lastCP
	spec := rt.spec
	rt.epoch++
	mid := id + "#" + strconv.Itoa(rt.epoch)
	r.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var tc telemetry.TraceContext
	var span uint64
	if r.tracer.Enabled() {
		tc = telemetry.TraceContext{Trace: telemetry.NewTraceID()}
		span = telemetry.NewSpanID()
		ctx = telemetry.ContextWithTrace(ctx, telemetry.TraceContext{Trace: tc.Trace, Span: span})
	}
	start := time.Now()

	target := r.ring.LookupFunc(id, r.isLive)
	finish := func(shard, remoteID, outcome string) {
		r.mu.Lock()
		rt.shard = shard
		rt.remoteID = remoteID
		rt.migrating = false
		r.mu.Unlock()
		r.recordSpan("failover.place", tc, span, 0, start, shard == "")
		r.log.LogAttrs(context.TODO(), slog.LevelInfo, "failover placement", tlog.Trace(telemetry.TraceContext{Trace: tc.Trace, Span: span}),
			slog.String("session", id), slog.String("shard", shard), slog.String("outcome", outcome))
	}
	if target == "" {
		finish("", "", "parked")
		r.parked.Add(1)
		return
	}
	sh := r.shards[target]
	if cp != nil && sh.control != nil {
		if remoteID, err := r.restoreOn(ctx, sh, mid, cp); err == nil {
			finish(target, remoteID, "restored")
			r.restored.Add(1)
			return
		}
		r.strike(sh)
	} else if remoteID, err := sh.client.Create(ctx, spec); err == nil {
		finish(target, remoteID, "recreated")
		r.recreated.Add(1)
		return
	} else {
		r.strike(sh)
	}
	finish("", "", "parked")
	r.parked.Add(1)
}

// placeParked retries placement of every parked session.
func (r *Router) placeParked() {
	r.mu.Lock()
	var parked []string
	for id, rt := range r.routes {
		if rt.shard == "" && !rt.migrating {
			rt.migrating = true
			parked = append(parked, id)
		}
	}
	r.mu.Unlock()
	sort.Strings(parked)
	for _, id := range parked {
		r.placeRoute(id)
	}
}

// Rebalance migrates sessions from the busiest live shard to the
// idlest until the spread is within threshold (cfg.RebalanceThreshold,
// or 1 when unset). Returns how many sessions moved.
func (r *Router) Rebalance(ctx context.Context) int {
	threshold := r.cfg.RebalanceThreshold
	if threshold <= 0 {
		threshold = 1
	}
	moved := 0
	for i := 0; i < 1024; i++ { // hard bound: each pass moves one session
		maxShard, minShard, spread := r.loadSpread()
		if maxShard == "" || spread <= threshold {
			break
		}
		id := r.pickMovable(maxShard)
		if id == "" {
			break
		}
		if err := r.Migrate(ctx, id, minShard); err != nil {
			break
		}
		moved++
		r.rebalanced.Add(1)
	}
	return moved
}

// loadSpread returns the busiest and idlest live shards by route count
// and the count difference.
func (r *Router) loadSpread() (maxShard, minShard string, spread int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	counts := make(map[string]int, len(r.shards))
	for _, rt := range r.routes {
		if rt.shard != "" && !rt.migrating {
			counts[rt.shard]++
		}
	}
	maxN, minN := -1, -1
	for _, name := range r.names {
		if !r.isLive(name) {
			continue
		}
		n := counts[name]
		if maxN < 0 || n > maxN {
			maxShard, maxN = name, n
		}
		if minN < 0 || n < minN {
			minShard, minN = name, n
		}
	}
	if maxN < 0 {
		return "", "", 0
	}
	return maxShard, minShard, maxN - minN
}

// pickMovable returns the lexically first non-migrating session homed
// on the shard ("" if none).
func (r *Router) pickMovable(shard string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	best := ""
	for id, rt := range r.routes {
		if rt.shard == shard && !rt.migrating && (best == "" || id < best) {
			best = id
		}
	}
	return best
}

// probeLoop pings every shard each interval, driving the liveness
// flags: FailAfter consecutive probe failures mark a shard down (and
// fail its sessions over); one success marks it back up, re-places
// parked sessions, and — when automatic rebalancing is enabled —
// levels load back onto it.
func (r *Router) probeLoop() {
	defer r.wg.Done()
	tick := time.NewTicker(r.cfg.ProbeInterval)
	defer tick.Stop()
	seq := int64(0)
	for {
		select {
		case <-r.quit:
			return
		case <-tick.C:
		}
		seq++
		for _, name := range r.names {
			r.probe(r.shards[name], seq)
		}
	}
}

// probe checks one shard once and applies the outcome to its liveness.
// A shard with control endpoints is pinged, and each ping doubles as
// one NTP-style clock-offset exchange: t0/t3 are the router clock
// around the call, t1/t2 the replica clock inside it (PongMsg), and the
// derived offset/rtt feed the shard's EWMAs — the alignment data
// `esthera-trace merge` uses. A shard without them is probed through
// its session API's GET /healthz: liveness only, with no clock sample,
// so a draining replica stays up as it does under the ping.
func (r *Router) probe(sh *shardState, seq int64) {
	r.probes.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := r.ping(ctx, sh, seq); err != nil {
		r.probeFailures.Add(1)
		r.strike(sh)
		return
	}
	sh.strikes.Store(0)
	if sh.down.Swap(false) {
		r.log.LogAttrs(ctx, slog.LevelInfo, "shard recovered", slog.String("shard", sh.spec.Name))
		// The shard is back: give parked sessions a home and, if
		// enabled, level load onto it.
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.placeParked()
			if r.cfg.RebalanceThreshold > 0 {
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				defer cancel()
				r.Rebalance(ctx)
			}
		}()
	}
}

// ping runs one probe's request: a timestamped ping to the shard's
// agent, or the session API's liveness check when it has none.
func (r *Router) ping(ctx context.Context, sh *shardState, seq int64) error {
	if sh.control == nil {
		return sh.client.Live(ctx)
	}
	var pong PongMsg
	t0 := time.Now().UnixNano()
	err := sh.control.Post(ctx, pingPath, PingMsg{Seq: seq, SentUnixNano: t0}, &pong)
	t3 := time.Now().UnixNano()
	if err != nil {
		return err
	}
	if pong.RecvUnixNano > 0 && pong.SendUnixNano > 0 {
		offset := ((pong.RecvUnixNano - t0) + (pong.SendUnixNano - t3)) / 2
		rtt := (t3 - t0) - (pong.SendUnixNano - pong.RecvUnixNano)
		sh.observeClock(offset, rtt)
	}
	sh.lastPong.Store(&pong)
	return nil
}

// RetryAfter is the back-off hint the HTTP layer attaches to retryable
// router errors.
func (r *Router) RetryAfter() time.Duration { return r.cfg.RetryAfter }

// ShardHealth is one shard's router-side view for /v1/shards and the
// per-shard /metrics gauges.
type ShardHealth struct {
	Name          string   `json:"name"`
	BaseURL       string   `json:"base_url"`
	TransportAddr string   `json:"transport_addr"`
	Down          bool     `json:"down"`
	Strikes       int      `json:"strikes"`
	Sessions      int      `json:"sessions"`
	LastPong      *PongMsg `json:"last_pong,omitempty"`
	// ClockOffsetNS is the EWMA of the replica clock minus the router
	// clock (NTP-style, from probe ping/pong timestamps); RTTNS the
	// probe round trip. Both 0 until the first timestamped pong.
	ClockOffsetNS int64 `json:"clock_offset_ns"`
	RTTNS         int64 `json:"rtt_ns"`
}

// RouterStats is the router's in-process introspection snapshot;
// /metrics renders it (routerCollector).
type RouterStats struct {
	Sessions        int
	Parked          int
	Migrating       int
	StepsForwarded  int64
	StepsHeld       int64
	StepsRerouted   int64
	Migrations      int64
	MigrationErrors int64
	Failovers       int64
	Restored        int64
	Recreated       int64
	ParkEvents      int64
	Rebalanced      int64
	Probes          int64
	ProbeFailures   int64
	Shards          []ShardHealth
}

// Stats snapshots the router's counters and per-shard liveness.
func (r *Router) Stats() RouterStats {
	st := RouterStats{
		StepsForwarded:  r.stepsForwarded.Load(),
		StepsHeld:       r.stepsHeld.Load(),
		StepsRerouted:   r.stepsRerouted.Load(),
		Migrations:      r.migrations.Load(),
		MigrationErrors: r.migrationErrors.Load(),
		Failovers:       r.failovers.Load(),
		Restored:        r.restored.Load(),
		Recreated:       r.recreated.Load(),
		ParkEvents:      r.parked.Load(),
		Rebalanced:      r.rebalanced.Load(),
		Probes:          r.probes.Load(),
		ProbeFailures:   r.probeFailures.Load(),
	}
	counts := make(map[string]int, len(r.shards))
	r.mu.Lock()
	st.Sessions = len(r.routes)
	for _, rt := range r.routes {
		if rt.migrating {
			st.Migrating++
		} else if rt.shard == "" {
			st.Parked++
		} else {
			counts[rt.shard]++
		}
	}
	r.mu.Unlock()
	for _, name := range r.names {
		sh := r.shards[name]
		st.Shards = append(st.Shards, ShardHealth{
			Name:          name,
			BaseURL:       sh.spec.BaseURL,
			TransportAddr: sh.spec.TransportAddr,
			Down:          sh.down.Load(),
			Strikes:       int(sh.strikes.Load()),
			Sessions:      counts[name],
			LastPong:      sh.lastPong.Load(),
			ClockOffsetNS: sh.clockOffsetNS.Load(),
			RTTNS:         sh.rttNS.Load(),
		})
	}
	return st
}

// Tracer returns the router's span tracer (drained over /trace).
func (r *Router) Tracer() *telemetry.Tracer { return r.tracer }

// Ready reports whether the router can serve: at least one live shard.
func (r *Router) Ready() bool {
	for _, name := range r.names {
		if r.isLive(name) {
			return true
		}
	}
	return false
}
