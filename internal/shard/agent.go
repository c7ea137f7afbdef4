package shard

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"time"

	"esthera/internal/serve"
	"esthera/internal/telemetry"
	tlog "esthera/internal/telemetry/log"
)

// The agent's control endpoints. Each takes one JSON message below as
// its POST body and answers with another; failures carry serve's own
// statuses (serve.WriteError), so the router classifies a control reply
// exactly as it classifies a forwarded step's.
const (
	pingPath    = "/v1/shard/ping"    // PingMsg → PongMsg
	exportPath  = "/v1/shard/export"  // ExportMsg → CheckpointMsg
	restorePath = "/v1/shard/restore" // RestoreMsg → RestoredMsg
)

// PingMsg probes a replica's agent. SentUnixNano is the sender's clock
// at transmit (t0 of the NTP-style offset exchange); the replica echoes
// its own receive/send times in the pong, and the caller derives the
// clock offset that lets `esthera-trace merge` align per-process
// traces onto one timeline.
type PingMsg struct {
	Seq          int64 `json:"seq"`
	SentUnixNano int64 `json:"sent_unix_nano,omitempty"`
}

// PongMsg is the replica's health summary — the serve layer's
// degraded-mode health counters, made visible to the router's failure
// detector and rebalancer — plus the replica-clock timestamps of the
// offset exchange: RecvUnixNano (t1) when the ping arrived and
// SendUnixNano (t2) just before the pong left. With the caller's t0/t3
// around the call, offset = ((t1-t0)+(t2-t3))/2 and
// rtt = (t3-t0)-(t2-t1), the classic NTP estimate.
type PongMsg struct {
	Seq          int64  `json:"seq"`
	Name         string `json:"name"`
	Ready        bool   `json:"ready"`
	Draining     bool   `json:"draining"`
	Sessions     int    `json:"sessions"`
	InFlight     int64  `json:"in_flight"`
	QueueDepth   int    `json:"queue_depth"`
	QueueCap     int    `json:"queue_cap"`
	RecvUnixNano int64  `json:"recv_unix_nano,omitempty"`
	SendUnixNano int64  `json:"send_unix_nano,omitempty"`
}

// ExportMsg asks the replica to checkpoint and close session SessionID
// in one atomic section (serve.Export) — the migration drain: the
// in-flight step finishes, the snapshot lands on a round boundary, and
// no later step can touch the source copy. MigrationID makes the export
// replayable: a retried request returns the original checkpoint instead
// of failing on the now-closed session.
type ExportMsg struct {
	MigrationID string `json:"migration_id"`
	SessionID   string `json:"session_id"`
}

// CheckpointMsg answers an export. The checkpoint is the serving
// layer's own wire format, unchanged — bit-exact by construction.
type CheckpointMsg struct {
	MigrationID string            `json:"migration_id"`
	Checkpoint  *serve.Checkpoint `json:"checkpoint"`
}

// RestoreMsg ships a checkpoint for restore. MigrationID keys the
// at-most-once guarantee: a duplicate restore (a retried transfer, a
// router failover racing a manual migration) returns the first
// attempt's session id instead of installing a second copy.
type RestoreMsg struct {
	MigrationID string            `json:"migration_id"`
	Checkpoint  *serve.Checkpoint `json:"checkpoint"`
}

// RestoredMsg answers a restore. Duplicate reports that the migration
// id had already been restored and SessionID is the original
// installation's id.
type RestoredMsg struct {
	MigrationID string `json:"migration_id"`
	SessionID   string `json:"session_id"`
	Duplicate   bool   `json:"duplicate"`
}

// migrationLogCap bounds the at-most-once dedup log. Entries are
// evicted oldest-first; a migration id replayed after 4096 newer
// migrations have completed is long past any retry window.
const migrationLogCap = 4096

// exportKeep is how long the dedup log holds an export's checkpoint.
// The router sends an export only from Migrate, each attempt within one
// call bounded by controlTimeout, and never reuses a migration id, so a
// replay older than two such bounds cannot come from a live migration.
// Past it only the id is kept (the checkpoint goes at the agent's next
// ping, export or restore, so the router's probes bound how long it
// outlives the window), and a replay gets errExportExpired.
const exportKeep = 2 * controlTimeout

// errExportExpired answers a replayed export whose checkpoint is no
// longer kept: the session was exported (and closed) once, and is not
// exported again.
var errExportExpired = errors.New("shard: export replayed after its checkpoint was dropped")

// Agent is one replica's control endpoint, an http.Handler: it answers
// health pings and performs the two halves of a live migration against
// its local serve.Server — export (checkpoint + close at a round
// boundary) and restore. Both halves are at-most-once per migration id:
// a replayed export returns the original checkpoint instead of failing
// on the now-closed session, and a replayed restore returns the original
// session id instead of installing a second copy. The dedup log is what
// makes the router's retry loop safe over a lossy network.
//
// A traceparent header on an export or restore joins the replica's
// agent.export/agent.restore span to the caller's trace.
type Agent struct {
	name string
	srv  *serve.Server
	mux  *http.ServeMux

	// opMu serializes migration operations (export and restore) so the
	// dedup check and the operation it guards are one atomic section:
	// two concurrent replays of the same migration id cannot both miss
	// the log. Migrations are rare control-plane events; pings and
	// concurrent step traffic never touch this lock.
	opMu sync.Mutex

	mu sync.Mutex
	// exports and restores are the migration dedup logs, keyed by
	// migration id; order tracks insertion for eviction. An export's
	// checkpoint is dropped, leaving a nil entry, at the first ping or
	// log access after it is older than keep (exportKeep; tests
	// shorten it); aging lists the exports still holding one, oldest
	// first.
	exports  map[string]*CheckpointMsg
	restores map[string]*RestoredMsg
	order    []dedupKey
	aging    []exported
	keep     time.Duration
}

type dedupKey struct {
	id      string
	restore bool
}

// exported is one export whose checkpoint the dedup log still holds.
type exported struct {
	id string
	at time.Time
}

// NewAgent builds the control endpoints for srv, identified as name in
// probe replies.
func NewAgent(name string, srv *serve.Server) *Agent {
	a := &Agent{
		name:     name,
		srv:      srv,
		mux:      http.NewServeMux(),
		exports:  make(map[string]*CheckpointMsg),
		restores: make(map[string]*RestoredMsg),
		keep:     exportKeep,
	}
	a.mux.HandleFunc("POST "+pingPath, func(w http.ResponseWriter, r *http.Request) {
		// t1 (receive) is stamped as early as possible and t2 (send)
		// as late as possible, so the NTP-style offset the caller
		// derives excludes as much local processing as the handler
		// allows.
		recv := time.Now().UnixNano()
		var ping PingMsg
		if !serve.ReadJSON(w, r, &ping) {
			return
		}
		a.mu.Lock()
		a.dropStale()
		a.mu.Unlock()
		pong := a.pong(ping.Seq)
		pong.RecvUnixNano = recv
		pong.SendUnixNano = time.Now().UnixNano()
		serve.WriteJSON(w, http.StatusOK, pong)
	})
	a.mux.HandleFunc("POST "+exportPath, func(w http.ResponseWriter, r *http.Request) {
		var req ExportMsg
		if !serve.ReadJSON(w, r, &req) {
			return
		}
		reply, err := a.export(traceOf(r), req)
		if err != nil {
			serve.WriteError(w, srv, err)
			return
		}
		serve.WriteJSON(w, http.StatusOK, reply)
	})
	a.mux.HandleFunc("POST "+restorePath, func(w http.ResponseWriter, r *http.Request) {
		var req RestoreMsg
		if !serve.ReadJSON(w, r, &req) {
			return
		}
		reply, err := a.restore(traceOf(r), req)
		if err != nil {
			serve.WriteError(w, srv, err)
			return
		}
		serve.WriteJSON(w, http.StatusOK, reply)
	})
	return a
}

// ServeHTTP implements http.Handler.
func (a *Agent) ServeHTTP(w http.ResponseWriter, r *http.Request) { a.mux.ServeHTTP(w, r) }

// traceOf reads a control request's traceparent header (zero when
// absent or malformed: the call is untraced).
func traceOf(r *http.Request) telemetry.TraceContext {
	tc, _ := telemetry.ParseTraceParent(r.Header.Get(telemetry.TraceHeader))
	return tc
}

// pong summarizes the replica's health for the router's failure
// detector and load-based rebalancer.
func (a *Agent) pong(seq int64) PongMsg {
	st := a.srv.Stats()
	return PongMsg{
		Seq:        seq,
		Name:       a.name,
		Ready:      st.Health.Ready,
		Draining:   st.Health.Draining,
		Sessions:   len(st.Sessions),
		InFlight:   st.Health.InFlight,
		QueueDepth: st.QueueDepth,
		QueueCap:   st.QueueCap,
	}
}

// span records one replica-side migration span under the caller's
// trace and mirrors it to the replica's structured log, correlated by
// the same trace context. An untraced call records nothing.
func (a *Agent) span(tc telemetry.TraceContext, name, sessionID string, start time.Time, failed bool) {
	if tc.Trace.IsZero() {
		return
	}
	elapsed := time.Since(start)
	tr := a.srv.Tracer()
	span := telemetry.NewSpanID()
	if tr.Enabled() {
		ev := telemetry.Event{Name: name, Cat: "shard", TS: tr.Stamp(start), Dur: elapsed,
			Trace: tc.Trace, Span: span, Parent: tc.Span}
		if failed {
			ev.SetArg("failed", 1)
		}
		tr.Record(ev)
	}
	a.srv.Logger().LogAttrs(context.TODO(), slog.LevelInfo, name, tlog.Trace(telemetry.TraceContext{Trace: tc.Trace, Span: span}),
		slog.String("session", sessionID), slog.Duration("took", elapsed), slog.Bool("failed", failed))
}

// export runs the source half of a migration: checkpoint and close in
// one atomic section (serve.Export), at-most-once per migration id.
func (a *Agent) export(tc telemetry.TraceContext, req ExportMsg) (*CheckpointMsg, error) {
	if req.SessionID == "" {
		return nil, errors.New("shard: export needs a session id")
	}
	if req.MigrationID != "" {
		a.opMu.Lock()
		defer a.opMu.Unlock()
		a.mu.Lock()
		a.dropStale()
		if prev, ok := a.exports[req.MigrationID]; ok {
			a.mu.Unlock()
			if prev == nil {
				return nil, fmt.Errorf("%w (migration %s)", errExportExpired, req.MigrationID)
			}
			return prev, nil
		}
		a.mu.Unlock()
	}
	start := time.Now()
	cp, err := a.srv.Export(req.SessionID)
	a.span(tc, "agent.export", req.SessionID, start, err != nil)
	if err != nil {
		return nil, err
	}
	reply := &CheckpointMsg{MigrationID: req.MigrationID, Checkpoint: cp}
	if req.MigrationID != "" {
		a.record(req.MigrationID, reply, nil)
	}
	return reply, nil
}

// restore runs the target half of a migration, at-most-once per
// migration id.
func (a *Agent) restore(tc telemetry.TraceContext, req RestoreMsg) (*RestoredMsg, error) {
	if req.Checkpoint == nil {
		return nil, errors.New("shard: restore needs a checkpoint")
	}
	if req.MigrationID != "" {
		a.opMu.Lock()
		defer a.opMu.Unlock()
		a.mu.Lock()
		if prev, ok := a.restores[req.MigrationID]; ok {
			a.mu.Unlock()
			dup := *prev
			dup.Duplicate = true
			return &dup, nil
		}
		a.mu.Unlock()
	}
	start := time.Now()
	id, err := a.srv.Restore(req.Checkpoint)
	a.span(tc, "agent.restore", id, start, err != nil)
	if err != nil {
		return nil, err
	}
	reply := &RestoredMsg{MigrationID: req.MigrationID, SessionID: id}
	if req.MigrationID != "" {
		a.record(req.MigrationID, nil, reply)
	}
	return reply, nil
}

// record inserts a dedup-log entry, evicting oldest-first past the cap.
// Exactly one of cp/rm is non-nil. A restore that raced a duplicate to
// the log keeps the first entry: the loser's session would be a second
// live copy, so it is closed.
func (a *Agent) record(mid string, cp *CheckpointMsg, rm *RestoredMsg) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.dropStale()
	if cp != nil {
		if _, ok := a.exports[mid]; ok {
			return
		}
		a.exports[mid] = cp
		a.order = append(a.order, dedupKey{id: mid})
		a.aging = append(a.aging, exported{id: mid, at: time.Now()})
	} else {
		if prev, ok := a.restores[mid]; ok {
			if prev.SessionID != rm.SessionID {
				_ = a.srv.Close(rm.SessionID)
			}
			return
		}
		a.restores[mid] = rm
		a.order = append(a.order, dedupKey{id: mid, restore: true})
	}
	for len(a.order) > migrationLogCap {
		old := a.order[0]
		a.order = a.order[1:]
		if old.restore {
			delete(a.restores, old.id)
		} else {
			delete(a.exports, old.id)
		}
	}
}

// dropStale drops the checkpoints of exports older than keep, keeping
// their ids for dedup. Caller holds mu.
func (a *Agent) dropStale() {
	now := time.Now()
	for len(a.aging) > 0 && now.Sub(a.aging[0].at) > a.keep {
		if _, ok := a.exports[a.aging[0].id]; ok {
			a.exports[a.aging[0].id] = nil
		}
		a.aging = a.aging[1:]
	}
}

// Listener serves a handler — a replica's Agent — over HTTP on an
// address of its own (esthera-serve's -shard-addr), apart from the
// replica's session API.
type Listener struct {
	name string
	srv  *http.Server

	mu sync.Mutex
	ln net.Listener
	wg sync.WaitGroup
}

// NewListener builds a control listener for h; name labels its errors.
func NewListener(name string, h http.Handler) *Listener {
	return &Listener{name: name, srv: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}}
}

// ListenAndServe listens on addr and serves until Close. It returns
// once the listener is bound; requests are served in the background.
func (l *Listener) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("shard: control listener %s: %w", l.name, err)
	}
	l.mu.Lock()
	l.ln = ln
	l.mu.Unlock()
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		_ = l.srv.Serve(ln) // http.ErrServerClosed after Close
	}()
	return nil
}

// Addr returns the bound address (nil before ListenAndServe).
func (l *Listener) Addr() net.Addr {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ln == nil {
		return nil
	}
	return l.ln.Addr()
}

// Close stops the listener, closes every connection and waits for the
// serve goroutine. Idempotent.
func (l *Listener) Close() error {
	err := l.srv.Close()
	l.wg.Wait()
	return err
}
