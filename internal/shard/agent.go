package shard

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"esthera/internal/serve"
	"esthera/internal/telemetry"
	tlog "esthera/internal/telemetry/log"
)

// migrationLogCap bounds the at-most-once dedup log. Entries are
// evicted oldest-first; a migration id replayed after 4096 newer
// migrations have completed is long past any retry window.
const migrationLogCap = 4096

// Agent is one replica's transport endpoint: it answers health pings
// and performs the two halves of a live migration against its local
// serve.Server — export (checkpoint + close at a round boundary) and
// restore. Both halves are at-most-once per migration id: a replayed
// export returns the original checkpoint instead of failing on the
// now-closed session, and a replayed restore returns the original
// session id instead of installing a second copy. The dedup log is
// what makes the router's retry loop safe over a lossy transport.
type Agent struct {
	name string
	srv  *serve.Server

	// opMu serializes migration operations (export-with-close and
	// restore) so the dedup check and the operation it guards are one
	// atomic section: two concurrent replays of the same migration id
	// cannot both miss the log. Migrations are rare control-plane
	// events; pings and concurrent step traffic never touch this lock.
	opMu sync.Mutex

	mu sync.Mutex
	// exports and restores are the migration dedup logs, keyed by
	// migration id; order tracks insertion for eviction.
	exports  map[string]*CheckpointMsg
	restores map[string]*RestoredMsg
	order    []dedupKey
}

type dedupKey struct {
	id      string
	restore bool
}

// NewAgent builds the transport endpoint for srv, identified as name.
func NewAgent(name string, srv *serve.Server) *Agent {
	return &Agent{
		name:     name,
		srv:      srv,
		exports:  make(map[string]*CheckpointMsg),
		restores: make(map[string]*RestoredMsg),
	}
}

// HandleFrame implements Handler.
func (a *Agent) HandleFrame(remote string, t FrameType, payload []byte) (FrameType, []byte, error) {
	switch t {
	case FramePing:
		// t1 (receive) is stamped as early as possible and t2 (send)
		// as late as possible, so the NTP-style offset the caller
		// derives excludes as much local processing as the frame
		// handler allows.
		recv := time.Now().UnixNano()
		var ping PingMsg
		if err := unmarshal(t, payload, &ping); err != nil {
			return 0, nil, err
		}
		pong := a.pong(ping.Seq)
		pong.RecvUnixNano = recv
		pong.SendUnixNano = time.Now().UnixNano()
		return FramePong, marshal(pong), nil
	case FrameExport:
		var req ExportMsg
		if err := unmarshal(t, payload, &req); err != nil {
			return 0, nil, err
		}
		reply, err := a.export(req)
		if err != nil {
			return 0, nil, err
		}
		return FrameCheckpoint, marshal(reply), nil
	case FrameRestore:
		var req RestoreMsg
		if err := unmarshal(t, payload, &req); err != nil {
			return 0, nil, err
		}
		reply, err := a.restore(req)
		if err != nil {
			return 0, nil, err
		}
		return FrameRestored, marshal(reply), nil
	default:
		return 0, nil, &RemoteError{Code: CodeBadRequest, Message: fmt.Sprintf("agent does not serve %s frames", t)}
	}
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
// trace (carried on the wire in traceparent form) and mirrors it to
// the replica's structured log, correlated by the same trace context.
func (a *Agent) span(traceparent, name, sessionID string, start time.Time, failed bool) {
	tc, ok := telemetry.ParseTraceParent(traceparent)
	if !ok {
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

// export runs the source half of a migration. With req.Close the
// checkpoint+close is one atomic section (serve.Export); without it
// this is a plain snapshot (the router's failover-insurance path).
func (a *Agent) export(req ExportMsg) (*CheckpointMsg, error) {
	if req.SessionID == "" {
		return nil, &RemoteError{Code: CodeBadRequest, Message: "export needs a session id"}
	}
	if req.Close && req.MigrationID != "" {
		a.opMu.Lock()
		defer a.opMu.Unlock()
		a.mu.Lock()
		if prev, ok := a.exports[req.MigrationID]; ok {
			a.mu.Unlock()
			return prev, nil
		}
		a.mu.Unlock()
	}
	var (
		cp  *serve.Checkpoint
		err error
	)
	start := time.Now()
	if req.Close {
		cp, err = a.srv.Export(req.SessionID)
	} else {
		cp, err = a.srv.Checkpoint(req.SessionID)
	}
	a.span(req.Trace, "agent.export", req.SessionID, start, err != nil)
	if err != nil {
		return nil, wireError(err)
	}
	reply := &CheckpointMsg{MigrationID: req.MigrationID, Checkpoint: cp}
	if req.Close && req.MigrationID != "" {
		a.record(req.MigrationID, reply, nil)
	}
	return reply, nil
}

// restore runs the target half of a migration, at-most-once per
// migration id.
func (a *Agent) restore(req RestoreMsg) (*RestoredMsg, error) {
	if req.Checkpoint == nil {
		return nil, &RemoteError{Code: CodeBadRequest, Message: "restore needs a checkpoint"}
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
	a.span(req.Trace, "agent.restore", id, start, err != nil)
	if err != nil {
		return nil, wireError(err)
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
	if cp != nil {
		if _, ok := a.exports[mid]; ok {
			return
		}
		a.exports[mid] = cp
		a.order = append(a.order, dedupKey{id: mid})
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

// wireError maps serve-layer errors onto wire error codes.
func wireError(err error) error {
	switch {
	case errors.Is(err, serve.ErrNotFound):
		return &RemoteError{Code: CodeNotFound, Message: err.Error()}
	case errors.Is(err, serve.ErrClosed), errors.Is(err, serve.ErrDraining),
		errors.Is(err, serve.ErrTooManySessions):
		return &RemoteError{Code: CodeUnavailable, Message: err.Error()}
	default:
		return &RemoteError{Code: CodeInternal, Message: err.Error()}
	}
}
