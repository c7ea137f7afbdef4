// Package shard turns the single-process serving stack into the
// building block of a sharded, multi-process deployment — ROADMAP's
// "millions of users" step and the process-boundary scaling PPF
// (arXiv:1310.5045) demonstrates for the paper's sub-filter design:
//
//   - A length-prefixed binary TCP transport (wire.go, transport.go)
//     carries probes and checkpoint transfers between processes.
//     Checkpoints ride the exact serve.Checkpoint wire format (base64
//     little-endian float64 bit patterns), so a transfer is bit-exact by
//     construction.
//   - An Agent (agent.go) gives every esthera-serve replica a transport
//     endpoint: health pings, session export (checkpoint + close at a
//     round boundary) and restore, with at-most-once migration
//     semantics — a replayed transfer returns the original result
//     instead of creating a second session.
//   - A Router (ring.go, router.go, http.go) fronts N replicas:
//     session ids consistent-hash onto shards, step/estimate requests
//     forward through the retrying serve.Client, /metrics exposes the
//     router's own counters and per-shard gauges (each replica serves
//     its own), and live sessions migrate between replicas — drain
//     at the source, checkpoint over the transport, restore at the
//     target, repoint atomically — driven by health probes (failover)
//     and per-shard load (rebalance).
//
// A migrated session's estimate stream is bit-identical to an
// unmigrated run: the checkpoint captures every particle, weight and
// random-stream position, and export waits for the in-flight step, so
// the cut always lands on a round boundary (TestMigrationDeterminism).
package shard

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"esthera/internal/serve"
)

// ProtoVersion is the transport protocol version; both frame headers
// and the Hello handshake carry it, and mismatches are rejected.
const ProtoVersion = 1

// frameMagic opens every frame: "ESHD".
var frameMagic = [4]byte{'E', 'S', 'H', 'D'}

// headerSize is the fixed frame header: 4-byte magic, 1-byte version,
// 1-byte type, 2 reserved zero bytes, 4-byte big-endian payload length.
const headerSize = 12

// MaxFramePayload bounds one frame's payload. Checkpoints dominate the
// sizing: a 120×128 session of an 8-dim model is ~20 MB of base64, so
// 64 MiB leaves headroom without letting a corrupt length field commit
// the decoder to an absurd allocation.
const MaxFramePayload = 64 << 20

// FrameType tags a frame's payload, a JSON message struct below.
type FrameType uint8

// The frame types of protocol version 1.
const (
	// FrameHello opens every connection, both directions (HelloMsg).
	FrameHello FrameType = iota + 1
	// FrameError is any request's failure reply (ErrorMsg).
	FrameError
	// FramePing probes a replica (PingMsg); FramePong answers with the
	// replica's health summary (PongMsg).
	FramePing
	FramePong
	// FrameExport asks a replica to checkpoint a session, optionally
	// closing it in the same atomic section (ExportMsg); the reply is
	// FrameCheckpoint (CheckpointMsg).
	FrameExport
	FrameCheckpoint
	// FrameRestore ships a checkpoint to a replica for restore
	// (RestoreMsg); the reply is FrameRestored (RestoredMsg).
	FrameRestore
	FrameRestored
)

// String names a frame type for errors and logs.
func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameError:
		return "error"
	case FramePing:
		return "ping"
	case FramePong:
		return "pong"
	case FrameExport:
		return "export"
	case FrameCheckpoint:
		return "checkpoint"
	case FrameRestore:
		return "restore"
	case FrameRestored:
		return "restored"
	}
	return fmt.Sprintf("frame(%d)", uint8(t))
}

// ErrMalformedFrame reports a frame the decoder rejected before
// reading its payload: bad magic, unknown version, nonzero reserved
// bytes, or an oversize length. A receiver must close the connection —
// after a malformed header the stream offset is unrecoverable.
var ErrMalformedFrame = errors.New("shard: malformed frame")

// WriteFrame writes one frame: the 12-byte header followed by payload.
func WriteFrame(w io.Writer, t FrameType, payload []byte) error {
	if len(payload) > MaxFramePayload {
		return fmt.Errorf("shard: %s payload %d bytes exceeds frame limit %d", t, len(payload), MaxFramePayload)
	}
	var hdr [headerSize]byte
	copy(hdr[:4], frameMagic[:])
	hdr[4] = ProtoVersion
	hdr[5] = byte(t)
	binary.BigEndian.PutUint32(hdr[8:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame. Header violations return an error wrapping
// ErrMalformedFrame; a short read inside a well-formed frame returns
// the underlying I/O error (io.ErrUnexpectedEOF on truncation).
func ReadFrame(r io.Reader) (FrameType, []byte, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	if [4]byte(hdr[:4]) != frameMagic {
		return 0, nil, fmt.Errorf("%w: bad magic %q", ErrMalformedFrame, hdr[:4])
	}
	if hdr[4] != ProtoVersion {
		return 0, nil, fmt.Errorf("%w: protocol version %d, this build speaks %d", ErrMalformedFrame, hdr[4], ProtoVersion)
	}
	if hdr[6] != 0 || hdr[7] != 0 {
		return 0, nil, fmt.Errorf("%w: nonzero reserved bytes", ErrMalformedFrame)
	}
	t := FrameType(hdr[5])
	if t < FrameHello || t > FrameRestored {
		return 0, nil, fmt.Errorf("%w: unknown frame type %d", ErrMalformedFrame, hdr[5])
	}
	n := binary.BigEndian.Uint32(hdr[8:])
	if n > MaxFramePayload {
		return 0, nil, fmt.Errorf("%w: payload length %d exceeds frame limit %d", ErrMalformedFrame, n, MaxFramePayload)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return t, payload, nil
}

// HelloMsg is the connection handshake, sent by both sides before any
// other frame. A version or magic mismatch surfaces at the frame layer;
// Name identifies the peer in errors and metrics.
type HelloMsg struct {
	Proto int    `json:"proto"`
	Name  string `json:"name"`
}

// ErrorMsg is the failure reply to any request frame.
type ErrorMsg struct {
	// Code is a stable machine-readable class: "not_found",
	// "bad_request", "unavailable" or "internal".
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error codes carried by ErrorMsg.
const (
	CodeNotFound    = "not_found"
	CodeBadRequest  = "bad_request"
	CodeUnavailable = "unavailable"
	CodeInternal    = "internal"
)

// RemoteError is an ErrorMsg surfaced on the calling side.
type RemoteError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("shard: remote error (%s): %s", e.Code, e.Message)
}

// Is maps the not_found code onto serve.ErrNotFound so callers can use
// errors.Is across the transport boundary.
func (e *RemoteError) Is(target error) bool {
	return target == serve.ErrNotFound && e.Code == CodeNotFound
}

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

// ExportMsg asks the replica to checkpoint session SessionID. With
// Close set the session is checkpointed and closed in one atomic
// section (serve.Export) — the migration drain: the in-flight step
// finishes, the snapshot lands on a round boundary, and no later step
// can touch the source copy. MigrationID makes the export replayable:
// a retried request returns the original checkpoint instead of failing
// on the now-closed session.
type ExportMsg struct {
	MigrationID string `json:"migration_id"`
	SessionID   string `json:"session_id"`
	Close       bool   `json:"close"`
	// Trace carries the caller's trace context in W3C traceparent form
	// ("00-<32 hex trace>-<16 hex span>-01", empty = untraced), so the
	// replica's export span joins the router's migration trace.
	Trace string `json:"trace,omitempty"`
}

// CheckpointMsg answers FrameExport. The checkpoint is the serving
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
	// Trace is the caller's trace context (traceparent form, empty =
	// untraced); a restore driven by migration or failover records its
	// replica-side span under the originating trace.
	Trace string `json:"trace,omitempty"`
}

// RestoredMsg answers FrameRestore. Duplicate reports that the
// migration id had already been restored and SessionID is the original
// installation's id.
type RestoredMsg struct {
	MigrationID string `json:"migration_id"`
	SessionID   string `json:"session_id"`
	Duplicate   bool   `json:"duplicate"`
}

// marshal encodes a control message as a frame payload.
func marshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// The message structs marshal by construction; a failure is a
		// programming error worth failing loudly on.
		panic(fmt.Sprintf("shard: marshal %T: %v", v, err))
	}
	return b
}

// unmarshal decodes a control payload as strictly as serve.ReadJSON
// decodes an HTTP body (an unknown field, such as a retired spec option
// in a checkpoint, is an error), tagging failures as malformed frames.
func unmarshal(t FrameType, payload []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: %s payload: %v", ErrMalformedFrame, t, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("%w: %s payload: trailing data", ErrMalformedFrame, t)
	}
	return nil
}
