package telemetry

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
	"sync/atomic"
)

// Distributed trace context. A request entering the sharded stack is
// minted a 16-byte trace ID at router ingress; every span the request
// touches — across processes — carries that ID plus a per-span 8-byte
// span ID and the span ID of its parent. The wire spelling follows the
// W3C traceparent header, version 00:
//
//	traceparent: 00-<32 hex trace id>-<16 hex span id>-01
//
// The same header rides on every router→replica request — step
// forwards and the agent's export and restore calls alike — so
// migration and failover hops stay on the request's trace.

// TraceID is a 16-byte request identity, zero when absent. It marshals
// as a 32-character lowercase hex string in JSON.
type TraceID [16]byte

// IsZero reports whether the ID is unset. encoding/json's omitzero
// also consults this, keeping untraced events free of trace fields on
// the raw wire.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the ID as 32 lowercase hex characters.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// MarshalJSON encodes the ID as a hex string ("" when zero).
func (id TraceID) MarshalJSON() ([]byte, error) {
	if id.IsZero() {
		return []byte(`""`), nil
	}
	buf := make([]byte, 0, 34)
	buf = append(buf, '"')
	buf = hex.AppendEncode(buf, id[:])
	return append(buf, '"'), nil
}

// UnmarshalJSON decodes a 32-hex-character string; "" and null yield
// the zero ID.
func (id *TraceID) UnmarshalJSON(data []byte) error {
	s := string(data)
	if s == "null" || s == `""` {
		*id = TraceID{}
		return nil
	}
	if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' {
		return fmt.Errorf("telemetry: trace id is not a JSON string: %s", s)
	}
	return id.parseHex(s[1 : len(s)-1])
}

func (id *TraceID) parseHex(s string) error {
	if len(s) != 32 {
		return fmt.Errorf("telemetry: trace id %q is not 32 hex characters", s)
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return fmt.Errorf("telemetry: bad trace id %q: %v", s, err)
	}
	return nil
}

// TraceContext is the propagated pair: the request's trace ID and the
// span ID of the caller's span, which children record as their parent.
type TraceContext struct {
	Trace TraceID
	Span  uint64
}

// Valid reports whether the context carries a real trace.
func (tc TraceContext) Valid() bool { return !tc.Trace.IsZero() }

// TraceHeader is the HTTP header carrying the trace context.
const TraceHeader = "traceparent"

// HeaderValue renders the context in W3C traceparent form.
func (tc TraceContext) HeaderValue() string {
	var span [8]byte
	binary.BigEndian.PutUint64(span[:], tc.Span)
	return "00-" + tc.Trace.String() + "-" + hex.EncodeToString(span[:]) + "-01"
}

// ParseTraceParent parses a W3C traceparent value: a version of two
// lowercase hex digits other than ff, a 32-digit trace-id, a 16-digit
// parent-id and two-digit flags, all lowercase hex, with neither ID all
// zeros. Version 00 has exactly these four fields; a higher version may
// carry more after them. Anything else returns ok=false.
func ParseTraceParent(s string) (TraceContext, bool) {
	parts := strings.Split(strings.TrimSpace(s), "-")
	if len(parts) < 4 || (parts[0] == "00" && len(parts) != 4) || parts[0] == "ff" ||
		!isLowerHex(parts[0], 2) || !isLowerHex(parts[1], 32) ||
		!isLowerHex(parts[2], 16) || !isLowerHex(parts[3], 2) {
		return TraceContext{}, false
	}
	// The fields are checked lowercase hex of even length, so neither
	// decode can fail.
	var tc TraceContext
	_, _ = hex.Decode(tc.Trace[:], []byte(parts[1]))
	var span [8]byte
	_, _ = hex.Decode(span[:], []byte(parts[2]))
	tc.Span = binary.BigEndian.Uint64(span[:])
	return tc, tc.Valid() && tc.Span != 0
}

// isLowerHex reports whether s is exactly n lowercase hex digits.
func isLowerHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < n; i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// NewTraceID mints a random 16-byte trace ID.
func NewTraceID() TraceID {
	var id TraceID
	if _, err := crand.Read(id[:]); err != nil {
		// crypto/rand never fails on supported platforms; fall back to a
		// counter so tracing degrades rather than panics.
		binary.BigEndian.PutUint64(id[:8], spanSalt)
		binary.BigEndian.PutUint64(id[8:], spanCounter.Add(1))
	}
	return id
}

// spanSalt perturbs span IDs per process so two processes minting the
// same counter values never collide on a merged timeline.
var spanSalt = func() uint64 {
	var b [8]byte
	crand.Read(b[:])
	return binary.BigEndian.Uint64(b[:])
}()

var spanCounter atomic.Uint64

// NewSpanID mints a process-unique, never-zero span ID. Cheap (one
// atomic add plus a mix) and allocation-free, so callers may mint
// before checking whether tracing is enabled.
//
//esthera:hotpath noalloc
func NewSpanID() uint64 {
	for {
		if id := mix64(spanCounter.Add(1) ^ spanSalt); id != 0 {
			return id
		}
	}
}

// mix64 is the splitmix64 finalizer: a bijective avalanche over the
// counter, so sequential mints look random without a generator lock.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// traceKey is the context key for the propagated TraceContext. The
// boxed form is hoisted to a package variable because a literal
// traceKey{} argument reports "escapes to heap" under escape analysis
// (zero-size boxes never allocate at runtime, but the noalloc ratchet
// counts diagnostics, not bytes).
type traceKey struct{}

var traceKeyBoxed any = traceKey{}

// ContextWithTrace returns a context carrying tc; requests thread it
// from HTTP ingress down to the scheduler.
func ContextWithTrace(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, traceKeyBoxed, tc)
}

// TraceFromContext extracts the propagated trace context, if any.
//
//esthera:hotpath noalloc
func TraceFromContext(ctx context.Context) (TraceContext, bool) {
	tc, ok := ctx.Value(traceKeyBoxed).(TraceContext)
	return tc, ok && tc.Valid()
}
