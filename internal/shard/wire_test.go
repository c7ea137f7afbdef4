package shard

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"esthera/internal/serve"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 4096)}
	var buf bytes.Buffer
	for _, p := range payloads {
		if err := WriteFrame(&buf, FramePing, p); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	for i, p := range payloads {
		ft, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if ft != FramePing {
			t.Fatalf("read %d: type %v, want ping", i, ft)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("read %d: payload %q, want %q", i, got, p)
		}
	}
}

func TestReadFrameRejectsMalformed(t *testing.T) {
	valid := func() []byte {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, FramePing, []byte("ok")); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	cases := map[string]func([]byte) []byte{
		"bad magic":       func(b []byte) []byte { b[0] = 'X'; return b },
		"bad version":     func(b []byte) []byte { b[4] = ProtoVersion + 9; return b },
		"zero frame type": func(b []byte) []byte { b[5] = 0; return b },
		"huge frame type": func(b []byte) []byte { b[5] = 200; return b },
		// 9 and 10 carried the retired cluster-exchange frames.
		"frame type 9":     func(b []byte) []byte { b[5] = 9; return b },
		"frame type 10":    func(b []byte) []byte { b[5] = 10; return b },
		"reserved nonzero": func(b []byte) []byte { b[6] = 1; return b },
		"oversize length": func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[8:], MaxFramePayload+1)
			return b
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			_, _, err := ReadFrame(bytes.NewReader(mutate(valid())))
			if !errors.Is(err, ErrMalformedFrame) {
				t.Fatalf("err = %v, want ErrMalformedFrame", err)
			}
		})
	}

	// Truncation mid-payload is an I/O error, not a malformed frame: the
	// header was well-formed, the stream just ended.
	b := valid()
	if _, _, err := ReadFrame(bytes.NewReader(b[:len(b)-1])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated payload: err = %v, want unexpected EOF", err)
	}
}

// FuzzReadFrame throws arbitrary bytes at the TCP decoder: it must
// never panic and never allocate beyond the framed length bound,
// whatever a malicious or corrupted peer sends.
func FuzzReadFrame(f *testing.F) {
	var valid bytes.Buffer
	_ = WriteFrame(&valid, FrameHello, []byte(`{"proto":1,"name":"fuzz"}`))
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add([]byte("ESHD"))
	f.Add(valid.Bytes()[:headerSize-2])
	huge := append([]byte(nil), valid.Bytes()...)
	binary.BigEndian.PutUint32(huge[8:], 0xFFFFFFFF)
	f.Add(huge)
	badMagic := append([]byte(nil), valid.Bytes()...)
	copy(badMagic, "EVIL")
	f.Add(badMagic)

	f.Fuzz(func(t *testing.T, data []byte) {
		ft, payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if ft < FrameHello || ft > FrameRestored {
			t.Fatalf("accepted unknown frame type %d", ft)
		}
		if len(payload) > MaxFramePayload {
			t.Fatalf("payload %d bytes exceeds the frame limit", len(payload))
		}
		// A frame the decoder accepts must re-encode to the same bytes it
		// consumed (the codec is canonical).
		var buf bytes.Buffer
		if err := WriteFrame(&buf, ft, payload); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data[:buf.Len()]) {
			t.Fatalf("re-encode differs from consumed bytes")
		}
	})
}

func TestRemoteErrorIs(t *testing.T) {
	err := error(&RemoteError{Code: CodeNotFound, Message: "no session"})
	if !strings.Contains(err.Error(), "no session") {
		t.Fatalf("message lost: %v", err)
	}
	// A not-found crossing the transport must keep satisfying
	// errors.Is(err, serve.ErrNotFound), like the HTTP client's 404.
	if !errors.Is(err, serve.ErrNotFound) {
		t.Fatal("CodeNotFound does not map to serve.ErrNotFound")
	}
	if errors.Is(error(&RemoteError{Code: CodeInternal}), serve.ErrNotFound) {
		t.Fatal("CodeInternal must not map to serve.ErrNotFound")
	}
}

// TestAgentRestoreDecodesStrictly holds the transport's restore to the
// HTTP API's decoding: a checkpoint whose spec carries a retired option
// (streams, adapt_every) is a 400 on POST /v1/restore, so over the
// transport it must fail too, as a bad_request that keeps the
// connection, and install no session. The unmodified checkpoint, which
// an older tree wrote, still restores.
func TestAgentRestoreDecodesStrictly(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "serve", "testdata", "parent_ring.ckpt.json"))
	if err != nil {
		t.Fatal(err)
	}
	const specOpen = `"spec":{"model":"ungm",`
	if n := bytes.Count(raw, []byte(specOpen)); n != 1 {
		t.Fatalf("checkpoint holds %d copies of %s, want 1", n, specOpen)
	}
	withField := func(field string) []byte {
		return bytes.Replace(raw, []byte(specOpen), []byte(specOpen+field), 1)
	}
	restoreFrame := func(mid string, cp []byte) []byte {
		return []byte(`{"migration_id":"` + mid + `","checkpoint":` + string(cp) + `}`)
	}
	srv := serve.NewServer(serve.Config{Workers: 1}, testModels())
	defer srv.Shutdown()
	agent := NewAgent("a", srv)

	for _, field := range []string{`"streams":"philox",`, `"adapt_every":4,`} {
		if _, _, err := agent.HandleFrame("router", FrameRestore, restoreFrame("t-1#2", withField(field))); !errors.Is(err, ErrMalformedFrame) {
			t.Fatalf("restore frame with %s: err = %v, want a malformed-frame error", field, err)
		}
		if ids := srv.Sessions(); len(ids) != 0 {
			t.Fatalf("rejected restore with %s installed sessions %v", field, ids)
		}
	}

	// Over the wire the rejection is a bad_request error frame, and the
	// connection keeps serving.
	l := startListener(t, agent)
	ctx := context.Background()
	conn, err := Dial(ctx, l.Addr().String(), "router")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_, _, err = conn.Call(ctx, FrameRestore, restoreFrame("t-1#2", withField(`"streams":"philox",`)))
	var rerr *RemoteError
	if !errors.As(err, &rerr) || rerr.Code != CodeBadRequest {
		t.Fatalf("restore frame with streams over the transport: err = %v, want a bad_request RemoteError", err)
	}
	ft, payload, err := conn.Call(ctx, FrameRestore, restoreFrame("t-1#2", raw))
	if err != nil || ft != FrameRestored {
		t.Fatalf("unmodified checkpoint on the same connection: %v %v", ft, err)
	}
	var msg RestoredMsg
	if err := unmarshal(ft, payload, &msg); err != nil {
		t.Fatal(err)
	}
	if ids := srv.Sessions(); len(ids) != 1 || ids[0] != msg.SessionID {
		t.Fatalf("sessions %v after restoring the unmodified checkpoint, want [%s]", ids, msg.SessionID)
	}
}
