package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"esthera/internal/serve"
)

// TestAgentRestoreDecodesStrictly holds the agent's restore to the
// session API's decoding: a checkpoint whose spec carries a retired
// option (streams, adapt_every) is a 400 on POST /v1/restore, so it is a
// 400 on the agent's restore endpoint too, and installs no session. The
// unmodified checkpoint, which an older tree wrote, still restores.
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
	srv := serve.NewServer(serve.Config{Workers: 1}, testModels())
	defer srv.Shutdown()
	l := NewListener("a", NewAgent("a", srv))
	if err := l.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	restore := func(cp []byte) *http.Response {
		t.Helper()
		body := `{"migration_id":"t-1#2","checkpoint":` + string(cp) + `}`
		resp, err := http.Post("http://"+l.Addr().String()+restorePath, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	for _, field := range []string{`"streams":"philox",`, `"adapt_every":4,`} {
		resp := restore(withField(field))
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("restore with %s: status %d, want 400", field, resp.StatusCode)
		}
		if ids := srv.Sessions(); len(ids) != 0 {
			t.Fatalf("rejected restore with %s installed sessions %v", field, ids)
		}
	}

	resp := restore(raw)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unmodified checkpoint: status %d, want 200", resp.StatusCode)
	}
	var msg RestoredMsg
	if err := json.NewDecoder(resp.Body).Decode(&msg); err != nil {
		t.Fatal(err)
	}
	if ids := srv.Sessions(); len(ids) != 1 || ids[0] != msg.SessionID {
		t.Fatalf("sessions %v after restoring the unmodified checkpoint, want [%s]", ids, msg.SessionID)
	}
}

// TestAgentExportReplayWindow pins how long the dedup log keeps an
// exported checkpoint: a replay inside the window returns the original
// checkpoint, and a replay after it answers errExportExpired's 400
// without exporting again, while the migration id stays in the log. A
// ping is enough to drop a checkpoint past the window, so a replica
// that stops migrating does not keep its last exports.
func TestAgentExportReplayWindow(t *testing.T) {
	srv := serve.NewServer(serve.Config{Workers: 1}, testModels())
	defer srv.Shutdown()
	agent := NewAgent("a", srv)
	web := httptest.NewServer(agent)
	defer web.Close()
	control := serve.NewClient(serve.ClientConfig{BaseURL: web.URL})
	ctx := context.Background()
	export := func(mid, session string) (*CheckpointMsg, error) {
		var msg CheckpointMsg
		err := control.Post(ctx, exportPath, ExportMsg{MigrationID: mid, SessionID: session}, &msg)
		return &msg, err
	}
	create := func() string {
		id, err := srv.Create(serve.FilterSpec{Model: "ungm", Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}

	window := func(d time.Duration) { // record reads keep under mu
		agent.mu.Lock()
		agent.keep = d
		agent.mu.Unlock()
	}
	window(time.Hour)
	first := create()
	cp1, err := export("t-1#2", first)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := export("t-1#2", first)
	if err != nil {
		t.Fatalf("replay inside the window: %v", err)
	}
	a, _ := json.Marshal(cp1.Checkpoint)
	b, _ := json.Marshal(replay.Checkpoint)
	if !bytes.Equal(a, b) {
		t.Fatal("replay inside the window returned a different checkpoint")
	}

	window(10 * time.Millisecond)
	second := create()
	if _, err := export("t-2#2", second); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	_, err = export("t-2#2", second)
	var api *serve.APIError
	if !errors.As(err, &api) || api.Status != http.StatusBadRequest || !strings.Contains(api.Message, errExportExpired.Error()) {
		t.Fatalf("replay after the window: %v, want a 400 carrying %q", err, errExportExpired)
	}
	agent.mu.Lock()
	kept, ok := agent.exports["t-2#2"]
	agent.mu.Unlock()
	if !ok || kept != nil {
		t.Fatalf("after the window the log holds id %v with checkpoint %v, want the id alone", ok, kept)
	}
	if ids := srv.Sessions(); len(ids) != 0 {
		t.Fatalf("sessions %v left after both exports, want none", ids)
	}

	// A ping alone sweeps an expired checkpoint: with the window
	// reopened after it, only the ping can have dropped the third
	// export's checkpoint, and its replay still finds the id alone.
	third := create()
	if _, err := export("t-3#2", third); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	var pong PongMsg
	if err := control.Post(ctx, pingPath, PingMsg{Seq: 1}, &pong); err != nil {
		t.Fatal(err)
	}
	window(time.Hour)
	agent.mu.Lock()
	kept, ok = agent.exports["t-3#2"]
	agent.mu.Unlock()
	if !ok || kept != nil {
		t.Fatalf("after a ping past the window the log holds id %v with checkpoint %v, want the id alone", ok, kept)
	}
	_, err = export("t-3#2", third)
	if !errors.As(err, &api) || api.Status != http.StatusBadRequest || !strings.Contains(api.Message, errExportExpired.Error()) {
		t.Fatalf("replay after a sweeping ping: %v, want a 400 carrying %q", err, errExportExpired)
	}
}
