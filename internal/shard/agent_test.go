package shard

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"

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
