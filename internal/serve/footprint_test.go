package serve

import (
	"context"
	"encoding/json"
	"runtime"
	"testing"
)

// footprintLimit bounds what an idle server, and what one default UNGM
// session (16 sub-filters of 64 particles), may keep on the heap.
const footprintLimit = 64 << 10

// liveHeap returns the heap in use after a full collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestServerFootprint pins the heap a server holds before any session:
// with tracing off its span rings are never allocated, and the /logz
// ring grows only as records arrive. The mean over several servers
// keeps the reading clear of unrelated allocation noise.
func TestServerFootprint(t *testing.T) {
	const n = 8
	srvs := make([]*Server, n)
	before := liveHeap()
	for i := range srvs {
		srvs[i] = NewServer(Config{Workers: 2}, testModels())
	}
	per := (liveHeap() - before) / n
	for _, s := range srvs {
		s.Shutdown()
	}
	t.Logf("an idle server retains %d bytes", per)
	if per > footprintLimit {
		t.Fatalf("an idle server retains %d bytes, want under %d", per, footprintLimit)
	}
}

// TestSessionFootprint pins what a default UNGM session holds between
// rounds: its random blocks are stream positions rather than words, and
// its round scratch lives in the device's shared work-group arenas. A
// warm-up session first grows the shared arenas, so the mean over the
// later sessions is theirs alone.
func TestSessionFootprint(t *testing.T) {
	const n = 8
	srv := NewServer(Config{Workers: 2}, testModels())
	defer srv.Shutdown()
	ctx := context.Background()
	step := func() string {
		t.Helper()
		id, err := srv.Create(FilterSpec{Model: "ungm", Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.StepCtx(ctx, id, nil, []float64{1.5}); err != nil {
			t.Fatal(err)
		}
		return id
	}
	step()
	before := liveHeap()
	for i := 0; i < n; i++ {
		step()
	}
	per := (liveHeap() - before) / n
	t.Logf("a stepped 16x64 UNGM session retains %d bytes", per)
	if per > footprintLimit {
		t.Fatalf("a stepped 16x64 UNGM session retains %d bytes, want under %d", per, footprintLimit)
	}
}

// TestCheckpointFootprint pins the size of a stepped default UNGM
// session's checkpoint, the unit a fleet keeps and moves: the router
// holds one per route and a replica's agent one per recent export. Its
// random streams are saved as positions, about 23 words each, so the
// particles and log-weights are most of it. The decoded copies are
// what those holders retain.
func TestCheckpointFootprint(t *testing.T) {
	const (
		jsonLimit    = 32 << 10
		decodedLimit = 40 << 10
		n            = 8
	)
	srv := NewServer(Config{Workers: 2}, testModels())
	defer srv.Shutdown()
	id, err := srv.Create(FilterSpec{Model: "ungm", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.StepCtx(context.Background(), id, nil, []float64{1.5}); err != nil {
		t.Fatal(err)
	}
	cp, err := srv.Checkpoint(id)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	copies := make([]*Checkpoint, n)
	before := liveHeap()
	for i := range copies {
		copies[i] = new(Checkpoint)
		if err := json.Unmarshal(blob, copies[i]); err != nil {
			t.Fatal(err)
		}
	}
	per := (liveHeap() - before) / n
	runtime.KeepAlive(copies)
	t.Logf("a stepped 16x64 UNGM checkpoint is %d bytes of JSON and retains %d bytes decoded", len(blob), per)
	if len(blob) > jsonLimit {
		t.Errorf("checkpoint JSON is %d bytes, want at most %d", len(blob), jsonLimit)
	}
	if per > decodedLimit {
		t.Errorf("a decoded checkpoint retains %d bytes, want at most %d", per, decodedLimit)
	}
}
