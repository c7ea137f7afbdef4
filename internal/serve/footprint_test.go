package serve

import (
	"context"
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
