package exchange

import (
	"testing"
	"testing/quick"
)

func TestSchemeRoundTrip(t *testing.T) {
	for _, s := range []Scheme{None, AllToAll, Ring, Torus2D} {
		got, err := SchemeByName(s.String())
		if err != nil {
			t.Fatalf("SchemeByName(%q): %v", s.String(), err)
		}
		if got != s {
			t.Fatalf("round trip %v -> %v", s, got)
		}
	}
	// The retired schemes and aliases are unknown names, not synonyms.
	for _, name := range []string{"bogus", "hypercube", "cube", "random-pairs", "random", "gossip", "alltoall", "a2a", "torus2d", "2d-torus"} {
		if _, err := SchemeByName(name); err == nil {
			t.Fatalf("SchemeByName(%q) must error", name)
		}
	}
	if s := Scheme(99).String(); s == "" {
		t.Fatal("unknown scheme must still stringify")
	}
}

func TestNewTopologyValidation(t *testing.T) {
	if _, err := NewTopology(Ring, 0); err == nil {
		t.Fatal("size 0 must error")
	}
}

func TestRingNeighbors(t *testing.T) {
	top, _ := NewTopology(Ring, 5)
	got := top.Neighbors(nil, 0)
	want := map[int]bool{4: true, 1: true}
	if len(got) != 2 || !want[got[0]] || !want[got[1]] {
		t.Fatalf("ring neighbors of 0 = %v", got)
	}
	// Size 2: single mutual neighbor, no duplicates.
	top2, _ := NewTopology(Ring, 2)
	if got := top2.Neighbors(nil, 0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("2-ring neighbors of 0 = %v", got)
	}
	// Size 1: no neighbors.
	top1, _ := NewTopology(Ring, 1)
	if got := top1.Neighbors(nil, 0); len(got) != 0 {
		t.Fatalf("1-ring neighbors = %v", got)
	}
}

func TestTorusFactorization(t *testing.T) {
	cases := []struct{ n, rows, cols int }{
		{16, 4, 4}, {64, 8, 8}, {12, 3, 4}, {100, 10, 10}, {2, 1, 2}, {7, 1, 7},
	}
	for _, c := range cases {
		top, _ := NewTopology(Torus2D, c.n)
		r, cc := top.GridDims()
		if r != c.rows || cc != c.cols {
			t.Errorf("n=%d: grid %dx%d, want %dx%d", c.n, r, cc, c.rows, c.cols)
		}
	}
}

func TestTorusNeighbors4x4(t *testing.T) {
	top, _ := NewTopology(Torus2D, 16)
	got := top.Neighbors(nil, 5) // row 1, col 1
	want := map[int]bool{1: true, 9: true, 4: true, 6: true}
	if len(got) != 4 {
		t.Fatalf("torus neighbors of 5 = %v", got)
	}
	for _, n := range got {
		if !want[n] {
			t.Fatalf("unexpected neighbor %d in %v", n, got)
		}
	}
	// Wraparound corner.
	got0 := top.Neighbors(nil, 0)
	want0 := map[int]bool{12: true, 4: true, 3: true, 1: true}
	for _, n := range got0 {
		if !want0[n] {
			t.Fatalf("corner wraparound wrong: %v", got0)
		}
	}
}

func TestNoneAndAllToAllHaveNoPairwiseNeighbors(t *testing.T) {
	for _, s := range []Scheme{None, AllToAll} {
		top, _ := NewTopology(s, 10)
		if got := top.Neighbors(nil, 3); len(got) != 0 {
			t.Fatalf("%v must have no pairwise neighbors, got %v", s, got)
		}
		if top.MaxDegree() != 0 {
			t.Fatalf("%v degree must be 0", s)
		}
	}
}

func TestNeighborsOutOfRangePanics(t *testing.T) {
	top, _ := NewTopology(Ring, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	top.Neighbors(nil, 4)
}

// Property: neighbor relations are symmetric for all pairwise schemes and
// never include self.
func TestQuickNeighborSymmetry(t *testing.T) {
	f := func(rawN uint8, rawI uint8, schemeSel uint8) bool {
		n := int(rawN)%63 + 2
		scheme := []Scheme{Ring, Torus2D}[int(schemeSel)%2]
		top, err := NewTopology(scheme, n)
		if err != nil {
			return false
		}
		i := int(rawI) % n
		for _, j := range top.Neighbors(nil, i) {
			if j == i {
				return false // self loop
			}
			back := top.Neighbors(nil, j)
			found := false
			for _, k := range back {
				if k == i {
					found = true
				}
			}
			if !found {
				return false // asymmetric
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxDegreeRing(t *testing.T) {
	for _, c := range []struct{ n, want int }{{1, 0}, {2, 1}, {3, 2}, {100, 2}} {
		top, _ := NewTopology(Ring, c.n)
		if got := top.MaxDegree(); got != c.want {
			t.Errorf("ring-%d degree = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestDirections(t *testing.T) {
	cases := []struct {
		scheme Scheme
		n      int
		want   int
	}{
		{Ring, 8, 2}, {Ring, 2, 2}, {Ring, 1, 0},
		{Torus2D, 16, 4}, {Torus2D, 2, 4},
		{None, 8, 0}, {AllToAll, 8, 0},
	}
	for _, c := range cases {
		top, err := NewTopology(c.scheme, c.n)
		if err != nil {
			t.Fatal(err)
		}
		if got := top.Directions(); got != c.want {
			t.Errorf("%v-%d directions = %d, want %d", c.scheme, c.n, got, c.want)
		}
	}
}

func TestWalkRing(t *testing.T) {
	top, _ := NewTopology(Ring, 5)
	if got := top.Walk(0, 0); got != 4 {
		t.Fatalf("ring walk back from 0 = %d, want 4", got)
	}
	if got := top.Walk(0, 1); got != 1 {
		t.Fatalf("ring walk forward from 0 = %d, want 1", got)
	}
	// Walking one direction traverses the full cycle back to the start.
	j, hops := top.Walk(2, 1), 1
	for ; j != 2; j = top.Walk(j, 1) {
		hops++
	}
	if hops != 5 {
		t.Fatalf("ring cycle length %d, want 5", hops)
	}
}

func TestWalkTorus(t *testing.T) {
	top, _ := NewTopology(Torus2D, 16) // 4×4
	// Sub-filter 5 is row 1, col 1.
	want := []int{1, 9, 4, 6} // up, down, left, right
	for dir, w := range want {
		if got := top.Walk(5, dir); got != w {
			t.Errorf("torus walk(5, %d) = %d, want %d", dir, got, w)
		}
	}
	// Degenerate 1×2 grid: the vertical axis steps to self.
	deg, _ := NewTopology(Torus2D, 2)
	if got := deg.Walk(0, 0); got != 0 {
		t.Fatalf("1×2 torus vertical walk = %d, want self", got)
	}
}

func TestRouteLive(t *testing.T) {
	top, _ := NewTopology(Ring, 6)
	allLive := func(int) bool { return true }
	// Fully live: routing is exactly the immediate neighbor.
	for i := 0; i < 6; i++ {
		for dir := 0; dir < top.Directions(); dir++ {
			if got, want := top.RouteLive(i, dir, allLive), top.Walk(i, dir); got != want {
				t.Fatalf("all-live route(%d,%d) = %d, want neighbor %d", i, dir, got, want)
			}
		}
	}
	// Dead immediate neighbor: skip to the next live one in the same
	// direction, deterministically.
	dead := map[int]bool{5: true, 4: true}
	live := func(j int) bool { return !dead[j] }
	if got := top.RouteLive(0, 0, live); got != 3 {
		t.Fatalf("route around dead 5,4 = %d, want 3", got)
	}
	// All other sub-filters dead: no live sender, -1.
	only := func(j int) bool { return false }
	if got := top.RouteLive(0, 1, only); got != -1 {
		t.Fatalf("route with no live sender = %d, want -1", got)
	}
	// Degenerate torus axis: no sender on a length-1 cycle.
	deg, _ := NewTopology(Torus2D, 3) // 1×3
	if got := deg.RouteLive(1, 0, allLive); got != -1 {
		t.Fatalf("degenerate torus axis route = %d, want -1", got)
	}
	if got := deg.RouteLive(1, 3, allLive); got != 2 {
		t.Fatalf("1×3 torus right route = %d, want 2", got)
	}
}

func TestWalkOutOfRangePanics(t *testing.T) {
	top, _ := NewTopology(Ring, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	top.Walk(0, 2)
}
