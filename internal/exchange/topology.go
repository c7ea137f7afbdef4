// Package exchange implements the particle-exchange topologies of the
// distributed filter.
//
// After each round, every sub-filter sends its best t particles to its
// neighbors under an exchange scheme (§IV, §VI-E, Fig. 1):
//
//   - All-to-All: every sub-filter contributes t particles to a shared
//     pool; all read back the same t best of the pool. Cheap on shared
//     memory but, as Fig. 6 shows, the worst for accuracy — the same
//     particles flood every sub-filter and diversity collapses.
//   - Ring: sub-filter i exchanges with i±1 (mod N).
//   - 2D Torus: sub-filters form a rows×cols grid with wraparound;
//     4 neighbors each. Better for large networks (Fig. 6c).
//
// Incoming particles replace the receiver's worst-weighted slots, which
// is why sub-filters sort by weight before exchanging (§VI-C).
package exchange

import "fmt"

// Scheme identifies an exchange topology.
type Scheme int

// The supported schemes.
const (
	None Scheme = iota // no exchange (t = 0 or isolated sub-filters)
	AllToAll
	Ring
	Torus2D
)

// String returns the scheme name.
func (s Scheme) String() string {
	switch s {
	case None:
		return "none"
	case AllToAll:
		return "all-to-all"
	case Ring:
		return "ring"
	case Torus2D:
		return "torus"
	}
	return fmt.Sprintf("scheme(%d)", int(s))
}

// SchemeByName parses a scheme name: exactly the names String returns.
func SchemeByName(name string) (Scheme, error) {
	for s := None; s <= Torus2D; s++ {
		if name == s.String() {
			return s, nil
		}
	}
	return None, fmt.Errorf("exchange: unknown scheme %q (none, ring, torus, all-to-all)", name)
}

// Topology is an instantiated exchange graph over n sub-filters.
type Topology struct {
	scheme     Scheme
	n          int
	rows, cols int // torus factorization
}

// NewTopology builds the topology for scheme over n sub-filters.
// Torus2D factorizes n into the most-square rows×cols grid (n must not be
// prime > 3 for a non-degenerate grid, but any n works — a 1×n grid
// degenerates to a ring).
func NewTopology(scheme Scheme, n int) (*Topology, error) {
	if n <= 0 {
		return nil, fmt.Errorf("exchange: non-positive network size %d", n)
	}
	t := &Topology{scheme: scheme, n: n}
	if scheme == Torus2D {
		t.rows, t.cols = squarestFactors(n)
	}
	return t, nil
}

// Scheme returns the topology's scheme.
func (t *Topology) Scheme() Scheme { return t.scheme }

// Size returns the number of sub-filters.
func (t *Topology) Size() int { return t.n }

// GridDims returns the torus factorization (0,0 for other schemes).
func (t *Topology) GridDims() (rows, cols int) { return t.rows, t.cols }

// Neighbors appends the neighbor ids of sub-filter i to dst and returns
// it. For AllToAll it returns nil: the pool pattern is handled specially
// by the exchange kernels (neighbors are not pairwise).
func (t *Topology) Neighbors(dst []int, i int) []int {
	if i < 0 || i >= t.n {
		panic(fmt.Sprintf("exchange: sub-filter %d out of range [0,%d)", i, t.n))
	}
	switch t.scheme {
	case None, AllToAll:
		// All-to-All uses the shared pool.
		return dst
	case Ring:
		if t.n == 1 {
			return dst
		}
		prev := (i - 1 + t.n) % t.n
		next := (i + 1) % t.n
		dst = append(dst, prev)
		if next != prev {
			dst = append(dst, next)
		}
		return dst
	case Torus2D:
		r, c := i/t.cols, i%t.cols
		seen := map[int]bool{i: true}
		add := func(rr, cc int) []int {
			j := ((rr+t.rows)%t.rows)*t.cols + (cc+t.cols)%t.cols
			if !seen[j] {
				seen[j] = true
				dst = append(dst, j)
			}
			return dst
		}
		dst = add(r-1, c)
		dst = add(r+1, c)
		dst = add(r, c-1)
		dst = add(r, c+1)
		return dst
	}
	return dst
}

// MaxDegree returns the maximum neighbor count over all sub-filters,
// useful for sizing exchange buffers.
func (t *Topology) MaxDegree() int {
	switch t.scheme {
	case None, AllToAll:
		return 0
	case Ring:
		if t.n <= 2 {
			return t.n - 1
		}
		return 2
	case Torus2D:
		d := 0
		var buf []int
		for i := 0; i < t.n; i++ {
			buf = t.Neighbors(buf[:0], i)
			if len(buf) > d {
				d = len(buf)
			}
		}
		return d
	}
	return 0
}

// Directions returns the number of directed exchange lanes per
// sub-filter for the pairwise grid schemes: 2 for Ring (previous, next)
// and 4 for Torus2D (up, down, left, right). Directed lanes underlie
// degraded-mode rerouting (see RouteLive): a receiver that cannot pull
// from its immediate neighbor in a direction keeps walking that
// direction until it finds a live sender. Schemes without a directional
// structure (None, AllToAll) report 0, as does a single-sub-filter
// network.
func (t *Topology) Directions() int {
	if t.n <= 1 {
		return 0
	}
	switch t.scheme {
	case Ring:
		return 2
	case Torus2D:
		return 4
	}
	return 0
}

// Walk returns the sub-filter one hop from i along direction dir
// (0 ≤ dir < Directions()). Walking a direction repeatedly traverses a
// closed cycle back to i: the whole ring, or one torus row/column. A
// degenerate torus axis of length 1 steps to i itself.
func (t *Topology) Walk(i, dir int) int {
	if i < 0 || i >= t.n {
		panic(fmt.Sprintf("exchange: sub-filter %d out of range [0,%d)", i, t.n))
	}
	if dir < 0 || dir >= t.Directions() {
		panic(fmt.Sprintf("exchange: direction %d out of range [0,%d)", dir, t.Directions()))
	}
	switch t.scheme {
	case Ring:
		if dir == 0 {
			return (i - 1 + t.n) % t.n
		}
		return (i + 1) % t.n
	case Torus2D:
		r, c := i/t.cols, i%t.cols
		switch dir {
		case 0:
			r = (r - 1 + t.rows) % t.rows
		case 1:
			r = (r + 1) % t.rows
		case 2:
			c = (c - 1 + t.cols) % t.cols
		default:
			c = (c + 1) % t.cols
		}
		return r*t.cols + c
	}
	panic(fmt.Sprintf("exchange: scheme %v has no directions", t.scheme))
}

// RouteLive returns the first live sub-filter along direction dir from
// i, skipping dead senders deterministically: it walks the direction's
// cycle hop by hop and stops at the first j with live(j). When the walk
// returns to i without finding a live sender — every other sub-filter on
// the cycle is dead, or the axis is degenerate — it returns -1 and the
// caller keeps its native particles for that lane. With every sender
// live, RouteLive(i, dir) is exactly the immediate neighbor Walk(i, dir),
// so the no-fault path is unchanged by routing through this helper.
func (t *Topology) RouteLive(i, dir int, live func(int) bool) int {
	for j := t.Walk(i, dir); j != i; j = t.Walk(j, dir) {
		if live(j) {
			return j
		}
	}
	return -1
}

// squarestFactors returns (rows, cols) with rows*cols == n and rows the
// largest divisor of n not exceeding √n.
func squarestFactors(n int) (rows, cols int) {
	rows = 1
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			rows = d
		}
	}
	return rows, n / rows
}
