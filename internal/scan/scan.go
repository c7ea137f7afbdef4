// Package scan provides prefix-sum and reduction primitives in both
// sequential and barrier-phased data-parallel form.
//
// The paper's RWS resampling kernel initializes by computing an array of
// cumulative weight sums with a work-efficient parallel prefix sum
// ("we use a bank-conflict avoiding implementation", §VI-F, citing Harris
// et al., GPU Gems 3 ch. 39), and the global-estimate kernel is a parallel
// reduction (§VI-D). The barrier-phased forms are the methods of Plan,
// written once against device.Ctx; ExclusiveSum, InclusiveSum and Sum are
// the sequential references.
package scan

import (
	"math"

	"esthera/internal/device"
)

// ExclusiveSum writes into dst the exclusive prefix sums of src:
// dst[i] = src[0] + ... + src[i-1], dst[0] = 0. dst and src may alias.
func ExclusiveSum(dst, src []float64) {
	sum := 0.0
	for i, v := range src {
		dst[i] = sum
		sum += v
	}
}

// InclusiveSum writes into dst the inclusive prefix sums of src:
// dst[i] = src[0] + ... + src[i]. dst and src may alias.
func InclusiveSum(dst, src []float64) {
	sum := 0.0
	for i, v := range src {
		sum += v
		dst[i] = sum
	}
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s
}

// nextPow2 returns the smallest power of two >= n (n >= 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Plan is a reusable execution context for the barrier-phased primitives:
// it pre-binds the lane closures once, so repeated Exclusive/MaxIndex
// calls on hot kernel paths allocate nothing (a closure created
// per call would escape through the device.Ctx interface to the heap).
//
// A Plan carries per-call mutable state and must not be shared between
// concurrently executing work-groups; create one per group context (the
// kernel pipeline keeps one per sub-filter).
type Plan struct {
	ctx   device.Ctx
	work  []float64
	val   []float64
	idx   []int
	keys  []float64
	n, p2 int

	sweep struct{ stride, dd, nodes int }
	red   struct{ s int }

	up, down, clear, initMax, reduceMax func(lo, hi int)
}

// NewPlan returns a Plan with its lane closures bound.
func NewPlan() *Plan {
	pl := &Plan{}
	pl.initMax = func(lo, hi int) {
		val, idx, keys := pl.val, pl.idx, pl.keys
		n, p := pl.n, pl.p2
		for i := 0; i < p; i++ {
			if i < n {
				val[i] = keys[i]
			} else {
				val[i] = math.Inf(-1)
			}
			idx[i] = i
		}
	}
	pl.up = func(lo, hi int) {
		work, st := pl.work, &pl.sweep
		for n := 0; n < st.nodes; n++ {
			i := (n+1)*st.stride - 1
			work[i] += work[i-st.dd]
		}
	}
	pl.down = func(lo, hi int) {
		work, st := pl.work, &pl.sweep
		for n := 0; n < st.nodes; n++ {
			i := (n+1)*st.stride - 1
			t := work[i-st.dd]
			work[i-st.dd] = work[i]
			work[i] += t
		}
	}
	pl.clear = func(lo, hi int) {
		pl.work[len(pl.work)-1] = 0
		pl.ctx.LocalWrite(8)
	}
	pl.reduceMax = func(lo, hi int) {
		val, idx, s := pl.val, pl.idx, pl.red.s
		for i := 0; i < s; i++ {
			a, b := i, i+s
			if val[b] > val[a] || (val[b] == val[a] && idx[b] < idx[a]) {
				val[a], idx[a] = val[b], idx[b]
			}
		}
	}
	return pl
}

// Exclusive performs an in-place exclusive prefix sum of buf using the
// Blelloch work-efficient algorithm in barrier-phased form. It returns the
// total sum of the original buf (which the scan itself discards but every
// caller needs, e.g. for weight normalization).
//
// Non-power-of-two lengths are handled by padding into a scratch buffer.
//
//esthera:hotpath noalloc bce
func (pl *Plan) Exclusive(ctx device.Ctx, buf []float64) float64 {
	n := len(buf)
	if n == 0 {
		return 0
	}
	p := nextPow2(n)
	work := buf
	if p != n {
		work = ctx.ScratchF64(p)
		copy(work, buf)
	}
	pl.ctx, pl.work = ctx, work
	total := pl.upDownSweep()
	if p != n {
		copy(buf, work[:n])
	}
	return total
}

// upDownSweep runs the Blelloch up-sweep/down-sweep on the power-of-two
// work buffer and returns the total. Each tree level runs as one StepSpan
// over all of its (disjoint) nodes, and the per-node cost accounting is
// flushed once per sweep. The visited-node counts are accumulated
// host-side between steps — a level visits exactly st.nodes nodes — so
// the lane closures write only their disjoint tree slots, as the barrier
// analyzer requires.
//
//esthera:hotpath noalloc bce
func (pl *Plan) upDownSweep() float64 {
	ctx, work := pl.ctx, pl.work
	p := len(work)
	st := &pl.sweep
	visited := 0
	for d := 1; d < p; d <<= 1 {
		st.stride, st.dd = d<<1, d
		st.nodes = p / st.stride
		ctx.StepSpan(pl.up)
		visited += st.nodes
	}
	ctx.Ops(visited)
	ctx.LocalRead(16 * visited)
	ctx.LocalWrite(8 * visited)
	total := work[p-1]
	ctx.StepSpan(pl.clear)
	visited = 0
	for d := p >> 1; d >= 1; d >>= 1 {
		st.stride, st.dd = d<<1, d
		st.nodes = p / st.stride
		ctx.StepSpan(pl.down)
		visited += st.nodes
	}
	ctx.Ops(visited)
	ctx.LocalRead(16 * visited)
	ctx.LocalWrite(16 * visited)
	return total
}

// MaxIndex performs a barrier-phased tree reduction over keys and returns
// the index of the maximum element (ties resolved to the lower index).
// This is the paper's global-estimate operator: select the particle with
// the highest weight (§IV, §VI-D). A level visits exactly stride pairs,
// so the node count is accumulated host-side. The reduction pads keys to
// a power of two with −Inf, which ties every padding lane with a real
// −Inf key and so loses to it on index: an all −Inf input returns 0.
//
//esthera:hotpath noalloc bce
func (pl *Plan) MaxIndex(ctx device.Ctx, keys []float64) int {
	n := len(keys)
	if n == 0 {
		return -1
	}
	p := nextPow2(n)
	val := ctx.ScratchF64(p)
	idx := ctx.ScratchInt(p)
	pl.ctx, pl.val, pl.idx, pl.keys = ctx, val, idx, keys
	pl.n, pl.p2 = n, p
	ctx.StepSpan(pl.initMax)
	ctx.LocalWrite(12 * p)
	visited := 0
	for stride := p >> 1; stride >= 1; stride >>= 1 {
		pl.red.s = stride
		ctx.StepSpan(pl.reduceMax)
		visited += stride
	}
	ctx.Ops(visited)
	ctx.LocalRead(24 * visited)
	ctx.LocalWrite(12 * visited)
	return idx[0]
}
