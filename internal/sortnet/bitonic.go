// Package sortnet provides sorting-network primitives in barrier-phased
// data-parallel form.
//
// Each sub-filter sorts its particles by weight every round (§VI-C). The
// paper uses a bitonic sort — a fixed sequence of parallel
// compare-exchanges, O(n log² n) comparisons — keeping only the weights
// and an index array in local memory and applying the resulting
// permutation to the particle payload in global memory afterwards
// (preferring non-contiguous reads over non-contiguous writes). This
// package implements exactly that: the network operates on a
// (keys, index) pair; payload permutation lives in the kernels.
package sortnet

import (
	"math"
	"sort"

	"esthera/internal/device"
)

// nextPow2 returns the smallest power of two >= n (n >= 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// KeyImage returns the order-preserving integer image of f: for non-NaN
// a, b, a < b ⇔ KeyImage(a) < KeyImage(b) and a == b ⇔ KeyImage(a) ==
// KeyImage(b). Kernels use it to replace hot float comparisons (sort
// networks, cdf binary searches) with integer ones, which compile to
// branchless flag materialization instead of mispredict-prone jumps.
//
//esthera:hotpath noalloc bce
func KeyImage(f float64) int {
	f += 0 // -0.0 + 0 = +0.0; every other value is unchanged
	b := int64(math.Float64bits(f))
	return int(b ^ int64(uint64(b>>63)>>1))
}

// KeyImages fills dst with KeyImage of each element of src. The bitonic
// network runs on these images, so each compare-exchange is an integer
// comparison the compiler lowers to flag materialization and masked
// selects instead of a data-dependent branch (the branch predictor has a
// ~50% miss rate on sort comparisons, and each miss costs more than the
// whole exchange).
//
//esthera:hotpath noalloc bce
func KeyImages(dst []int, src []float64) {
	dst = dst[:len(src)]
	for i, f := range src {
		f += 0
		b := int64(math.Float64bits(f))
		dst[i] = int(b ^ int64(uint64(b>>63)>>1))
	}
}

// sortKeysFloat inverts KeyImages, writing the float keys for the images
// in iks back into keys (the transform preserves the sign bit, so it is
// its own inverse).
func sortKeysFloat(keys []float64, iks []int) {
	keys = keys[:len(iks)]
	for i, k := range iks {
		b := int64(k)
		b ^= int64(uint64(b>>63) >> 1)
		keys[i] = math.Float64frombits(uint64(b))
	}
}

// Net is a reusable execution context for the bitonic network: it
// pre-binds the compare-exchange closure once, so repeated SortDescending
// calls on hot kernel paths allocate nothing (a closure created per call
// would escape through the device.Ctx interface to the heap).
//
// A Net carries per-call mutable state and must not be shared between
// concurrently executing work-groups; create one per group context (the
// kernel pipeline keeps one per sub-filter).
type Net struct {
	keys      []int // integer sort-key images (see KeyImages)
	idx       []int
	laneSwaps []int
	st        struct{ k, j int }
	step      func(lo, hi int)
}

// NewNet returns a Net with its compare-exchange closure bound.
//
// The closure walks the stage's pairs directly instead of scanning all p
// lanes and skipping the upper partners: a stage's pairs are (i, i+j)
// for every i whose j bit is clear, i.e. runs of j consecutive lanes
// every 2j lanes. The sort direction bit (i & k) is constant within a
// run (all of off < j's bits sit below bit log2(k)), so it hoists out of
// the inner loop. Each compare-exchange is branchless: the swap flag is
// materialized from integer comparisons of the key images and applied as
// an XOR mask, so the loop body carries no data-dependent branches. The
// compare-exchange sequence — and therefore the resulting permutation
// and the data-dependent swap counts — is identical to the naive scan.
func NewNet() *Net {
	nt := &Net{}
	nt.step = func(lo, hi int) {
		keys, idx, laneSwaps := nt.keys, nt.idx, nt.laneSwaps
		k, j := nt.st.k, nt.st.j
		p := len(keys)
		j2 := j << 1
		for base := 0; base < p; base += j2 {
			desc := base&k == 0
			end := base + j
			if idx == nil {
				if desc {
					for i := base; i < end; i++ {
						a, b := keys[i], keys[i+j]
						s := 0
						if a < b {
							s = 1
						}
						x := (a ^ b) & -s
						keys[i], keys[i+j] = a^x, b^x
						laneSwaps[i] += s
					}
				} else {
					for i := base; i < end; i++ {
						a, b := keys[i], keys[i+j]
						s := 0
						if a > b {
							s = 1
						}
						x := (a ^ b) & -s
						keys[i], keys[i+j] = a^x, b^x
						laneSwaps[i] += s
					}
				}
				continue
			}
			if desc {
				for i := base; i < end; i++ {
					a, b := keys[i], keys[i+j]
					ia, ib := idx[i], idx[i+j]
					lt, eq, tb := 0, 0, 0
					if a < b {
						lt = 1
					}
					if a == b {
						eq = 1
					}
					if ia > ib {
						tb = 1
					}
					s := lt | eq&tb
					m := -s
					xk := (a ^ b) & m
					xi := (ia ^ ib) & m
					keys[i], keys[i+j] = a^xk, b^xk
					idx[i], idx[i+j] = ia^xi, ib^xi
					laneSwaps[i] += s
				}
			} else {
				for i := base; i < end; i++ {
					a, b := keys[i], keys[i+j]
					ia, ib := idx[i], idx[i+j]
					gt, eq, tb := 0, 0, 0
					if a > b {
						gt = 1
					}
					if a == b {
						eq = 1
					}
					if ia < ib {
						tb = 1
					}
					s := gt | eq&tb
					m := -s
					xk := (a ^ b) & m
					xi := (ia ^ ib) & m
					keys[i], keys[i+j] = a^xk, b^xk
					idx[i], idx[i+j] = ia^xi, ib^xi
					laneSwaps[i] += s
				}
			}
		}
	}
	return nt
}

// SortDescending sorts keys into descending order in place using a
// bitonic network, applying the identical permutation to idx. If idx is
// nil it is ignored; if present, equal keys are ordered by ascending idx
// (making the network stable with respect to the index array, and keeping
// padding sentinels out of the live region even when genuine -Inf keys
// are present). Non-power-of-two lengths are handled by padding with
// (-Inf, large-index) sentinels in a scratch buffer. NaN keys are not
// supported.
//
// The network is executed as barrier-phased steps on ctx; lanes cover the
// compare-exchange pairs in grid-stride fashion. A power-of-two sort of
// the identity index array (what the kernels pass) runs on one composite
// word per lane instead (sortComposite), with the same result, swaps and
// accounting.
//
//esthera:hotpath noalloc bce
func (nt *Net) SortDescending(ctx device.Ctx, keys []float64, idx []int) {
	n := len(keys)
	if n <= 1 {
		return
	}
	p := nextPow2(n)
	if p == n && idx != nil {
		if sorted, _ := nt.sortComposite(ctx, keys, idx); sorted {
			return
		}
	}
	ks := keys
	ix := idx
	if p != n {
		ks = ctx.ScratchF64(p)
		copy(ks, keys)
		for i := n; i < p; i++ {
			ks[i] = math.Inf(-1)
		}
		// Padding always carries an index array so sentinels lose ties
		// against genuine -Inf keys (their near-MaxInt indices sort last
		// regardless of the caller's index values).
		const maxInt = int(^uint(0) >> 1)
		ix = ctx.ScratchInt(p)
		if idx != nil {
			copy(ix, idx)
			for i := n; i < p; i++ {
				ix[i] = maxInt - (p - 1 - i)
			}
		} else {
			for i := 0; i < n; i++ {
				ix[i] = 0 // ties irrelevant without a caller index array
			}
			for i := n; i < p; i++ {
				ix[i] = 1
			}
		}
	}
	nt.bitonic(ctx, ks, ix)
	if p != n {
		copy(keys, ks[:n])
		if idx != nil {
			copy(idx, ix[:n])
		}
	}
}

// bitonic runs the classic bitonic network on a power-of-two buffer,
// producing descending order, on integer images of the keys (KeyImages)
// that are transformed back once after the last stage.
//
// The network executes 0.5·log²p barrier-phased steps, each one StepSpan
// over the stage's disjoint pairs, and the per-compare-exchange cost
// accounting is flushed once at the end. Pair counts are deterministic (a
// stage compares exactly p/2 pairs) and accumulate host-side; swap counts
// are data-dependent, so each lane tallies its own swaps in a
// lane-indexed scratch slot that the host sums after the barrier — no
// cross-lane writes in the closure.
//
//esthera:hotpath noalloc bce
func (nt *Net) bitonic(ctx device.Ctx, keys []float64, idx []int) {
	p := len(keys)
	iks := ctx.ScratchInt(p)
	KeyImages(iks, keys)
	nt.keys, nt.idx = iks, idx
	nt.laneSwaps = ctx.ScratchInt(p)
	stages := nt.network(ctx)
	sortKeysFloat(keys, iks)
	nt.account(ctx, stages)
}

// network runs the stages of the bitonic network over nt.keys (and
// nt.idx, when set) as barrier-phased steps on ctx and returns the stage
// count. With a nil ctx the stages run directly, charging nothing.
//
//esthera:hotpath noalloc bce
func (nt *Net) network(ctx device.Ctx) int {
	p := len(nt.keys)
	stages := 0
	for k := 2; k <= p; k <<= 1 {
		for j := k >> 1; j > 0; j >>= 1 {
			nt.st.k, nt.st.j = k, j
			if ctx != nil {
				ctx.StepSpan(nt.step)
			} else {
				nt.step(0, p)
			}
			stages++
		}
	}
	return stages
}

// account charges the network's cost to ctx once, after the last stage.
//
//esthera:hotpath noalloc bce
func (nt *Net) account(ctx device.Ctx, stages int) {
	pairs := stages * (len(nt.keys) / 2)
	swaps := 0
	for _, c := range nt.laneSwaps {
		swaps += c
	}
	// A compare-exchange costs the comparison plus the partner-index
	// arithmetic, predication and bank-conflict-prone local accesses
	// (~12 ops, keys and index array traffic); swaps write both entries
	// of both arrays back.
	ctx.Ops(12 * pairs)
	ctx.LocalRead(24 * pairs)
	ctx.LocalWrite(24 * swaps)
}

// sortComposite is SortDescending for a power-of-two length p when idx
// is the identity; it reports sorted false, having sorted nothing, when
// idx is not. Each lane's word is KeyImage(key) with its low log2(p) bits
// replaced by p-1-lane, and the words run through the keys-only
// network. The words are distinct, and a word that is larger is a
// larger key, or an equal key with a lower index, unless the two keys
// differ only in those low bits. Then every compare-exchange decides as
// the (key, index) network does, so the permutation and the per-lane
// swap tallies are the same, and the network costs one load, compare
// and store per side instead of two.
//
// Whether that held is read off the result: the (key, index) order is
// total, so the two networks agree exactly when the keys come out of
// the composite sort in descending order. When they do not, idx is
// reset and the (key, index) network reruns on the untouched keys, and
// reran reports it. The rerun charges no barrier, since the first pass
// already charged the network's stages.
//
//esthera:hotpath noalloc bce
func (nt *Net) sortComposite(ctx device.Ctx, keys []float64, idx []int) (sorted, reran bool) {
	p := len(keys)
	mask := p - 1
	words := ctx.ScratchInt(p)
	words = words[:p:p]
	idx = idx[:p:p]
	notIdentity := 0
	for i, f := range keys {
		notIdentity |= idx[i] ^ i
		words[i] = KeyImage(f)&^mask | (mask ^ i)
	}
	if notIdentity != 0 {
		return false, false
	}
	nt.keys, nt.idx = words, nil
	nt.laneSwaps = ctx.ScratchInt(p)
	stages := nt.network(ctx)
	prev := math.MaxInt
	for i, w := range words {
		ix := ^w & mask
		img := KeyImage(keys[ix])
		if img > prev {
			reran = true
		}
		prev = img
		idx[i] = ix
		words[i] = img
	}
	if reran {
		for i := range idx {
			idx[i] = i
		}
		KeyImages(words, keys)
		clear(nt.laneSwaps)
		nt.idx = idx
		nt.network(nil)
	}
	sortKeysFloat(keys, words)
	nt.account(ctx, stages)
	return true, reran
}

// ArgsortDescending returns the permutation that sorts keys descending,
// leaving keys untouched. It is the sequential reference used by the
// centralized filter and by tests validating the bitonic network. The
// sort is stable, so equal keys keep their original relative order.
func ArgsortDescending(keys []float64) []int {
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] > keys[idx[b]] })
	return idx
}

// TopK returns the indices of the k largest keys in descending key order,
// without sorting the rest (selection via partial heap). k is clamped to
// len(keys). It backs the "local maximum instead of full sort" variant
// the paper suggests as a cheaper alternative (§VI-C).
func TopK(keys []float64, k int) []int {
	n := len(keys)
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	// Min-heap of size k over (key, index).
	heapKeys := make([]float64, 0, k)
	heapIdx := make([]int, 0, k)
	less := func(a, b int) bool {
		if heapKeys[a] != heapKeys[b] {
			return heapKeys[a] < heapKeys[b]
		}
		return heapIdx[a] > heapIdx[b] // larger index = "smaller" for ties
	}
	down := func(i, n int) {
		for {
			l, r := 2*i+1, 2*i+2
			s := i
			if l < n && less(l, s) {
				s = l
			}
			if r < n && less(r, s) {
				s = r
			}
			if s == i {
				return
			}
			heapKeys[i], heapKeys[s] = heapKeys[s], heapKeys[i]
			heapIdx[i], heapIdx[s] = heapIdx[s], heapIdx[i]
			i = s
		}
	}
	up := func(i int) {
		for i > 0 {
			parent := (i - 1) / 2
			if !less(i, parent) {
				return
			}
			heapKeys[i], heapKeys[parent] = heapKeys[parent], heapKeys[i]
			heapIdx[i], heapIdx[parent] = heapIdx[parent], heapIdx[i]
			i = parent
		}
	}
	for i, v := range keys {
		if len(heapKeys) < k {
			heapKeys = append(heapKeys, v)
			heapIdx = append(heapIdx, i)
			up(len(heapKeys) - 1)
			continue
		}
		if v > heapKeys[0] {
			heapKeys[0], heapIdx[0] = v, i
			down(0, k)
		}
	}
	// Drain the heap into descending order.
	out := make([]int, k)
	for size := k; size > 0; size-- {
		out[size-1] = heapIdx[0]
		heapKeys[0], heapIdx[0] = heapKeys[size-1], heapIdx[size-1]
		heapKeys = heapKeys[:size-1]
		heapIdx = heapIdx[:size-1]
		down(0, size-1)
	}
	return out
}
