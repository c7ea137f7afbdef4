package kernels

import (
	"fmt"

	"esthera/internal/device"
)

// BatchRound couples one pipeline with the inputs of one filtering round.
// After Batcher.Round returns, State and LogW hold the round's global
// estimate (the same values Pipeline.Round would have returned).
type BatchRound struct {
	P *Pipeline
	// U, Z, K are the round inputs: control, measurement, step index.
	U, Z []float64
	K    int

	// State and LogW are the outputs.
	State []float64
	LogW  float64
}

// Batcher runs one filtering round for many pipelines at once,
// coalescing the per-sub-filter kernels (rand, sampling, local sort,
// resampling) of all of them into shared launches on dev. This is the
// mechanism the serve scheduler uses to keep a shared device saturated:
// B sessions of N sub-filters each become launches of B·N work-groups,
// so the device's workers drain one large grid instead of B small ones
// with B launch barriers per kernel. The group-local kernels
// additionally run fused (see Pipeline.RoundFused), so one round of B
// sessions costs a single shared launch for rand+sampling+local sort
// plus one shared resampling launch, instead of 4·B.
//
// The estimate and exchange kernels involve pipeline-global reductions
// (a single-group reduction launch, and topology-dependent neighbor
// pulls), so they remain per-pipeline launches between the shared ones.
//
// Its scratch — the duplicate-detection map, the per-group-size
// partitions, the merged group tables, and the launch closures —
// persists across rounds, so a steady-state round performs no heap
// allocations. The serve scheduler holds one Batcher per device for
// the lifetime of the server.
//
// A Batcher is not safe for concurrent use; like the pipelines it
// steps, it belongs to a single scheduling goroutine.
type Batcher struct {
	dev   *device.Device
	round int               // current round stamp
	seen  map[*Pipeline]int // round at which each pipeline was last batched
	parts map[int]*mergedPart
	live  []*mergedPart // parts used this round, in first-seen order
}

// mergedPart is the reusable per-group-size partition: the entries
// sharing one work-group size, their flattened group table, and the two
// launch bodies (built once, reading the current tables through the
// part pointer).
type mergedPart struct {
	round    int
	entries  []*BatchRound
	groups   []batchSlot
	fused    func(g *device.Group)
	resample func(g *device.Group)
}

// batchSlot maps one merged work-group to (entry index, local sub-filter).
type batchSlot struct{ e, s int }

// NewBatcher returns a Batcher for pipelines living on dev.
func NewBatcher(dev *device.Device) *Batcher {
	return &Batcher{
		dev:   dev,
		seen:  make(map[*Pipeline]int),
		parts: make(map[int]*mergedPart),
	}
}

// Round runs one filtering round for every entry. Every pipeline must
// have been created on the Batcher's device. Pipelines with different
// work-group sizes (ParticlesPer) cannot share a grid; Round partitions
// the batch by group size and merges within each partition. A pipeline
// must appear at most once per batch (a session's steps are ordered;
// coalescing two rounds of the same filter would reorder its kernels).
// A failed validation leaves every pipeline unstepped.
//
//esthera:hotpath noalloc bce
func (b *Batcher) Round(batch []*BatchRound) error {
	if len(batch) == 0 {
		return nil
	}
	b.round++
	b.live = b.live[:0]
	for _, e := range batch {
		if e == nil || e.P == nil {
			return fmt.Errorf("kernels: nil batch entry")
		}
		if e.P.dev != b.dev {
			return fmt.Errorf("kernels: batched pipeline lives on a different device")
		}
		if b.seen[e.P] == b.round {
			return fmt.Errorf("kernels: pipeline appears twice in one batch")
		}
		b.seen[e.P] = b.round
		m := e.P.groupLanes()
		p := b.parts[m]
		if p == nil {
			// Amortized: a merged part is built once per distinct group
			// size, then reused; the steady state reruns existing parts.
			//esthera:allow noalloc merged-part construction is the amortized grow path, not steady state
			p = newMergedPart()
			b.parts[m] = p
		}
		if p.round != b.round {
			p.round = b.round
			p.entries = p.entries[:0]
			b.live = append(b.live, p)
		}
		p.entries = append(p.entries, e)
	}
	for _, p := range b.live {
		p.run(b.dev)
	}
	return nil
}

// newMergedPart builds a partition with its two launch bodies. The
// closures are allocated here, once, and index the part's current
// tables on every launch.
func newMergedPart() *mergedPart {
	p := &mergedPart{}
	p.fused = func(g *device.Group) {
		sl := p.groups[g.ID()]
		e := p.entries[sl.e]
		e.P.fusedGroup(g, sl.s, e.U, e.Z, e.K)
	}
	p.resample = func(g *device.Group) {
		sl := p.groups[g.ID()]
		p.entries[sl.e].P.resampleGroup(g, sl.s)
	}
	return p
}

// run executes one round for the partition's pipelines, all sharing one
// work-group size. The three group-local kernels (rand, sampling, local
// sort) of all pipelines run as one merged *fused* launch — the batched
// serving path compounds both optimizations: B·N work-groups share a
// single grid (one launch instead of B), and the grid runs one fused
// body instead of three barrier-separated kernels (one launch instead
// of 3·B).
//
//esthera:hotpath noalloc bce
func (p *mergedPart) run(dev *device.Device) {
	p.groups = p.groups[:0]
	for i, e := range p.entries {
		for s := 0; s < e.P.cfg.SubFilters; s++ {
			p.groups = append(p.groups, batchSlot{e: i, s: s})
		}
	}
	grid := device.Grid{Groups: len(p.groups), GroupSize: p.entries[0].P.groupLanes()}

	dev.LaunchFused(fusedPhases, grid, p.fused)
	// No buffer swaps: each pipeline's fused body chains x → x2 → x.

	// Global estimate and particle exchange reduce across a pipeline's
	// whole sub-filter network; they stay per-pipeline.
	for _, e := range p.entries {
		state, lw := e.P.KernelEstimate()
		// The estimate buffer is pipeline-owned and reused next round;
		// the batch entry outlives it, so copy.
		e.State = append(e.State[:0], state...)
		e.LogW = lw
		e.P.KernelExchange()
	}

	dev.Launch("resampling", grid, p.resample)
	for _, e := range p.entries {
		e.P.cur, e.P.nxt = e.P.nxt, e.P.cur
	}
}
