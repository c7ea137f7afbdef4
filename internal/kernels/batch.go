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

// Batcher runs one filtering round for many pipelines at once: the
// fused round of Pipeline.RoundFused over the concatenated grid of all
// of them. This is the mechanism the serve scheduler uses to keep a
// shared device saturated: B sessions of N sub-filters each share two
// launches of B·N work-groups, with only each pipeline's one-group
// reductions between them, so a batch costs 2 + B launches (2 + 2B for
// all-to-all) instead of a set per session.
//
// Its scratch — the per-group-size partitions, the merged group tables,
// and the launch closures — persists across rounds, so a steady-state
// round performs no heap allocations. It keeps no reference to a
// pipeline or batch entry after Round returns, so a closed session is
// collectable. The serve scheduler holds one Batcher per device for the
// lifetime of the server.
//
// A Batcher is not safe for concurrent use; like the pipelines it
// steps, it belongs to a single scheduling goroutine.
type Batcher struct {
	dev   *device.Device
	round int // current round stamp (see Pipeline.batchRound)
	parts map[int]*mergedPart
	live  []*mergedPart // parts used this round, in first-seen order
}

// mergedPart is one fused round over pipelines sharing a work-group
// size: the entries, their flattened group table, the two launch
// bodies (built once, reading the current tables through the part
// pointer), and the current round's launch-wide phase layout. A Batcher
// keeps one per group size; every Pipeline keeps a one-entry part for
// RoundFused.
type mergedPart struct {
	entries     []*BatchRound
	groups      []batchSlot
	local, tail device.KernelFunc
	mean, exch  bool // tailPhases layout of the current round
}

// batchSlot maps one merged work-group to (entry index, local sub-filter).
type batchSlot struct{ e, s int }

// NewBatcher returns a Batcher for pipelines living on dev.
func NewBatcher(dev *device.Device) *Batcher {
	return &Batcher{dev: dev, parts: make(map[int]*mergedPart)}
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
	for _, e := range batch {
		if e == nil || e.P == nil {
			return fmt.Errorf("kernels: nil batch entry")
		}
		if e.P.dev != b.dev {
			return fmt.Errorf("kernels: batched pipeline lives on a different device")
		}
		if e.P.batcher == b && e.P.batchRound == b.round {
			return fmt.Errorf("kernels: pipeline appears twice in one batch")
		}
		e.P.batcher, e.P.batchRound = b, b.round
	}
	defer b.release()
	for _, e := range batch {
		m := e.P.cfg.ParticlesPer
		p := b.parts[m]
		if p == nil {
			// Amortized: a merged part is built once per distinct group
			// size, then reused; the steady state reruns existing parts.
			//esthera:allow noalloc merged-part construction is the amortized grow path, not steady state
			p = newMergedPart()
			b.parts[m] = p
		}
		if len(p.entries) == 0 {
			//esthera:allow noalloc live is cut to [:0] each round; its capacity settles at the distinct group sizes
			b.live = append(b.live, p)
		}
		//esthera:allow noalloc entries is cut to [:0] each round; its capacity settles at the largest batch
		p.entries = append(p.entries, e)
	}
	for _, p := range b.live {
		p.run(b.dev)
	}
	return nil
}

// release empties the round's parts, dropping their entry pointers, so
// the Batcher holds no pipeline between rounds. It runs even when a
// kernel panics.
func (b *Batcher) release() {
	for _, p := range b.live {
		clear(p.entries)
		p.entries = p.entries[:0]
	}
	b.live = b.live[:0]
}

// newMergedPart builds a partition with its two launch bodies. The
// closures are allocated here, once, and index the part's current
// tables on every launch.
func newMergedPart() *mergedPart {
	p := &mergedPart{}
	p.local = func(g *device.Group) {
		sl := p.groups[g.ID()]
		e := p.entries[sl.e]
		e.P.fusedGroup(g, sl.s, e.U, e.Z, e.K)
	}
	p.tail = func(g *device.Group) {
		sl := p.groups[g.ID()]
		p.entries[sl.e].P.tailGroup(g, sl.s, p.mean, p.exch)
	}
	return p
}

// run executes one fused round for the part's pipelines, all sharing
// one work-group size: the first shared launch (fusedGroup), each
// pipeline's one-group launches in entry order (the global estimate's
// head reduction, all-to-all's pool sort; a one-group launch wakes no
// device helper), the second shared launch (tailGroup), then each
// pipeline's host-side estimate combine and buffer swap.
//
//esthera:hotpath noalloc bce
func (p *mergedPart) run(dev *device.Device) {
	p.groups = p.groups[:0]
	p.exch = false
	for i, e := range p.entries {
		for s := 0; s < e.P.cfg.SubFilters; s++ {
			//esthera:allow noalloc groups is cut to [:0] each round; its capacity settles at the largest merged grid
			p.groups = append(p.groups, batchSlot{e: i, s: s})
		}
		p.exch = p.exch || e.P.exch
	}
	grid := device.Grid{Groups: len(p.groups), GroupSize: p.entries[0].P.cfg.ParticlesPer}

	dev.LaunchFused(localPhases[b2i(p.exch)], grid, p.local)
	// No buffer swap: each pipeline's fused body chains cur → nxt → cur.

	p.mean = false
	for _, e := range p.entries {
		e.P.estimateHeads()
		e.P.exchangeSelect()
		p.mean = p.mean || e.P.meanDue
	}

	dev.LaunchFused(tailPhases[b2i(p.mean)][b2i(p.exch)], grid, p.tail)
	for _, e := range p.entries {
		state, lw := e.P.estimateOut()
		// The estimate buffer is pipeline-owned and reused next round;
		// the batch entry outlives it, so copy.
		//esthera:allow noalloc the caller's State buffer is reused; it grows once to the state dimension
		e.State = append(e.State[:0], state...)
		e.LogW = lw
		e.P.cur, e.P.nxt = e.P.nxt, e.P.cur
	}
}

// b2i indexes the phase tables by a flag.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
