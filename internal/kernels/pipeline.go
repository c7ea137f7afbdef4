// Package kernels implements the six computational kernels of the
// paper's many-core distributed particle filter (§VI) on the device
// substrate:
//
//  1. Pseudo-random number generation  ("rand")
//  2. Sampling + importance weighting  ("sampling")
//  3. Local sorting                    ("local sort")
//  4. Global estimate                  ("global estimate")
//  5. Particle exchange                ("exchange")
//  6. Resampling                       ("resampling")
//
// One work-group processes one sub-filter and one lane one particle,
// exactly the paper's mapping ("each GPGPU thread processes one particle
// and each work group one sub-filter"). Particle state is stored in
// global memory as structure-of-arrays columns — dim contiguous
// per-dimension arrays — so the vectorized lane kernels (device.Ctx.
// StepVec + model.VecModel) stream unit-stride over each dimension; the
// paper's AoS-preference argument (§VI) is about PCIe transfer
// granularity, which does not apply to this host-resident substrate,
// and every external surface (exchange records, checkpoints, the
// Particles accessor) still speaks AoS, packed at the boundary. Weights
// and sort indices live in local memory during sorting; reorderings
// prefer non-contiguous reads over non-contiguous writes, as the paper
// prescribes.
package kernels

import (
	"fmt"
	"math"

	"esthera/internal/device"
	"esthera/internal/exchange"
	"esthera/internal/model"
	"esthera/internal/resample"
	"esthera/internal/rng"
	"esthera/internal/scan"
	"esthera/internal/sortnet"
	"esthera/internal/telemetry"
)

// Algo selects the resampling kernel (Fig. 5 compares the two).
type Algo int

// Resampling kernel algorithms.
const (
	// AlgoRWS is Roulette Wheel Selection: parallel prefix sum over the
	// local weights, then one binary search per lane.
	AlgoRWS Algo = iota
	// AlgoVose is Vose's alias method with the paper's in-place
	// small/large table construction.
	AlgoVose
	// AlgoSystematic is systematic resampling adapted to the lane model
	// (a toolkit extension beyond the paper's two): one shared uniform
	// offset, each lane binary-searches its own equally spaced pointer.
	// Fully parallel like RWS but with a single random draw per
	// sub-filter and minimal resampling variance.
	AlgoSystematic
)

// AlgoByName maps a flag-friendly name ("rws", "vose", "systematic"; ""
// defaults to rws) to a resampling kernel.
func AlgoByName(name string) (Algo, error) {
	switch name {
	case "", "rws":
		return AlgoRWS, nil
	case "vose":
		return AlgoVose, nil
	case "systematic":
		return AlgoSystematic, nil
	}
	return 0, fmt.Errorf("kernels: unknown resampler %q (rws, vose, systematic)", name)
}

// String returns the algorithm name.
func (a Algo) String() string {
	switch a {
	case AlgoVose:
		return "vose"
	case AlgoSystematic:
		return "systematic"
	}
	return "rws"
}

// Config parameterizes a Pipeline (the Table I parameters plus kernel
// choices).
type Config struct {
	SubFilters    int
	ParticlesPer  int
	ExchangeCount int
	Topology      *exchange.Topology
	Resampler     Algo
	// Policy defaults to Always; it is evaluated per sub-filter inside
	// the resampling kernel on the local weights, so no global reduction
	// is needed (the real-time property §III-A argues for).
	Policy resample.Policy
	// MeanEstimate switches the global-estimate kernel from the paper's
	// default max-weight particle to the weighted average (§VI-D: "the
	// reduction operator can compute the particle with the highest
	// weight, a weighted average, or any other associative operator").
	MeanEstimate bool
}

// soaBuf holds one generation of the particle population in
// structure-of-arrays layout: one contiguous arena of dim·N·m floats cut
// into dim columns of N·m rows each, plus per-sub-filter column views.
// Row i of column c is dimension c of particle i; sub[s][c] is column c
// restricted to sub-filter s's m rows. All views alias the arena, so
// packing/unpacking the AoS boundary format touches only the arena.
type soaBuf struct {
	arena []float64
	cols  [][]float64   // dim columns, each N·m rows
	sub   [][][]float64 // sub[s][c] = cols[c][s*m : (s+1)*m]
}

func newSoaBuf(dim, groups, m int) *soaBuf {
	nm := groups * m
	b := &soaBuf{
		arena: make([]float64, dim*nm),
		cols:  make([][]float64, dim),
		sub:   make([][][]float64, groups),
	}
	for c := range b.cols {
		b.cols[c] = b.arena[c*nm : (c+1)*nm : (c+1)*nm]
	}
	for s := range b.sub {
		b.sub[s] = make([][]float64, dim)
		for c := range b.cols {
			b.sub[s][c] = b.cols[c][s*m : (s+1)*m : (s+1)*m]
		}
	}
	return b
}

// Pipeline owns the device-resident state of a parallel distributed
// filter and launches the kernels. It is created by New and driven by
// Round; the filter layer (internal/filter.Parallel) wraps it.
//
// Steady-state rounds are allocation-free: particle storage is double
// buffered and swapped by pointer, every launch body and barrier-phased
// primitive is bound once at construction, and the estimate kernel
// returns a buffer owned by the pipeline (valid until the next round —
// callers that retain it must copy).
type Pipeline struct {
	dev *device.Device
	mdl model.Model
	cfg Config
	dim int

	// Global-memory buffers. Particle state is SoA double buffered
	// (cur holds the current generation; kernels write nxt and the
	// caller swaps); weights and the exchange outbox keep their flat
	// layouts — outbox records are AoS (dim+1 floats per particle), the
	// wire format the shard/cluster layers reflect.
	cur, nxt *soaBuf
	logw     []float64 // N·m accumulated log-weights
	outbox   []float64 // N·t·(dim+1) staged top-t particles (+ log-weight)
	poolSel  []int     // t selected pool entries (all-to-all)

	// Per-sub-filter random streams: a block Buffer refilled by the rand
	// kernel (the paper's dedicated PRNG kernel) and consumed by the
	// sampling and resampling kernels.
	bufs  []*rng.Buffer
	rands []*rng.Rand

	// Per-sub-filter vectorized model views. Native VecModels are
	// stateless and shared; the generic adapter carries scratch, so each
	// work-group gets its own instance.
	vms []model.VecModel

	// Host-side scratch reused across rounds.
	vsrc, vdst [][][]float64 // per-sub-filter span views handed to VecModels
	heads      []float64     // N sorted block-head log-weights
	partial    []float64     // N·(dim+1) weighted partial sums
	estState   []float64     // dim estimate output, reused every round
	poolKeys   []float64     // N·t all-to-all pool sort keys
	poolIdx    []int         // N·t all-to-all pool sort permutation

	// Pre-bound barrier-phased primitives (one per sub-filter: groups
	// execute concurrently; plus dedicated instances for the single-group
	// estimate and all-to-all pool launches).
	scans    []*scan.Plan
	sorts    []*sortnet.Net
	estScan  *scan.Plan
	poolSort *sortnet.Net

	// nbrs caches the static topology's neighbor lists so the exchange
	// kernel does not recompute (and reallocate) them every round. exch
	// says whether the round exchanges at all (t > 0, more than one
	// sub-filter, a topology), pool whether it is all-to-all's pooled
	// selection rather than a neighbour pull.
	nbrs       [][]int
	exch, pool bool

	bestSub int
	bestLW  float64

	// Launch bodies, bound once in New. The per-round inputs they read
	// (curU, curZ, curK, estBest, bestLW, meanDue) are plain fields:
	// launches are synchronous, so writing them between launches is
	// race-free. meanDue says the weighted-mean estimate's partial sums
	// run this round (MeanEstimate with a finite best log-weight).
	curU, curZ []float64
	curK       int
	estBest    int
	meanDue    bool

	randBody, sampleBody, sortBody, resampleBody device.KernelFunc
	estHeadBody, estMeanBody                     device.KernelFunc
	exchPubBody, exchInBody, exchPoolBody        device.KernelFunc

	// solo is RoundFused's one-entry merged round: the solo and batched
	// fused rounds run the same launch sequence (mergedPart.run).
	// batcher and batchRound stamp the pipeline's last Batcher round,
	// which is how a Batcher rejects a pipeline batched twice.
	solo       *mergedPart
	soloEntry  BatchRound
	batcher    *Batcher
	batchRound int

	// Observability state (see telemetry.go): an optional span tracer,
	// a stride-gated filter-health sample with its per-sub-filter
	// partials, and the per-sub-filter resample-policy decisions of the
	// most recent resampling kernel. All of it is read-only with respect
	// to filter state, so golden traces are unaffected.
	tracer        *telemetry.Tracer
	healthEvery   int
	round         int64
	lastHealth    telemetry.FilterHealth
	healthParts   []telemetry.HealthPartial
	resampleFlags []uint8
}

// New validates cfg and allocates the pipeline on dev.
func New(dev *device.Device, mdl model.Model, cfg Config, seed uint64) (*Pipeline, error) {
	if cfg.SubFilters <= 0 || cfg.ParticlesPer <= 0 {
		return nil, fmt.Errorf("kernels: invalid grid %d sub-filters × %d particles",
			cfg.SubFilters, cfg.ParticlesPer)
	}
	if cfg.ExchangeCount < 0 {
		return nil, fmt.Errorf("kernels: negative exchange count %d", cfg.ExchangeCount)
	}
	if cfg.Topology == nil {
		top, err := exchange.NewTopology(exchange.None, cfg.SubFilters)
		if err != nil {
			return nil, err
		}
		cfg.Topology = top
	}
	if cfg.Topology.Size() != cfg.SubFilters {
		return nil, fmt.Errorf("kernels: topology size %d != sub-filters %d",
			cfg.Topology.Size(), cfg.SubFilters)
	}
	if cfg.Policy == nil {
		cfg.Policy = resample.Always{}
	}
	incoming := cfg.Topology.MaxDegree() * cfg.ExchangeCount
	if cfg.Topology.Scheme() == exchange.AllToAll {
		incoming = cfg.ExchangeCount
	}
	if cfg.ExchangeCount > 0 && incoming >= cfg.ParticlesPer {
		return nil, fmt.Errorf("kernels: %d incoming particles >= sub-filter size %d",
			incoming, cfg.ParticlesPer)
	}
	if cfg.ExchangeCount > cfg.ParticlesPer {
		return nil, fmt.Errorf("kernels: exchange count %d > sub-filter size %d",
			cfg.ExchangeCount, cfg.ParticlesPer)
	}
	p := &Pipeline{dev: dev, mdl: mdl, cfg: cfg, dim: mdl.StateDim()}
	N, m := cfg.SubFilters, cfg.ParticlesPer
	n := N * m
	p.cur = newSoaBuf(p.dim, N, m)
	p.nxt = newSoaBuf(p.dim, N, m)
	p.logw = make([]float64, n)
	p.outbox = make([]float64, N*cfg.ExchangeCount*(p.dim+1))
	p.poolSel = make([]int, cfg.ExchangeCount)
	p.heads = make([]float64, N)
	p.partial = make([]float64, N*(p.dim+1))
	p.estState = make([]float64, p.dim)
	p.poolKeys = make([]float64, N*cfg.ExchangeCount)
	p.poolIdx = make([]int, N*cfg.ExchangeCount)
	p.vsrc = make([][][]float64, N)
	p.vdst = make([][][]float64, N)
	p.bufs = make([]*rng.Buffer, N)
	p.rands = make([]*rng.Rand, N)
	p.vms = make([]model.VecModel, N)
	p.scans = make([]*scan.Plan, N)
	p.sorts = make([]*sortnet.Net, N)
	p.resampleFlags = make([]uint8, N)
	p.healthParts = make([]telemetry.HealthPartial, N)
	p.nbrs = make([][]int, N)
	scheme := cfg.Topology.Scheme()
	p.exch = cfg.ExchangeCount > 0 && N > 1 && scheme != exchange.None
	p.pool = p.exch && scheme == exchange.AllToAll
	for s := 0; s < N; s++ {
		p.vsrc[s] = make([][]float64, p.dim)
		p.vdst[s] = make([][]float64, p.dim)
		p.vms[s] = model.Vectorize(mdl)
		p.scans[s] = scan.NewPlan()
		p.sorts[s] = sortnet.NewNet()
		p.nbrs[s] = cfg.Topology.Neighbors(nil, s)
	}
	p.estScan = scan.NewPlan()
	p.poolSort = sortnet.NewNet()
	p.bindBodies()
	p.soloEntry.P = p
	p.solo = newMergedPart()
	p.solo.entries = append(p.solo.entries, &p.soloEntry)
	p.Reset(seed)
	return p, nil
}

// bindBodies creates every launch body once, so steady-state rounds do
// not allocate closures (a body handed to Device.Launch escapes into the
// launch task; the tiny per-phase closures inside the group bodies are
// called through concrete *device.Group methods and stay on the stack).
func (p *Pipeline) bindBodies() {
	p.randBody = func(g *device.Group) { p.randGroup(g, g.ID()) }
	p.sampleBody = func(g *device.Group) {
		p.sampleGroup(g, g.ID(), p.curU, p.curZ, p.curK, p.cur, p.nxt)
	}
	p.sortBody = func(g *device.Group) { p.sortGroup(g, g.ID(), p.cur, p.nxt) }
	p.resampleBody = func(g *device.Group) { p.resampleGroup(g, g.ID()) }
	p.estHeadBody = func(g *device.Group) { p.estHeadGroup(g) }
	p.estMeanBody = func(g *device.Group) { p.estMeanGroup(g, g.ID()) }
	p.exchPubBody = func(g *device.Group) { p.exchPublishGroup(g, g.ID()) }
	p.exchInBody = func(g *device.Group) { p.exchInGroup(g, g.ID()) }
	p.exchPoolBody = func(g *device.Group) { p.exchPoolGroup(g) }
}

// Reset reseeds every stream and redraws the particle population from the
// model prior.
func (p *Pipeline) Reset(seed uint64) {
	// Words per round: ~2·dim per particle for sampling (Box-Muller via
	// Uint64) plus up to 4 for resampling draws, with headroom.
	words := p.cfg.ParticlesPer * (2*p.dim + 8)
	for s := 0; s < p.cfg.SubFilters; s++ {
		p.bufs[s] = rng.NewBuffer(words, rng.NewPhiloxStream(seed, s+1))
		p.rands[s] = rng.New(p.bufs[s])
	}
	for s := 0; s < p.cfg.SubFilters; s++ {
		p.vms[s].InitVec(p.cur.sub[s], p.rands[s])
	}
	for i := range p.logw {
		p.logw[i] = 0
	}
	for i := range p.resampleFlags {
		p.resampleFlags[i] = 0
	}
	p.round = 0
	p.lastHealth = telemetry.FilterHealth{}
	p.bestSub, p.bestLW = 0, math.Inf(-1)
}

// Config returns the validated configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// Device returns the device the pipeline runs on.
func (p *Pipeline) Device() *device.Device { return p.dev }

// grid returns the one-group-per-sub-filter launch shape: one lane per
// particle of the sub-filter.
func (p *Pipeline) grid() device.Grid {
	return device.Grid{Groups: p.cfg.SubFilters, GroupSize: p.cfg.ParticlesPer}
}

// Round runs one full filtering round (all six kernels) for control u,
// measurement z, step index k, and returns the global best particle's
// state and log-weight. Each kernel is issued as its own global launch,
// exactly as in the paper's baseline; RoundFused is the faster,
// bit-identical alternative. The returned state slice is owned by the
// pipeline and overwritten by the next round — copy it to retain it.
func (p *Pipeline) Round(u, z []float64, k int) ([]float64, float64) {
	sp := p.tracer.Begin("filter", "round").Arg("k", int64(k))
	p.KernelRand()
	p.KernelSampleWeight(u, z, k)
	p.KernelSortLocal()
	best, lw := p.KernelEstimate()
	p.KernelExchange()
	p.KernelResample()
	sp.End()
	return best, lw
}

// RoundFused runs one full filtering round as two fused multi-group
// launches with one-group launches between them, the same sequence a
// Batcher runs for a batch (mergedPart.run):
//
//  1. rand → sampling → local sort → exchange publish, per sub-filter;
//  2. the global estimate's one-group reduction over the N block heads
//     (and all-to-all's one-group pool sort);
//  3. weighted-mean partials (MeanEstimate only) → exchange pull or
//     broadcast → resampling, per sub-filter.
//
// Only the two barriers that order cross-group reads remain: everything
// the global kernels read is final once each group's local sort and
// publish end. RoundFused consumes the per-sub-filter random streams in
// exactly the same order as Round and is bit-identical to it (asserted
// by the golden-trace tests); every kernel keeps its profiler entry,
// launch count and work counters. The returned state slice is owned by
// the pipeline and overwritten by the next round — copy it to retain it.
func (p *Pipeline) RoundFused(u, z []float64, k int) ([]float64, float64) {
	sp := p.tracer.Begin("filter", "round").Arg("k", int64(k))
	e := &p.soloEntry
	e.U, e.Z, e.K = u, z, k
	p.solo.run(p.dev)
	sp.End()
	return e.State, e.LogW
}

// Best returns the sub-filter index and log-weight of the last estimate.
func (p *Pipeline) Best() (sub int, logw float64) { return p.bestSub, p.bestLW }

// Particles returns a copy of the current particle population in AoS
// layout (N·m rows of dim floats — the boundary format shared with
// checkpoints and exchange records). Mutations do not affect the
// pipeline; use SetParticles to write a population back.
func (p *Pipeline) Particles() []float64 {
	out := make([]float64, len(p.cur.arena))
	p.packInto(out)
	return out
}

// SetParticles overwrites the particle population from an AoS buffer of
// the shape Particles returns. It panics if the length does not match.
func (p *Pipeline) SetParticles(aos []float64) {
	if len(aos) != len(p.cur.arena) {
		panic(fmt.Sprintf("kernels: SetParticles length %d != %d", len(aos), len(p.cur.arena)))
	}
	p.unpackFrom(aos)
}

// packInto writes the current population into dst in AoS row-major order
// (particle-major, dimension-minor — the historical flat layout).
func (p *Pipeline) packInto(dst []float64) {
	dim := p.dim
	for c, col := range p.cur.cols {
		for i, v := range col {
			dst[i*dim+c] = v
		}
	}
}

// unpackFrom scatters an AoS buffer into the current SoA columns.
func (p *Pipeline) unpackFrom(src []float64) {
	dim := p.dim
	for c, col := range p.cur.cols {
		for i := range col {
			col[i] = src[i*dim+c]
		}
	}
}

// ReadParticle copies particle slot of sub-filter sub into dst (dim
// floats). It is the random-access read the cluster exchange layer uses
// in place of aliasing a flat buffer.
func (p *Pipeline) ReadParticle(sub, slot int, dst []float64) {
	for d, col := range p.cur.sub[sub] {
		dst[d] = col[slot]
	}
}

// WriteParticle overwrites particle slot of sub-filter sub from src (dim
// floats).
func (p *Pipeline) WriteParticle(sub, slot int, src []float64) {
	for d, col := range p.cur.sub[sub] {
		col[slot] = src[d]
	}
}

// LogWeights exposes the current log-weight buffer for tests.
func (p *Pipeline) LogWeights() []float64 { return p.logw }
