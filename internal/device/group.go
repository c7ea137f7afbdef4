package device

import (
	"fmt"
	"time"
)

// Ctx is the data-parallel execution context a barrier-phased algorithm
// runs against. The parallel primitives (internal/scan, internal/sortnet)
// and the kernels are written once against Ctx; *Group provides the
// instrumented device implementation and Serial a plain sequential one for
// the reference filters.
type Ctx interface {
	// Lanes returns the number of parallel lanes (work-group size).
	Lanes() int
	// Step executes fn once for each lane in [0, Lanes()), with an
	// implicit barrier after the last lane. Within a Step, lanes must not
	// communicate: fn(i) may not read data written by fn(j) of the same
	// step (on a real device the lanes run concurrently).
	Step(fn func(lane int))
	// StepSpan is Step with the per-lane dispatch hoisted out: fn is
	// invoked once and must itself loop lane over [lo, hi) in ascending
	// order, performing exactly the work Step's per-lane body would. It
	// costs the same barrier and lane-invocation accounting as Step and
	// carries the same non-communication contract; it exists so tight
	// inner bodies (a sorting network's compare-exchange stage, a scan's
	// tree level) avoid an indirect call per lane on the simulation host.
	StepSpan(fn func(lo, hi int))
	// StepVec executes one barrier-delimited step over the lane range as
	// contiguous row spans of structure-of-arrays columns: fn receives a
	// half-open row range [lo, hi) and must process exactly those rows of
	// every column it touches, writing no row outside the range. Unlike
	// StepSpan — whose body is a hoisted per-lane loop — a StepVec body
	// operates on whole spans (block RNG fills, fused per-dimension
	// arithmetic), which is what lets the compiler keep the inner loops
	// bounds-check-free and auto-vectorizable. A device may partition the
	// lane range and invoke fn several times with disjoint sub-ranges;
	// correctness must not depend on receiving [0, Lanes()) in one call.
	// The barrier and accounting cost equals Step's.
	StepVec(fn func(lo, hi int))
	// Ops accounts n arithmetic operations (for the cost model).
	Ops(n int)
	// GlobalRead / GlobalWrite account off-chip memory traffic in bytes.
	GlobalRead(bytes int)
	GlobalWrite(bytes int)
	// LocalRead / LocalWrite account scratch-pad traffic in bytes.
	LocalRead(bytes int)
	LocalWrite(bytes int)
	// ScratchF64 / ScratchInt return zeroed length-n temporary buffers
	// for primitive-internal working state (padding, reduction trees).
	// Unlike AllocLocal*, scratch is NOT accounted against the group's
	// local-memory capacity — it models register/unified space a real
	// kernel would already hold — but like local memory it is recycled,
	// so the barrier-phased primitives run allocation-free.
	ScratchF64(n int) []float64
	ScratchInt(n int) []int
}

// Counters aggregates the accounted work of one or more kernel executions.
type Counters struct {
	Steps            int64 `json:"steps"`            // barrier-delimited phases
	LaneInvocations  int64 `json:"lane_invocations"` // total fn(lane) calls
	Ops              int64 `json:"ops"`              // accounted arithmetic operations (data-parallel)
	SerialOps        int64 `json:"serial_ops"`       // ops executed by a single lane (StepSerial)
	GlobalReadBytes  int64 `json:"global_read_bytes"`
	GlobalWriteBytes int64 `json:"global_write_bytes"`
	LocalReadBytes   int64 `json:"local_read_bytes"`
	LocalWriteBytes  int64 `json:"local_write_bytes"`
	LocalAllocBytes  int64 `json:"local_alloc_bytes"` // peak local-memory allocation over groups
}

// Add accumulates o into c (LocalAllocBytes takes the max, since it is a
// capacity, not a flow).
func (c *Counters) Add(o *Counters) {
	c.Steps += o.Steps
	c.LaneInvocations += o.LaneInvocations
	c.Ops += o.Ops
	c.SerialOps += o.SerialOps
	c.GlobalReadBytes += o.GlobalReadBytes
	c.GlobalWriteBytes += o.GlobalWriteBytes
	c.LocalReadBytes += o.LocalReadBytes
	c.LocalWriteBytes += o.LocalWriteBytes
	if o.LocalAllocBytes > c.LocalAllocBytes {
		c.LocalAllocBytes = o.LocalAllocBytes
	}
}

// GlobalBytes returns total off-chip traffic.
func (c *Counters) GlobalBytes() int64 { return c.GlobalReadBytes + c.GlobalWriteBytes }

// Group is one work-group of a kernel launch: a block of lanes sharing
// local memory and barriers. It implements Ctx with full instrumentation.
//
// Group objects are recycled by the Device across launches: local-memory
// buffers are carved out of per-Group arenas that persist between kernel
// executions (and are re-zeroed on allocation), so steady-state kernel
// rounds run allocation-free.
type Group struct {
	id          int
	size        int
	localMemCap int // bytes; negative = unlimited
	localAlloc  int
	inSerial    bool

	// cur is the accounting target: &count for plain launches, or the
	// active phase's counters inside a fused launch.
	cur   *Counters
	count Counters

	// steps/lanes batch the per-Step barrier bookkeeping; they are folded
	// into cur once per phase transition / kernel completion instead of
	// touching the Counters struct on every Step.
	steps int64
	lanes int64

	// Fused-launch phase attribution. Phase wall-clock is sampled: only
	// every eighth group (by ID, always including group 0) reads the
	// clock, keeping the fused hot path free of per-phase timer calls;
	// the sampled per-phase shares are representative because groups run
	// the same kernel body.
	fused       bool
	timed       bool
	phase       int
	phaseStart  time.Time
	phaseCounts []Counters
	phaseTimes  []time.Duration

	// drainPhases/drainTimes sum phaseCounts/phaseTimes over every
	// work-group one drain participant runs on this Group, so the
	// participant folds them into the launch once.
	drainPhases []Counters
	drainTimes  []time.Duration

	// Local-memory arenas, recycled across kernel executions.
	arenaF64               []float64
	arenaInt               []int
	arenaU32               []uint32
	offF64, offInt, offU32 int

	// Scratch arenas (unaccounted temporary space; see Ctx.ScratchF64).
	scratchF64           []float64
	scratchInt           []int
	scrOffF64, scrOffInt int
}

// beginDrain zeroes the participant accumulators for a launch with the
// given number of fused phases (0 for a plain launch).
func (g *Group) beginDrain(phases int) {
	if cap(g.drainPhases) < phases {
		g.drainPhases = make([]Counters, phases)
		g.drainTimes = make([]time.Duration, phases)
	}
	g.drainPhases = g.drainPhases[:phases]
	g.drainTimes = g.drainTimes[:phases]
	for i := range g.drainPhases {
		g.drainPhases[i] = Counters{}
		g.drainTimes[i] = 0
	}
}

// reset prepares a recycled Group for one kernel execution.
func (g *Group) reset(id, size, localMemCap, phases int) {
	g.id = id
	g.size = size
	g.localMemCap = localMemCap
	g.localAlloc = 0
	g.inSerial = false
	g.count = Counters{}
	g.steps, g.lanes = 0, 0
	g.offF64, g.offInt, g.offU32 = 0, 0, 0
	g.scrOffF64, g.scrOffInt = 0, 0
	g.fused = phases > 0
	if !g.fused {
		g.cur = &g.count
		return
	}
	if cap(g.phaseCounts) < phases {
		g.phaseCounts = make([]Counters, phases)
		g.phaseTimes = make([]time.Duration, phases)
	}
	g.phaseCounts = g.phaseCounts[:phases]
	g.phaseTimes = g.phaseTimes[:phases]
	for i := range g.phaseCounts {
		g.phaseCounts[i] = Counters{}
		g.phaseTimes[i] = 0
	}
	g.phase = 0
	g.cur = &g.phaseCounts[0]
	g.timed = id&7 == 0
	if g.timed {
		g.phaseStart = time.Now()
	}
}

// flushSteps folds the batched barrier counters into the active target.
func (g *Group) flushSteps() {
	g.cur.Steps += g.steps
	g.cur.LaneInvocations += g.lanes
	g.steps, g.lanes = 0, 0
}

// Phase switches accounting to phase i of a fused launch (see
// Device.LaunchFused). Work accounted before the first Phase call lands
// in phase 0. Phases may be revisited; their counters accumulate.
func (g *Group) Phase(i int) {
	if !g.fused {
		panic("device: Group.Phase outside LaunchFused")
	}
	if i < 0 || i >= len(g.phaseCounts) {
		panic(fmt.Sprintf("device: phase %d out of range (fused launch has %d phases)", i, len(g.phaseCounts)))
	}
	g.flushSteps()
	if g.timed {
		now := time.Now()
		g.phaseTimes[g.phase] += now.Sub(g.phaseStart)
		g.phaseStart = now
	}
	g.phase = i
	g.cur = &g.phaseCounts[i]
}

// finish closes out one kernel execution, folding this group's accounting
// into the participant-local accumulators.
func (g *Group) finish(local *Counters) {
	g.flushSteps()
	if !g.fused {
		local.Add(&g.count)
		return
	}
	if g.timed {
		g.phaseTimes[g.phase] += time.Since(g.phaseStart)
	}
	for i := range g.phaseCounts {
		local.Add(&g.phaseCounts[i])
		g.drainPhases[i].Add(&g.phaseCounts[i])
		if g.timed {
			g.drainTimes[i] += g.phaseTimes[i]
		}
	}
}

// ID returns the work-group index within the launch grid.
func (g *Group) ID() int { return g.id }

// Lanes returns the work-group size.
func (g *Group) Lanes() int { return g.size }

// Step executes fn for every lane with an implicit trailing barrier.
//
// Lanes are executed sequentially within the group (groups themselves run
// concurrently across compute units); the barrier-phased discipline is
// what makes the written algorithms valid on a real SIMT device.
func (g *Group) Step(fn func(lane int)) {
	for lane := 0; lane < g.size; lane++ {
		fn(lane)
	}
	g.steps++
	g.lanes += int64(g.size)
}

// StepSpan executes fn once over the full lane range [0, Lanes()) with a
// trailing barrier; see Ctx.StepSpan.
func (g *Group) StepSpan(fn func(lo, hi int)) {
	fn(0, g.size)
	g.steps++
	g.lanes += int64(g.size)
}

// StepVec executes fn over the group's full row range [0, Lanes()) with a
// trailing barrier; see Ctx.StepVec. The simulated device hands the body
// one span per group (real hardware would split it across vector units).
func (g *Group) StepVec(fn func(lo, hi int)) {
	fn(0, g.size)
	g.steps++
	g.lanes += int64(g.size)
}

// StepOne executes fn on lane 0 only (the "if (tid == 0)" idiom), still
// costing a barrier. Work accounted inside fn is treated as
// data-parallel (use StepOne for bookkeeping or for work that a real
// kernel would distribute across lanes, such as block PRNG generation).
func (g *Group) StepOne(fn func()) {
	fn()
	g.steps++
	g.lanes++
}

// StepSerial executes fn on lane 0 with all other lanes idle, and
// accounts its Ops as *serial* work: on a wide device this region runs at
// single-lane throughput (Vose's alias-table construction is the
// prototypical case — §VI-F: "concurrency usually drops steeply towards
// one"). The platform cost model charges SerialOps accordingly.
func (g *Group) StepSerial(fn func()) {
	g.inSerial = true
	fn()
	g.inSerial = false
	g.steps++
	g.lanes++
}

// Ops accounts n arithmetic operations (serial ops inside StepSerial).
func (g *Group) Ops(n int) {
	if g.inSerial {
		g.cur.SerialOps += int64(n)
		return
	}
	g.cur.Ops += int64(n)
}

// GlobalRead accounts bytes read from global memory.
func (g *Group) GlobalRead(bytes int) { g.cur.GlobalReadBytes += int64(bytes) }

// GlobalWrite accounts bytes written to global memory.
func (g *Group) GlobalWrite(bytes int) { g.cur.GlobalWriteBytes += int64(bytes) }

// LocalRead accounts bytes read from local memory.
func (g *Group) LocalRead(bytes int) { g.cur.LocalReadBytes += int64(bytes) }

// LocalWrite accounts bytes written to local memory.
func (g *Group) LocalWrite(bytes int) { g.cur.LocalWriteBytes += int64(bytes) }

// allocLocal accounts a local-memory allocation of n bytes, panicking if
// the group's capacity is exceeded — the same hard failure a CUDA kernel
// hits when its static shared-memory demand exceeds the SM's scratch pad.
func (g *Group) allocLocal(n int) {
	g.localAlloc += n
	if g.cur.LocalAllocBytes < int64(g.localAlloc) {
		g.cur.LocalAllocBytes = int64(g.localAlloc)
	}
	if g.localMemCap >= 0 && g.localAlloc > g.localMemCap {
		panic(fmt.Sprintf("device: local memory overflow: %d bytes requested, capacity %d",
			g.localAlloc, g.localMemCap))
	}
}

// AllocLocalF64 allocates a zeroed local-memory float64 buffer of length
// n, carved from the group's recycled arena.
func (g *Group) AllocLocalF64(n int) []float64 {
	g.allocLocal(8 * n)
	if len(g.arenaF64)-g.offF64 < n {
		// Previously returned slices keep referencing the old backing
		// array; allocations continue in the fresh, larger one.
		g.arenaF64 = make([]float64, arenaSize(len(g.arenaF64), n))
		g.offF64 = 0
	}
	s := g.arenaF64[g.offF64 : g.offF64+n : g.offF64+n]
	g.offF64 += n
	for i := range s {
		s[i] = 0
	}
	return s
}

// AllocLocalU32 allocates a zeroed local-memory uint32 buffer of length n.
func (g *Group) AllocLocalU32(n int) []uint32 {
	g.allocLocal(4 * n)
	if len(g.arenaU32)-g.offU32 < n {
		g.arenaU32 = make([]uint32, arenaSize(len(g.arenaU32), n))
		g.offU32 = 0
	}
	s := g.arenaU32[g.offU32 : g.offU32+n : g.offU32+n]
	g.offU32 += n
	for i := range s {
		s[i] = 0
	}
	return s
}

// AllocLocalInt allocates a zeroed local-memory index buffer of length n,
// accounted at 4 bytes per element (device indices are 32-bit).
func (g *Group) AllocLocalInt(n int) []int {
	g.allocLocal(4 * n)
	if len(g.arenaInt)-g.offInt < n {
		g.arenaInt = make([]int, arenaSize(len(g.arenaInt), n))
		g.offInt = 0
	}
	s := g.arenaInt[g.offInt : g.offInt+n : g.offInt+n]
	g.offInt += n
	for i := range s {
		s[i] = 0
	}
	return s
}

// ScratchF64 returns a zeroed length-n temporary buffer from the group's
// recycled (unaccounted) scratch arena.
func (g *Group) ScratchF64(n int) []float64 {
	if len(g.scratchF64)-g.scrOffF64 < n {
		g.scratchF64 = make([]float64, arenaSize(len(g.scratchF64), n))
		g.scrOffF64 = 0
	}
	s := g.scratchF64[g.scrOffF64 : g.scrOffF64+n : g.scrOffF64+n]
	g.scrOffF64 += n
	for i := range s {
		s[i] = 0
	}
	return s
}

// ScratchInt returns a zeroed length-n temporary buffer from the group's
// recycled (unaccounted) scratch arena.
func (g *Group) ScratchInt(n int) []int {
	if len(g.scratchInt)-g.scrOffInt < n {
		g.scratchInt = make([]int, arenaSize(len(g.scratchInt), n))
		g.scrOffInt = 0
	}
	s := g.scratchInt[g.scrOffInt : g.scrOffInt+n : g.scrOffInt+n]
	g.scrOffInt += n
	for i := range s {
		s[i] = 0
	}
	return s
}

// arenaSize picks the next arena capacity: at least double, at least the
// request, and never trivially small.
func arenaSize(have, need int) int {
	n := 2 * have
	if n < need {
		n = need
	}
	if n < 64 {
		n = 64
	}
	return n
}

// Serial is a plain sequential Ctx with no instrumentation and no local
// memory limit, used by the sequential reference filters to share the
// exact same algorithm implementations as the device kernels.
type Serial struct {
	N int
}

// Lanes returns the lane count.
func (s Serial) Lanes() int { return s.N }

// Step executes fn for every lane in order.
func (s Serial) Step(fn func(lane int)) {
	for lane := 0; lane < s.N; lane++ {
		fn(lane)
	}
}

// StepSpan executes fn once over the full lane range.
func (s Serial) StepSpan(fn func(lo, hi int)) { fn(0, s.N) }

// StepVec executes fn once over the full row range.
func (s Serial) StepVec(fn func(lo, hi int)) { fn(0, s.N) }

// Ops is a no-op.
func (s Serial) Ops(int) {}

// GlobalRead is a no-op.
func (s Serial) GlobalRead(int) {}

// GlobalWrite is a no-op.
func (s Serial) GlobalWrite(int) {}

// LocalRead is a no-op.
func (s Serial) LocalRead(int) {}

// LocalWrite is a no-op.
func (s Serial) LocalWrite(int) {}

// ScratchF64 returns a fresh zeroed buffer (no recycling sequentially).
func (s Serial) ScratchF64(n int) []float64 { return make([]float64, n) }

// ScratchInt returns a fresh zeroed buffer.
func (s Serial) ScratchInt(n int) []int { return make([]int, n) }

var (
	_ Ctx = (*Group)(nil)
	_ Ctx = Serial{}
)
