package serve

import (
	"fmt"
	"sync/atomic"
	"time"

	"esthera/internal/filter"
	"esthera/internal/telemetry"
)

// A stepReq's lifecycle state. Every request starts pending; exactly one
// side wins the transition out of it, via compare-and-swap:
//
//   - the scheduler *claims* it (reqClaimed) when it commits a batch for
//     execution — from that point the step WILL be applied to the
//     session's filter and a result WILL be delivered on done, so the
//     waiter must consume it even if its context fired meanwhile;
//   - the waiter *abandons* it (reqAbandoned) when cancellation, a
//     deadline, or shutdown wins while the request is still queued —
//     from that point the scheduler skips it at delivery time and the
//     step is never applied.
//
// The protocol gives Step its at-most-once contract: a step is either
// applied-and-reported or never-applied-and-failed, regardless of how
// cancellation and shutdown race the batch.
const (
	reqPending int32 = iota
	reqClaimed
	reqAbandoned
)

// stepReq is one queued observation step.
type stepReq struct {
	sess  *Session
	u, z  []float64
	done  chan stepResult // buffered(1): delivery never blocks the scheduler
	state atomic.Int32
	// tc is the request's propagated (or freshly minted) trace context;
	// span is the request-span ID under which the step is reported.
	tc   telemetry.TraceContext
	span uint64
}

func (r *stepReq) claim() bool   { return r.state.CompareAndSwap(reqPending, reqClaimed) }
func (r *stepReq) abandon() bool { return r.state.CompareAndSwap(reqPending, reqAbandoned) }

// stepResult is the scheduler's reply to one stepReq.
type stepResult struct {
	est  filter.Estimate
	step int
	err  error
}

// schedule is the work-conserving batching scheduler: it drains the
// admission queue, running each step together with the steps that queued
// behind it (see collect) as shared device launches. One scheduler
// goroutine drives the device; concurrency comes from the merged grids,
// not from concurrent launches — exactly the paper's device model
// (launches are globally synchronizing, work-groups within a launch run
// concurrently).
func (s *Server) schedule() {
	defer close(s.done)
	for {
		select {
		case req := <-s.queue:
			batch, quit := s.collect(req)
			if quit {
				// Shutdown fired while collecting: the waiters' quit
				// branches are already returning ErrClosed, so running
				// the batch would apply steps whose callers reported
				// failure. Fail it instead — no work during shutdown.
				s.failBatch(batch)
				s.failPending()
				return
			}
			s.runBatch(batch)
		case <-s.quit:
			s.failPending()
			return
		}
	}
}

// collect gathers one batch: first plus whatever is already queued, in
// arrival order, up to MaxBatch. It never blocks. quit reports that
// shutdown fired mid-collection: the batch must be failed, not run.
func (s *Server) collect(first *stepReq) (batch []*stepReq, quit bool) {
	batch = []*stepReq{first}
	for len(batch) < s.cfg.MaxBatch {
		select {
		case r := <-s.queue:
			batch = append(batch, r)
		case <-s.quit:
			return batch, true
		default:
			return batch, false
		}
	}
	return batch, false
}

// runBatch executes one coalesced batch and delivers results. Requests
// abandoned while queued (cancelled context, deadline, shutdown race)
// are skipped here, at delivery time, before any work runs: their
// sessions' filters are not stepped, so a waiter that reported
// cancellation never has its step silently applied. A panic from a
// kernel or model fails the whole batch (each waiter gets the error)
// but never kills the scheduler.
func (s *Server) runBatch(batch []*stepReq) {
	live := batch[:0]
	for _, r := range batch {
		if r.claim() {
			live = append(live, r)
		} else {
			// Cancelled while queued: the waiter is gone; skip without
			// executing or consuming a result slot.
			s.skipped.Add(1)
		}
	}
	if len(live) == 0 {
		return
	}
	fs := make([]*filter.Parallel, len(live))
	us := make([][]float64, len(live))
	zs := make([][]float64, len(live))
	for i, r := range live {
		fs[i] = r.sess.f
		us[i] = r.u
		zs[i] = r.z
	}
	// Install the driving request's trace as the ambient context so
	// every span the fused round records below (device, kernels,
	// cluster) is stamped with the same trace ID. A batch can merge
	// several requests; the first live traced one wins — its trace
	// covers the shared launch, the rest keep their own request spans.
	ambient := false
	for _, r := range live {
		if r.tc.Valid() {
			s.tracer.SetAmbient(telemetry.TraceContext{Trace: r.tc.Trace, Span: r.span})
			ambient = true
			break
		}
	}
	start := time.Now()
	ests, err := func() (out []filter.Estimate, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("serve: batch step panicked: %v", r)
			}
		}()
		return s.stepper.StepBatch(fs, us, zs)
	}()
	elapsed := time.Since(start)
	s.observeBatchLatency(elapsed)
	if s.tracer.Enabled() {
		ev := telemetry.Event{Name: "batch", Cat: "serve", TS: s.tracer.Stamp(start), Dur: elapsed}
		ev.SetArg("steps", int64(len(live)))
		ev.SetArg("skipped", int64(len(batch)-len(live)))
		s.tracer.Record(ev) // recorded under ambient: inherits the trace
	}
	if ambient {
		s.tracer.ClearAmbient()
	}
	if err != nil {
		for _, r := range live {
			r.done <- stepResult{err: err}
		}
		return
	}
	s.batches.Add(1)
	s.batchedSteps.Add(int64(len(live)))
	for i, r := range live {
		r.done <- stepResult{est: ests[i], step: fs[i].StepIndex()}
	}
}

// failBatch fails every still-pending request of a batch with ErrClosed
// without executing any work. Claimed delivery keeps the protocol: a
// waiter whose abandon lost the race is guaranteed a message on done.
func (s *Server) failBatch(batch []*stepReq) {
	for _, r := range batch {
		if r.claim() {
			r.done <- stepResult{err: ErrClosed}
		}
	}
}

// failPending drains the queue after shutdown, failing every waiter.
func (s *Server) failPending() {
	for {
		select {
		case r := <-s.queue:
			s.failBatch([]*stepReq{r})
		default:
			return
		}
	}
}

// observeBatchLatency folds one batch's execution time into the EWMA
// the adaptive retry hint is derived from. Only the scheduler goroutine
// writes it; Stats and retryHint read it concurrently.
func (s *Server) observeBatchLatency(d time.Duration) {
	old := s.batchLatNS.Load()
	if old == 0 {
		s.batchLatNS.Store(d.Nanoseconds())
		return
	}
	s.batchLatNS.Store(old + (d.Nanoseconds()-old)/4)
}
