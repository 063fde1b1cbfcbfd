package sched

import (
	"interstitial/internal/job"
	"interstitial/internal/machine"
	"interstitial/internal/profile"
	"interstitial/internal/sim"
	"interstitial/internal/tracing"
)

// Dispatcher runs scheduling passes: it orders the queue via the policy,
// starts whatever the backfill rules allow, and reports planning
// information (the head job's reservation) that the interstitial
// controller needs.
type Dispatcher struct {
	policy Policy
	tracer *tracing.Tracer

	// plan is the arena for the per-pass free-CPU profile: rebuilt in place
	// at the top of every Schedule so steady-state passes allocate nothing.
	// The PassResult.Plan returned by Schedule aliases it and is therefore
	// valid only until the next Schedule call on this dispatcher — which
	// covers its one consumer, the controller's same-pass AfterPass hook.
	plan profile.Profile

	// orderEpoch/orderValid cache the policy epoch the queue's standing
	// order was computed under (OrderingEpoch policies only).
	orderEpoch uint64
	orderValid bool
}

// NewDispatcher wraps a policy.
func NewDispatcher(p Policy) *Dispatcher { return &Dispatcher{policy: p} }

// Policy exposes the wrapped policy.
func (d *Dispatcher) Policy() Policy { return d.policy }

// SetTracer installs the decision tracer (nil: tracing off). The
// dispatcher emits at the classification sites inside Schedule, so a
// start's trace reason records *which* rule dispatched it — head drain
// vs. backfill flavor — information PassResult only aggregates.
func (d *Dispatcher) SetTracer(t *tracing.Tracer) { d.tracer = t }

// PassResult reports what a scheduling pass did and the resulting plan.
type PassResult struct {
	// Started lists the jobs dispatched at this instant, in start order.
	Started []*job.Job
	// Backfilled counts how many of Started jumped the queue: starts that
	// were not the head draining in priority order (EASY's backfill loop,
	// Conservative's out-of-order reservations-come-due). Head-of-queue
	// and NoBackfill starts never count.
	Backfilled int
	// HeadReservation is the planned start time of the highest-priority
	// job still waiting, based on user estimates — the paper's
	// "backfillWallTime". It is sim.Infinity when the queue drained or no
	// plan exists.
	HeadReservation sim.Time
	// Plan is the free-CPU profile after this pass's starts plus the
	// reservations the flavor protects: the head job's under EASY and
	// NoBackfill, every queued job's under Conservative. The interstitial
	// controller packs into this plan.
	Plan *profile.Profile
}

// planningDuration is the duration the scheduler plans with: the user
// estimate, floored at one second so zero-estimate jobs still occupy the
// plan.
func planningDuration(j *job.Job) sim.Time {
	if j.Estimate < 1 {
		return 1
	}
	return j.Estimate
}

// earliestAllowedFit finds the first instant >= after where j both fits in
// p and is permitted by the policy's gates. The fixed-point loop converges
// quickly because gates are periodic; if it fails to converge the job is
// treated as unplannable this pass.
func (d *Dispatcher) earliestAllowedFit(p *profile.Profile, j *job.Job, after sim.Time) (sim.Time, bool) {
	t := after
	for iter := 0; iter < 64; iter++ {
		ft, ok := p.EarliestFit(t, j.CPUs, planningDuration(j))
		if !ok {
			return 0, false
		}
		at := d.policy.EarliestAllowed(ft, j)
		if at == ft {
			return ft, true
		}
		t = at
	}
	return 0, false
}

// start dispatches j on m now and updates the plan.
func (d *Dispatcher) start(now sim.Time, m *machine.Machine, p *profile.Profile, j *job.Job) {
	m.Start(now, j)
	d.policy.OnStart(now, j)
	p.Reserve(now, j.CPUs, planningDuration(j))
}

// traceStart records one dispatch decision; aux is the job's queue wait.
func (d *Dispatcher) traceStart(now sim.Time, m *machine.Machine, j *job.Job, kind tracing.Kind, reason tracing.Reason) {
	if d.tracer != nil {
		d.tracer.Emit(now, kind, reason, j.ID, j.CPUs, m.Busy(), int64(now-j.Submit))
	}
}

// order brings the queue into dispatch order, doing only the work the
// policy's Ordering class requires. The dispatch key is a total order, so
// the incremental paths (prioritize arrivals + merge) produce the exact
// sequence a full reprioritize + sort would — they just skip re-deriving
// priorities that provably have not moved.
func (d *Dispatcher) order(now sim.Time, q *Queue) {
	switch d.policy.Ordering() {
	case OrderingStatic:
		for _, j := range q.Unordered() {
			d.policy.Prioritize(now, j)
		}
		q.MergeUnordered()
	case OrderingEpoch:
		epoch := d.policy.OrderEpoch()
		if d.orderValid && epoch == d.orderEpoch {
			for _, j := range q.Unordered() {
				d.policy.Prioritize(now, j)
			}
			q.MergeUnordered()
			return
		}
		for _, j := range q.Jobs() {
			d.policy.Prioritize(now, j)
		}
		q.Sort()
		d.orderEpoch = epoch
		d.orderValid = true
	default: // OrderingDynamic: re-derive everything, every pass.
		for _, j := range q.Jobs() {
			d.policy.Prioritize(now, j)
		}
		q.Sort()
	}
}

// Schedule runs one pass at time now and returns what happened. It starts
// native jobs only; interstitial jobs are dispatched by their controller
// against the returned Plan.
func (d *Dispatcher) Schedule(now sim.Time, m *machine.Machine, q *Queue) PassResult {
	d.order(now, q)

	// The rebuild only reads the machine's borrowed release timeline.
	p := &d.plan
	p.RebuildFromReleases(now, m.Free(), m.ReleasesBorrow())
	res := PassResult{HeadReservation: sim.Infinity}

	switch d.policy.Backfill() {
	case NoBackfill:
		for q.Len() > 0 {
			h := q.Head()
			if !m.CanStart(h.CPUs) || d.policy.EarliestAllowed(now, h) != now {
				break
			}
			d.start(now, m, p, q.Remove(0))
			d.traceStart(now, m, h, tracing.KindStart, tracing.ReasonHeadOfQueue)
			res.Started = append(res.Started, h)
		}
		if q.Len() > 0 {
			// FCFS does not backfill natives, but the head's reservation
			// must still appear in the plan: it is the "backfillWallTime"
			// guard that keeps interstitial jobs from starving the head.
			h := q.Head()
			if at, ok := d.earliestAllowedFit(p, h, now); ok {
				res.HeadReservation = at
				p.Reserve(at, h.CPUs, planningDuration(h))
			}
		}

	case EASY:
		// Drain the head of the queue while it can start immediately.
		for q.Len() > 0 {
			h := q.Head()
			if !m.CanStart(h.CPUs) || d.policy.EarliestAllowed(now, h) != now {
				break
			}
			d.start(now, m, p, q.Remove(0))
			d.traceStart(now, m, h, tracing.KindStart, tracing.ReasonHeadOfQueue)
			res.Started = append(res.Started, h)
		}
		if q.Len() > 0 {
			// Reserve the head at its shadow time; backfill may not
			// delay it.
			h := q.Head()
			if at, ok := d.earliestAllowedFit(p, h, now); ok {
				res.HeadReservation = at
				p.Reserve(at, h.CPUs, planningDuration(h))
			}
			// Backfill the rest: anything that fits right now without
			// touching the head reservation.
			for i := 1; i < q.Len(); {
				j := q.At(i)
				if d.policy.EarliestAllowed(now, j) == now &&
					m.CanStart(j.CPUs) &&
					p.MinFree(now, now+planningDuration(j)) >= j.CPUs {
					d.start(now, m, p, q.Remove(i))
					d.traceStart(now, m, j, tracing.KindBackfill, tracing.ReasonEASYBackfill)
					res.Started = append(res.Started, j)
					res.Backfilled++
					continue
				}
				i++
			}
		}

	case Conservative:
		// Reserve every queued job in priority order; start the ones
		// whose reservation is "now". Nothing may delay anyone ahead of
		// it, which is the restrictive backfill the paper ascribes to
		// Ross.
		i := 0
		for i < q.Len() {
			j := q.At(i)
			at, ok := d.earliestAllowedFit(p, j, now)
			if !ok {
				i++
				continue
			}
			if at == now && m.CanStart(j.CPUs) {
				d.start(now, m, p, q.Remove(i))
				if i > 0 {
					d.traceStart(now, m, j, tracing.KindBackfill, tracing.ReasonConservativeBackfill)
					res.Backfilled++
				} else {
					d.traceStart(now, m, j, tracing.KindStart, tracing.ReasonHeadOfQueue)
				}
				res.Started = append(res.Started, j)
				continue
			}
			p.Reserve(at, j.CPUs, planningDuration(j))
			if res.HeadReservation == sim.Infinity {
				res.HeadReservation = at
			}
			i++
		}
	}

	res.Plan = p
	return res
}
