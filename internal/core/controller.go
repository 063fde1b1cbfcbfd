package core

import (
	"fmt"
	"math"

	"interstitial/internal/engine"
	"interstitial/internal/job"
	"interstitial/internal/sched"
	"interstitial/internal/sim"
	"interstitial/internal/tracing"
)

// Controller is the fallible-mode interstitial controller: the paper's
// Figure 1 algorithm. It runs after every native scheduling pass ("the
// algorithm is run every time the system checks for new jobs") and
// meta-backfills identical low-priority jobs into the CPUs the native
// scheduler left idle, using only the same estimate-based plan the native
// scheduler had — so it is exactly as fallible as the machine's own
// backfill.
type Controller struct {
	// Spec describes the identical interstitial jobs.
	Spec JobSpec
	// Limit caps the number of jobs ever submitted; Limit <= 0 means
	// continual (unbounded) submission.
	Limit int
	// Metered makes Limit a strict entitlement even at zero: Remaining
	// reports exactly max(0, Limit-created) instead of treating a
	// nonpositive Limit as continual. A federation router grants work to
	// a shard by raising Limit between barriers, so a shard holding no
	// grant yet must submit nothing rather than run unbounded.
	Metered bool
	// StartAt / StopAt bound the submission window. Jobs are never
	// submitted outside [StartAt, StopAt].
	StartAt sim.Time
	StopAt  sim.Time
	// UtilCap, when in (0,1], suppresses submission whenever starting
	// another job would push instantaneous machine utilization above the
	// cap — the paper's Section 4.3.2.2 limiting mechanism.
	UtilCap float64
	// Preempt, when non-nil, lets the controller kill its own running
	// jobs to unblock the native head job — an extension past the
	// paper's non-preemptive model (see Preemption).
	Preempt *Preemption
	// IgnorePlan disables Figure 1's backfillWallTime guard, turning the
	// controller into a naive cycle-scavenger that grabs any free CPUs
	// (the screen-saver-computing model of the paper's related work).
	// Exists to quantify what the guard buys; never use in production.
	IgnorePlan bool

	// DiscardRecords, when set, stops the controller from accumulating
	// submitted jobs on Jobs — the O(total jobs) retention a streamed
	// continual run cannot afford. Consumers read the records from the
	// engine's retire hook instead, and may hand them back through
	// Recycle. Makespan is unavailable in this mode.
	DiscardRecords bool

	// Jobs collects every interstitial job submitted, in start order,
	// including continuation jobs resubmitted after a preemption kill
	// (empty when DiscardRecords is set).
	Jobs []*job.Job
	// KilledJobs counts preemption kills; WastedCPUSeconds is the
	// un-checkpointed work those kills discarded.
	KilledJobs       int
	WastedCPUSeconds float64

	created int        // fresh work units submitted (excludes continuations)
	backlog []sim.Time // run seconds of preempted remainders awaiting resubmission
	nextID  int

	// spare queues the retired records handed back through Recycle,
	// oldest first from spareHead on; record reuses them before
	// allocating.
	spare     []*job.Job
	spareHead int
}

// interstitialIDBase keeps interstitial job IDs disjoint from native log
// IDs (native logs number from 1).
const interstitialIDBase = 10_000_000

// NewController returns a continual controller for spec over the whole
// simulation.
func NewController(spec JobSpec) *Controller {
	return &Controller{Spec: spec, StopAt: sim.Infinity}
}

// NewProject returns a finite-project controller: kJobs jobs, submission
// opening at startAt.
func NewProject(spec JobSpec, kJobs int, startAt sim.Time) *Controller {
	return &Controller{Spec: spec, Limit: kJobs, StartAt: startAt, StopAt: sim.Infinity}
}

// Attach registers the controller on a simulator. It reports an error —
// never a panic — if the spec is invalid or another AfterPass hook is
// already installed (the hook is single-owner).
func (c *Controller) Attach(s *engine.Simulator) error {
	if err := c.Spec.Validate(); err != nil {
		return err
	}
	if s.AfterPass != nil {
		return fmt.Errorf("core: simulator already has an AfterPass hook")
	}
	s.AfterPass = func(sm *engine.Simulator, res sched.PassResult) { c.afterPass(sm, res) }
	// Wake the scheduler when the submission window opens, in case no
	// native event falls inside it. A window that already opened needs no
	// wake-up (and must not force an extra pass when attaching a restored
	// controller to a restored simulator mid-run).
	if c.StartAt > 0 && c.StartAt > s.Now() {
		s.RequestPassAt(c.StartAt)
	}
	return nil
}

// State is the controller's serializable mutable state. The
// configuration fields (Spec, Limit, window, caps) are not included:
// a restored controller is built with the same configuration and then
// handed the snapshot.
type State struct {
	Created          int     `json:"created"`
	NextID           int     `json:"nextID"`
	KilledJobs       int     `json:"killedJobs"`
	WastedCPUSeconds float64 `json:"wastedCPUSeconds"`
	// Backlog holds the run seconds of each preempted remainder awaiting
	// resubmission, in resubmission order.
	Backlog []sim.Time `json:"backlog,omitempty"`
}

// State snapshots the controller's mutable state.
func (c *Controller) State() State {
	return State{
		Created:          c.created,
		NextID:           c.nextID,
		KilledJobs:       c.KilledJobs,
		WastedCPUSeconds: c.WastedCPUSeconds,
		Backlog:          append([]sim.Time(nil), c.backlog...),
	}
}

// SetState restores a snapshot taken with State. Call before Attach on
// a controller configured identically to the snapshot one.
func (c *Controller) SetState(st State) {
	c.created = st.Created
	c.nextID = st.NextID
	c.KilledJobs = st.KilledJobs
	c.WastedCPUSeconds = st.WastedCPUSeconds
	c.backlog = append(c.backlog[:0], st.Backlog...)
}

// Remaining reports how many fresh jobs the controller may still submit;
// -1 means unlimited. Continuation jobs resubmitted after preemption do
// not count against the limit (they are the same work units). A Metered
// controller never reports unlimited: its Limit is an entitlement and
// Remaining is exactly the unconsumed part of it.
func (c *Controller) Remaining() int {
	if c.Metered {
		if n := c.Limit - c.created; n > 0 {
			return n
		}
		return 0
	}
	if c.Limit <= 0 {
		return -1
	}
	return c.Limit - c.created
}

// Done reports whether a finite project has submitted all its work: the
// job limit is reached and no preempted remainder awaits resubmission.
func (c *Controller) Done() bool {
	return c.Limit > 0 && c.created >= c.Limit && len(c.backlog) == 0
}

// afterPass implements Figure 1. The native pass has already dispatched
// every native job it could (head-of-queue or backfill); what remains is:
//
//	nInterstitialJobs = floor(nodesAvailable / interstitialJobSize)
//	if jobsInQueue == 0                        -> submit
//	else if backfillWallTime > interstitialRuntime -> submit
//
// We apply the condition against the pass's capacity plan (which embeds
// the head job's reservation), which is the same test expressed in
// profile form: an interstitial job may start only where the plan says its
// whole runtime fits without touching any native reservation.
func (c *Controller) afterPass(s *engine.Simulator, res sched.PassResult) {
	// Preemption protects natives regardless of the submission window:
	// jobs started inside the window may still be running after it. When
	// a pass kills, submission waits for the follow-up pass — the freed
	// CPUs are earmarked for the native head, and refilling them in the
	// same instant would steal them back and loop the kill forever.
	if c.Preempt != nil && c.preempt(s) {
		return
	}
	now := s.Now()
	if now < c.StartAt || now > c.StopAt {
		return
	}
	// Resubmit preempted remainders first, one at a time since each has
	// its own runtime, then the fresh units as one cohort.
	for len(c.backlog) > 0 && c.admit(s, res, c.backlog[0], 1, tracing.ReasonContinuation) == 1 {
		c.backlog = c.backlog[1:]
	}
	fresh := c.Remaining()
	if c.Done() {
		fresh = 0
	}
	if fresh < 0 {
		fresh = math.MaxInt
	}
	if fresh > 0 {
		c.created += c.admit(s, res, c.Spec.Runtime, fresh, tracing.ReasonFresh)
	}
}

// admit starts up to limit identical interstitial jobs of the given
// runtime, as many as every Figure-1 condition allows, and reports how
// many it started. reason records whether the runtime is a fresh work
// unit or the remainder of a preempted one.
//
// The count k is taken once, as the smallest of four bounds, and equals
// what k admissions one job at a time would reach: each admission lowers
// the free CPUs, Busy and the plan's minimum over [now, now+runtime) by
// exactly the job's CPUs — the plan starts at now, and the cohort's one
// Reserve covers exactly that window — so every bound is met by the first
// k jobs and missed by the next. Each job still gets its own ID, spawn
// event (with Busy before its start), start and place event, in that
// order.
func (c *Controller) admit(s *engine.Simulator, res sched.PassResult, runtime sim.Time, limit int, reason tracing.Reason) int {
	now := s.Now()
	m := s.Machine()
	cpus := c.Spec.CPUs
	k := min(limit, m.Free()/cpus)
	// Utilization cap (Section 4.3.2.2): do not push instantaneous
	// utilization above the cap.
	if c.UtilCap > 0 {
		k = c.underCap(k, m.Busy(), m.Config().CPUs)
	}
	// Figure 1's queue condition against the plan: with an empty queue
	// the plan holds no reservations and this bounds nothing; with a
	// waiting head job it admits exactly the jobs that stay clear of the
	// head's reservation — i.e. backfillWallTime > interstitialRuntime,
	// locally.
	plan := res.Plan
	if c.IgnorePlan {
		plan = nil
	}
	if plan != nil && k > 0 {
		k = min(k, plan.MinFree(now, now+runtime)/cpus)
	}
	if k <= 0 {
		return 0
	}
	if plan != nil {
		plan.Reserve(now, k*cpus, runtime)
	}
	t := s.Tracer()
	for range k {
		c.nextID++
		j := c.record(interstitialIDBase+c.nextID, runtime, now)
		if t != nil {
			t.Emit(now, tracing.KindSpawn, reason, j.ID, j.CPUs, m.Busy(), 0)
		}
		s.StartDirect(j)
		if !c.DiscardRecords {
			c.Jobs = append(c.Jobs, j)
		}
	}
	return k
}

// underCap lowers k to the largest n <= k for which the cap test on n more
// jobs, float64(busy+n·CPUs)/float64(total) > UtilCap, still fails. The
// test is monotone in n, so this is where k admissions one at a time
// would stop; the estimate is corrected against the test itself, so the
// result is float-exact.
func (c *Controller) underCap(k, busy, total int) int {
	cpus := c.Spec.CPUs
	over := func(n int) bool { return float64(busy+n*cpus)/float64(total) > c.UtilCap }
	n := k
	if est := (c.UtilCap*float64(total) - float64(busy)) / float64(cpus); est < float64(k) {
		n = int(max(est, 0))
	}
	for n > 0 && over(n) {
		n--
	}
	for n < k && !over(n+1) {
		n++
	}
	return n
}

// record builds the record of one interstitial job. Every interstitial
// record passes through here: a spare record from Recycle is overwritten
// whole, or a new one is allocated.
//
// Spares are reused oldest first. A fleet's merge hands them back in
// retirement order, so jobs take records in the order they were first
// allocated and the next merge reads them in nearly that memory order,
// as it would fresh ones. Reusing the newest first scattered them: in
// two traced fleet-64 passes the merge's digest fold took 0.22 and 0.26 s,
// against 0.15 and 0.10 s oldest first.
func (c *Controller) record(id int, runtime, now sim.Time) *job.Job {
	var j *job.Job
	if c.spareHead < len(c.spare) {
		j = c.spare[c.spareHead]
		c.spareHead++
		// Reuse the queue's storage once the taken records fill half of
		// it, copying no more than was taken.
		if c.spareHead > len(c.spare)/2 {
			c.spare, c.spareHead = c.spare[:copy(c.spare, c.spare[c.spareHead:])], 0
		}
	} else {
		j = new(job.Job)
	}
	j.ResetInterstitial(id, c.Spec.CPUs, runtime, now)
	return j
}

// Recycle takes back a retired record for reuse as a later job's record.
// The caller hands over its last reference: once recycled, the record may
// become any later interstitial job of this controller. Recycle panics,
// changing nothing, unless j is a Finished interstitial record and the
// controller runs with DiscardRecords (otherwise Jobs still holds it). A
// recycled record is marked Created, so recycling it twice panics.
func (c *Controller) Recycle(j *job.Job) {
	if !c.DiscardRecords {
		panic(fmt.Sprintf("core: recycling job %d on a controller that keeps its Jobs", j.ID))
	}
	if j.Class != job.Interstitial || j.State != job.Finished {
		panic(fmt.Sprintf("core: recycling %s job %d in state %v; only finished interstitial records retire", j.Class, j.ID, j.State))
	}
	j.State = job.Created
	c.spare = append(c.spare, j)
}

// Makespan reports lastFinish - StartAt for a completed finite project. It
// returns an error if the project has not submitted and finished all jobs.
func (c *Controller) Makespan() (sim.Time, error) {
	if c.Limit <= 0 {
		return 0, fmt.Errorf("core: makespan is defined for finite projects")
	}
	if !c.Done() {
		return 0, fmt.Errorf("core: project incomplete: %d/%d jobs submitted, %d preempted remainders pending", c.created, c.Limit, len(c.backlog))
	}
	var last sim.Time
	for _, j := range c.Jobs {
		if j.Finish < 0 {
			return 0, fmt.Errorf("core: job %d never finished", j.ID)
		}
		if j.Finish > last {
			last = j.Finish
		}
	}
	return last - c.StartAt, nil
}
