// Package engine couples the discrete-event kernel, the machine model, and
// a scheduling policy into a full supercomputer simulator — the functional
// replacement for the paper's BIRMinator. It replays a native job log
// exactly as recorded (jobs are submitted at their logged times), runs the
// machine's queueing algorithm at every state change, and exposes an
// after-pass hook through which the interstitial controller injects its
// filler jobs.
package engine

import (
	"context"
	"fmt"
	"sort"

	"interstitial/internal/job"
	"interstitial/internal/machine"
	"interstitial/internal/sched"
	"interstitial/internal/sim"
	"interstitial/internal/tracing"
)

// Event phase priorities: completions are observed before new submissions,
// and the scheduling pass runs after all state changes at an instant.
const (
	prioFinish = 0
	prioSubmit = 1
	prioPass   = 2
)

// Simulator is a machine plus its queueing system under simulation.
type Simulator struct {
	eng   *sim.Engine
	m     *machine.Machine
	disp  *sched.Dispatcher
	queue *sched.Queue

	// AfterPass, when set, runs after every native scheduling pass. The
	// interstitial controller lives here.
	AfterPass func(s *Simulator, res sched.PassResult)

	finished []*job.Job
	// retire, when set, receives completed job records instead of the
	// finished slice — the streaming pipeline's O(active jobs) path.
	retire func(*job.Job)

	finishEvents map[int]finishRec // running job ID -> finish event
	// finishBatch chains completion events that target one instant into a
	// single kernel heap slot (see scheduleFinish).
	finishBatch sim.Batch
	// stampGen orders finish-event creation. Checkpoint/restore must
	// reschedule same-instant completions in their original scheduling
	// order: fair-share accounting sums floats in completion-event
	// order, so any other order changes low bits downstream.
	stampGen uint64

	// source, when set, refills pending lazily: at most sourceBuf jobs
	// are materialized ahead of the clock. sourcePulled counts jobs
	// consumed from it (for checkpointing: a fresh stream Skip()s that
	// many to resume).
	source       JobSource
	sourceBuf    int
	sourcePulled int64

	// pending holds submitted-but-not-yet-arrived jobs sorted by Submit
	// time (stable in submission order). A single injector event walks it,
	// so a log of N jobs costs one pending slice instead of N closures and
	// N heap items.
	pending  []*job.Job
	injectAt sim.Time
	inject   sim.Handle

	passPending bool
	timedPassAt sim.Time
	timedPass   sim.Handle

	// dirty records whether any scheduler-visible state (queue, machine
	// occupancy, fair-share charges) changed since the last pass ran;
	// lastPassAt is that pass's instant. Together they let a pass event
	// elide itself: a second pass at the same instant with no intervening
	// mutation is a provable no-op (same inputs, deterministic dispatcher,
	// and the previous pass's plan already armed any timed wake-up).
	// Elision never crosses instants — priorities and time-of-day gates may
	// move with the clock alone.
	dirty      bool
	lastPassAt sim.Time

	// extPasses tracks the future instants RequestPassAt already has
	// events armed for, deduplicating exact repeats (controllers
	// re-request their window openings every pass).
	extPasses map[sim.Time]struct{}

	// tracer records scheduler decisions; nil (the default) is tracing
	// off, and every emit site guards on it.
	tracer *tracing.Tracer

	stats Stats
}

// finishRec is a running job's armed finish event plus its scheduling
// stamp (see stampGen).
type finishRec struct {
	h     sim.Handle
	stamp uint64
}

// JobSource yields jobs in nondecreasing Submit order, one at a time.
// workload.Stream satisfies it; any generator with the same ordering
// contract works.
type JobSource interface {
	Next() (*job.Job, bool)
}

// SetTracer installs the decision tracer on the simulator, its dispatcher,
// and the kernel's run hook. Pass nil to disable; the nil case must not
// reach sim.SetRunHook as a typed non-nil interface, hence the guard.
func (s *Simulator) SetTracer(t *tracing.Tracer) {
	s.tracer = t
	s.disp.SetTracer(t)
	if t != nil {
		s.eng.SetRunHook(t)
	} else {
		s.eng.SetRunHook(nil)
	}
}

// Tracer reports the installed tracer (nil when tracing is off). Layers
// above the engine — the interstitial controller, fault injectors — emit
// their decisions through it.
func (s *Simulator) Tracer() *tracing.Tracer { return s.tracer }

// Stats counts what the simulator did: the scheduler-level view the paper
// reports alongside utilization (submissions, dispatches, backfill fills,
// preemption kills). Plain ints, single-goroutine like the kernel; read a
// consistent copy with Simulator.Stats.
type Stats struct {
	// Submitted counts native jobs handed to Submit/SubmitNow; Dispatched
	// the native jobs started by scheduling passes; Backfilled the subset
	// of dispatches that jumped the queue. DirectStarts counts jobs placed
	// by StartDirect (interstitial fills); Kills the running jobs aborted
	// by Kill (interstitial preemptions). Passes counts scheduling passes.
	Submitted, Dispatched, Backfilled uint64
	DirectStarts, Kills, Passes       uint64
	// PassesElided counts pass events that fired but skipped the dispatcher
	// because nothing changed since a pass at the same instant.
	PassesElided uint64
	// Kernel is the event-kernel view of the same run.
	Kernel sim.Stats
}

// New builds a simulator for the machine configuration and policy.
func New(cfg machine.Config, pol sched.Policy) *Simulator {
	return &Simulator{
		eng:          sim.New(),
		m:            machine.New(cfg),
		disp:         sched.NewDispatcher(pol),
		queue:        sched.NewQueue(),
		finishEvents: make(map[int]finishRec),
		injectAt:     sim.Infinity,
		timedPassAt:  sim.Infinity,
		lastPassAt:   -1,
		extPasses:    make(map[sim.Time]struct{}),
	}
}

// Machine exposes the simulated machine.
func (s *Simulator) Machine() *machine.Machine { return s.m }

// Policy exposes the queueing policy (read-only use, e.g. gate checks).
func (s *Simulator) Policy() sched.Policy { return s.disp.Policy() }

// Queue exposes the native wait queue.
func (s *Simulator) Queue() *sched.Queue { return s.queue }

// Now reports the simulation clock.
func (s *Simulator) Now() sim.Time { return s.eng.Now() }

// Finished returns every job (native and interstitial) that completed, in
// completion order. With a retire hook installed (SetRetire) records go
// to the hook instead and Finished stays empty.
func (s *Simulator) Finished() []*job.Job { return s.finished }

// SetRetire diverts completed job records to fn instead of accumulating
// them on Finished, so a streamed run's live heap stays proportional to
// the active job count. fn runs inside the finish event, in completion
// order — exactly the order Finished would have recorded. Install it
// before running.
func (s *Simulator) SetRetire(fn func(*job.Job)) { s.retire = fn }

// Stats reports the simulator's counters so far, including the kernel's.
func (s *Simulator) Stats() Stats {
	st := s.stats
	st.Kernel = s.eng.Stats()
	return st
}

// Submit schedules the jobs' submissions at their Submit times. Rather
// than wrapping every job in its own closure and heap event, the jobs are
// merged into a sorted pending stream drained by a single self-rescheduling
// injector event — the per-job cost is one slice slot. The queue order at
// any instant is identical to per-job events: jobs arriving at the same
// time are pushed in submission-call order (the sort is stable), and the
// coalesced scheduling pass still runs once after all arrivals.
func (s *Simulator) Submit(jobs ...*job.Job) {
	if len(jobs) == 0 {
		return
	}
	now := s.eng.Now()
	for _, j := range jobs {
		if j.Submit < now {
			panic(fmt.Sprintf("engine: job %d submitted at %d, before now %d", j.ID, j.Submit, now))
		}
	}
	s.stats.Submitted += uint64(len(jobs))
	s.pending = append(s.pending, jobs...)
	sort.SliceStable(s.pending, func(i, k int) bool { return s.pending[i].Submit < s.pending[k].Submit })
	s.scheduleInject()
}

// SubmitStream attaches a job source the simulator pulls from lazily:
// at most buffer jobs sit materialized ahead of the clock (buffer <= 0
// selects a default), so a million-job log costs O(buffer) live records
// instead of O(N). The source must yield jobs in nondecreasing Submit
// order, none in the past. The simulation is bit-identical to
// Submit(all...): jobs join the queue at the same instants in the same
// order, only their materialization is deferred.
func (s *Simulator) SubmitStream(src JobSource, buffer int) {
	if s.source != nil {
		panic("engine: SubmitStream: a source is already attached")
	}
	if buffer <= 0 {
		buffer = 4096
	}
	s.source = src
	s.sourceBuf = buffer
	s.fillFromSource()
	s.scheduleInject()
}

// fillFromSource tops the pending buffer up from the attached source,
// enforcing the source's ordering contract.
func (s *Simulator) fillFromSource() {
	if s.source == nil {
		return
	}
	now := s.eng.Now()
	for len(s.pending) < s.sourceBuf {
		j, ok := s.source.Next()
		if !ok {
			s.source = nil
			return
		}
		if j.Submit < now {
			panic(fmt.Sprintf("engine: streamed job %d submitted at %d, before now %d", j.ID, j.Submit, now))
		}
		if n := len(s.pending); n > 0 && j.Submit < s.pending[n-1].Submit {
			panic(fmt.Sprintf("engine: streamed job %d out of submit order", j.ID))
		}
		s.stats.Submitted++
		s.sourcePulled++
		s.pending = append(s.pending, j)
	}
}

// scheduleInject (re)arms the injector for the earliest pending submission.
func (s *Simulator) scheduleInject() {
	if len(s.pending) == 0 {
		s.injectAt = sim.Infinity
		return
	}
	at := s.pending[0].Submit
	if at == s.injectAt {
		return // already armed at the right instant
	}
	s.inject.Cancel()
	s.injectAt = at
	s.inject = s.eng.SchedulePrio(at, prioSubmit, sim.EventFunc(func(*sim.Engine) {
		s.injectPending()
	}))
}

// injectPending moves every pending job whose time has come onto the
// native queue, requests the coalesced pass, and re-arms the injector.
// With a stream source attached it alternates draining and refilling
// until the buffer's head is in the future (or the source runs dry), so
// bursts larger than the buffer still arrive at the right instant.
func (s *Simulator) injectPending() {
	now := s.eng.Now()
	for {
		i := 0
		for i < len(s.pending) && s.pending[i].Submit <= now {
			j := s.pending[i]
			s.queue.Push(j)
			if s.tracer != nil {
				s.tracer.Emit(now, tracing.KindSubmit, tracing.ReasonQueued, j.ID, j.CPUs, s.m.Busy(), int64(j.Estimate))
			}
			s.pending[i] = nil
			i++
		}
		if i > 0 {
			s.pending = s.pending[i:]
			s.dirty = true
			s.requestPass()
		}
		s.fillFromSource()
		if len(s.pending) == 0 || s.pending[0].Submit > now {
			break
		}
	}
	s.injectAt = sim.Infinity
	s.scheduleInject()
}

// SubmitNow enqueues j at the current instant (used by controllers that
// react to pass results).
func (s *Simulator) SubmitNow(j *job.Job) {
	j.Submit = s.eng.Now()
	s.stats.Submitted++
	s.queue.Push(j)
	if s.tracer != nil {
		s.tracer.Emit(j.Submit, tracing.KindSubmit, tracing.ReasonQueued, j.ID, j.CPUs, s.m.Busy(), int64(j.Estimate))
	}
	s.dirty = true
	s.requestPass()
}

// StartDirect places j on the machine immediately, bypassing the native
// queue. The interstitial controller uses this after it has verified the
// job fits the pass's plan. The job's finish event is scheduled and will
// trigger a new pass like any other completion.
func (s *Simulator) StartDirect(j *job.Job) {
	now := s.eng.Now()
	if j.Submit < 0 || j.Submit > now {
		j.Submit = now
	}
	s.m.Start(now, j)
	s.stats.DirectStarts++
	s.dirty = true
	if s.tracer != nil {
		reason := tracing.ReasonInterstitialFill
		if j.Class == job.Maintenance {
			reason = tracing.ReasonMaintenance
		}
		s.tracer.Emit(now, tracing.KindPlace, reason, j.ID, j.CPUs, s.m.Busy(), int64(j.Runtime))
	}
	s.scheduleFinish(j)
}

func (s *Simulator) scheduleFinish(j *job.Job) {
	s.stampGen++
	at := j.Start + j.Runtime
	// Finishes batch well: a pass that admits a burst of identical
	// interstitial jobs schedules all their completions back to back at
	// one instant, so chaining them into a single heap slot (sim.Batch)
	// makes the whole burst cost one sift-up and one sift-down instead of
	// k of each. The batch rebinds whenever the finish instant moves; any
	// interleaved scheduling makes Batch.Add fall back to a plain
	// scheduling by itself.
	if !s.finishBatch.Bound() || s.finishBatch.At() != at {
		s.finishBatch = s.eng.NewBatch(at, prioFinish)
	}
	s.finishEvents[j.ID] = finishRec{stamp: s.stampGen, h: s.finishBatch.Add(sim.EventFunc(func(*sim.Engine) {
		delete(s.finishEvents, j.ID)
		s.m.Finish(s.eng.Now(), j)
		s.disp.Policy().OnFinish(s.eng.Now(), j)
		if s.retire != nil {
			s.retire(j)
		} else {
			s.finished = append(s.finished, j)
		}
		s.dirty = true
		if s.tracer != nil {
			// A maintenance occupation ending is a capacity restore (outage
			// repaired, kill-latency blocker released), not a job finish.
			kind, reason := tracing.KindFinish, tracing.ReasonNone
			if j.Class == job.Maintenance {
				kind, reason = tracing.KindRestore, tracing.ReasonMaintenance
			}
			s.tracer.Emit(s.eng.Now(), kind, reason, j.ID, j.CPUs, s.m.Busy(), int64(j.Runtime))
		}
		s.requestPass()
	}))}
}

// Kill aborts a running job at the current instant: its finish event is
// cancelled and its CPUs are freed immediately. The job ends in the Killed
// state with no Finish time. Used by preemptive interstitial controllers;
// killing a job that is not running panics.
func (s *Simulator) Kill(j *job.Job) {
	rec, ok := s.finishEvents[j.ID]
	if !ok {
		panic(fmt.Sprintf("engine: killing job %d that has no pending finish", j.ID))
	}
	rec.h.Cancel()
	delete(s.finishEvents, j.ID)
	s.stats.Kills++
	s.m.Release(s.eng.Now(), j)
	s.dirty = true
	s.requestPass()
}

// requestPass coalesces scheduling passes: at most one per instant.
func (s *Simulator) requestPass() {
	if s.passPending {
		return
	}
	s.passPending = true
	s.eng.SchedulePrio(s.eng.Now(), prioPass, sim.EventFunc(func(*sim.Engine) {
		s.passPending = false
		s.pass()
	}))
}

// pass runs one scheduling pass and the after-pass hook. A pass repeated
// at the instant of the previous one with no state change in between is
// elided: the dispatcher would see identical inputs and return an
// identical result, and the previous identical result already drove the
// after-pass hook and armed any timed wake-up.
func (s *Simulator) pass() {
	now := s.eng.Now()
	if now == s.lastPassAt && !s.dirty {
		s.stats.PassesElided++
		return
	}
	s.lastPassAt = now
	s.dirty = false
	res := s.disp.Schedule(now, s.m, s.queue)
	s.stats.Passes++
	s.stats.Dispatched += uint64(len(res.Started))
	s.stats.Backfilled += uint64(res.Backfilled)
	if len(res.Started) > 0 {
		// Dispatches charge fair-share accounts and change occupancy: a
		// further same-instant pass request must run for real.
		s.dirty = true
	}
	for _, j := range res.Started {
		s.scheduleFinish(j)
	}
	// A finite head reservation in the future (a time-of-day gate or a
	// conservative plan) needs a timed wake-up: no submit/finish event may
	// occur before it.
	if res.HeadReservation > now && res.HeadReservation < sim.Infinity {
		s.schedulePassAt(res.HeadReservation)
	}
	if s.AfterPass != nil {
		s.AfterPass(s, res)
	}
}

// RequestPassAt arranges a scheduling pass at time t (>= now). External
// controllers use it to wake the scheduler at instants that no submission
// or completion event would otherwise hit, e.g. the opening of an
// interstitial submission window ("or at given time intervals", Figure 1).
func (s *Simulator) RequestPassAt(t sim.Time) {
	if t < s.eng.Now() {
		t = s.eng.Now()
	}
	if t == s.eng.Now() {
		s.requestPass()
		return
	}
	if _, armed := s.extPasses[t]; armed {
		return // an external pass is already armed at exactly t
	}
	s.extPasses[t] = struct{}{}
	// Independent of the internal reservation wake-up slot (which keeps
	// only the earliest and may be superseded): this one always fires.
	s.eng.SchedulePrio(t, prioPass, sim.EventFunc(func(*sim.Engine) {
		delete(s.extPasses, t)
		s.pass()
	}))
}

// schedulePassAt arranges a pass at time t, keeping only the earliest
// pending timed pass.
func (s *Simulator) schedulePassAt(t sim.Time) {
	if t >= s.timedPassAt && s.timedPassAt > s.eng.Now() {
		return // an earlier (or equal) wake-up is already pending
	}
	s.timedPass.Cancel()
	s.timedPassAt = t
	s.timedPass = s.eng.SchedulePrio(t, prioPass, sim.EventFunc(func(*sim.Engine) {
		s.timedPassAt = sim.Infinity
		s.pass()
	}))
}

// SetContext arms cooperative cancellation on the underlying kernel: a
// cancelled context makes Run/RunUntil return early with Interrupted true.
// See sim.Engine.SetContext for the exact contract.
func (s *Simulator) SetContext(ctx context.Context) { s.eng.SetContext(ctx) }

// Interrupted reports whether the last Run/RunUntil was aborted by context
// cancellation; an interrupted simulator's results are partial.
func (s *Simulator) Interrupted() bool { return s.eng.Interrupted() }

// ScheduleAt runs fn at simulated time t (>= now), in the submit phase so
// completions at the same instant are observed first and the coalesced
// scheduling pass still runs after. Fault injectors use this to perturb
// the machine mid-run.
func (s *Simulator) ScheduleAt(t sim.Time, fn func(*Simulator)) {
	s.eng.SchedulePrio(t, prioSubmit, sim.EventFunc(func(*sim.Engine) {
		fn(s)
		// fn is opaque and may have perturbed anything; never let a pass
		// at this instant be elided.
		s.dirty = true
	}))
}

// Run executes the simulation to completion: all submitted jobs finished
// and no events pending.
func (s *Simulator) Run() { s.eng.Run() }

// RunUntil executes events up to the deadline.
func (s *Simulator) RunUntil(t sim.Time) { s.eng.RunUntil(t) }

// CheckInvariants validates machine bookkeeping and every finished job.
func (s *Simulator) CheckInvariants() error {
	if err := s.m.CheckInvariants(); err != nil {
		return err
	}
	for _, j := range s.finished {
		if err := j.Validate(); err != nil {
			return err
		}
	}
	return nil
}
