package engine

import (
	"fmt"
	"sort"

	"interstitial/internal/job"
	"interstitial/internal/machine"
	"interstitial/internal/sched"
	"interstitial/internal/sim"
)

// Checkpoint is a serializable snapshot of a quiescent simulation: the
// clock, the machine ledger and running set, the wait queue, the pending
// (submitted-but-not-arrived) buffer, the pass-elision state, the
// counters, and the policy accounting. It round-trips through JSON (all
// floats survive Go's JSON float64 encoding exactly), and a simulator
// restored from it continues bit-identically to the one that took it —
// the week-long-run resume path.
//
// What it does not carry: the job source (reattach a fresh stream and
// Skip(SourcePulled)), the AfterPass controller (checkpoint its State
// alongside; see core.Controller), tracers, contexts, and the kernel's
// observational event counters, which restart from zero.
type Checkpoint struct {
	Version int           `json:"version"`
	Now     sim.Time      `json:"now"`
	Machine machine.State `json:"machine"`

	// Running holds the running jobs in the machine's internal slice
	// order (so later swap-removals replay identically). FinishRank[i]
	// is Running[i]'s rank in finish-event scheduling order: restore
	// re-arms the finish events in that order, because same-instant
	// completions fire in scheduling order and fair-share accounting
	// sums floats in firing order.
	Running    []job.Job `json:"running"`
	FinishRank []int     `json:"finishRank"`

	// Queue holds the waiting jobs in dispatch-slice order, of which the
	// first QueueOrdered are an ordered prefix (see sched.Queue).
	Queue        []job.Job `json:"queue"`
	QueueOrdered int       `json:"queueOrdered"`

	// Pending holds the materialized submitted-but-not-arrived buffer.
	// SourcePulled counts jobs ever consumed from an attached JobSource
	// (including those long finished): a resuming consumer rebuilds the
	// source and Skip()s this many before reattaching.
	Pending      []job.Job `json:"pending"`
	SourcePulled int64     `json:"sourcePulled"`

	// Pass-elision state (see Simulator): restored verbatim so the
	// continuation elides and schedules exactly as the original would.
	LastPassAt  sim.Time   `json:"lastPassAt"`
	Dirty       bool       `json:"dirty"`
	TimedPassAt sim.Time   `json:"timedPassAt"`
	ExtPasses   []sim.Time `json:"extPasses,omitempty"`

	Counters Counters          `json:"counters"`
	Policy   sched.PolicyState `json:"policy"`
}

// Counters is the serializable subset of Stats (the kernel's event
// counters are observational and restart on restore).
type Counters struct {
	Submitted    uint64 `json:"submitted"`
	Dispatched   uint64 `json:"dispatched"`
	Backfilled   uint64 `json:"backfilled"`
	DirectStarts uint64 `json:"directStarts"`
	Kills        uint64 `json:"kills"`
	Passes       uint64 `json:"passes"`
	PassesElided uint64 `json:"passesElided"`
}

// checkpointVersion guards the format; bump on incompatible change.
const checkpointVersion = 1

// Checkpoint snapshots the simulator at the current instant. The
// simulator must be quiescent — no event armed at or before Now — which
// is exactly the state RunUntil(T) leaves it in; checkpointing mid-
// instant is an error. The policy must implement sched.Stateful (all
// built-in policies do).
func (s *Simulator) Checkpoint() (*Checkpoint, error) {
	now := s.eng.Now()
	if t, ok := s.eng.PeekTime(); ok && t <= now {
		return nil, fmt.Errorf("engine: checkpoint at %d with an event pending at %d; checkpoint only after RunUntil", now, t)
	}
	if s.passPending {
		return nil, fmt.Errorf("engine: checkpoint with a scheduling pass pending")
	}
	sp, ok := s.disp.Policy().(sched.Stateful)
	if !ok {
		return nil, fmt.Errorf("engine: policy %s does not support checkpointing", s.disp.Policy().Name())
	}

	cp := &Checkpoint{
		Version:      checkpointVersion,
		Now:          now,
		Machine:      s.m.State(),
		QueueOrdered: s.queue.Ordered(),
		SourcePulled: s.sourcePulled,
		LastPassAt:   s.lastPassAt,
		Dirty:        s.dirty,
		TimedPassAt:  s.timedPassAt,
		Counters: Counters{
			Submitted:    s.stats.Submitted,
			Dispatched:   s.stats.Dispatched,
			Backfilled:   s.stats.Backfilled,
			DirectStarts: s.stats.DirectStarts,
			Kills:        s.stats.Kills,
			Passes:       s.stats.Passes,
			PassesElided: s.stats.PassesElided,
		},
		Policy: sp.PolicyState(),
	}

	running := s.m.RunningBorrow()
	cp.Running = make([]job.Job, len(running))
	stamps := make([]uint64, len(running))
	for i, j := range running {
		rec, ok := s.finishEvents[j.ID]
		if !ok {
			return nil, fmt.Errorf("engine: running job %d has no armed finish event", j.ID)
		}
		cp.Running[i] = *j
		stamps[i] = rec.stamp
	}
	// Rank the running jobs by finish-event scheduling order.
	order := make([]int, len(stamps))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return stamps[order[a]] < stamps[order[b]] })
	cp.FinishRank = make([]int, len(order))
	for rank, i := range order {
		cp.FinishRank[i] = rank
	}

	cp.Queue = make([]job.Job, s.queue.Len())
	for i := range cp.Queue {
		cp.Queue[i] = *s.queue.At(i)
	}
	cp.Pending = make([]job.Job, len(s.pending))
	for i, j := range s.pending {
		cp.Pending[i] = *j
	}
	for t := range s.extPasses {
		cp.ExtPasses = append(cp.ExtPasses, t)
	}
	sort.Slice(cp.ExtPasses, func(a, b int) bool { return cp.ExtPasses[a] < cp.ExtPasses[b] })
	return cp, nil
}

// Restore reconstructs a simulator from a checkpoint. cfg and pol must
// match the checkpointed simulator's construction (pol freshly built;
// its accounting is overwritten from the snapshot). The caller then
// reattaches its collaborators before running: the retire hook or
// Finished consumer, the AfterPass controller (restored from its own
// State), and the job source repositioned with Skip(cp.SourcePulled).
// The continuation is bit-identical to a run that never stopped.
func Restore(cfg machine.Config, pol sched.Policy, cp *Checkpoint) (*Simulator, error) {
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("engine: checkpoint version %d, want %d", cp.Version, checkpointVersion)
	}
	sp, ok := pol.(sched.Stateful)
	if !ok {
		return nil, fmt.Errorf("engine: policy %s does not support checkpointing", pol.Name())
	}
	if len(cp.FinishRank) != len(cp.Running) {
		return nil, fmt.Errorf("engine: %d finish ranks for %d running jobs", len(cp.FinishRank), len(cp.Running))
	}

	s := New(cfg, pol)
	// Advance the empty engine's clock to the snapshot instant; nothing
	// fires.
	s.eng.RunUntil(cp.Now)
	sp.SetPolicyState(cp.Policy)

	// Running set: clone the records, seat them on the machine in the
	// recorded slice order, then arm finish events in the recorded
	// scheduling order.
	running := make([]*job.Job, len(cp.Running))
	byRank := make([]*job.Job, len(cp.Running))
	for i := range cp.Running {
		j := cp.Running[i]
		running[i] = &j
		rank := cp.FinishRank[i]
		if rank < 0 || rank >= len(byRank) || byRank[rank] != nil {
			return nil, fmt.Errorf("engine: corrupt finish ranks")
		}
		byRank[rank] = &j
	}
	if err := s.m.RestoreState(cp.Machine, running); err != nil {
		return nil, err
	}
	for _, j := range byRank {
		if j.Start+j.Runtime <= cp.Now {
			return nil, fmt.Errorf("engine: running job %d finishes at %d, not after checkpoint time %d", j.ID, j.Start+j.Runtime, cp.Now)
		}
		s.scheduleFinish(j)
	}

	qjobs := make([]*job.Job, len(cp.Queue))
	for i := range cp.Queue {
		j := cp.Queue[i]
		qjobs[i] = &j
	}
	s.queue.Restore(qjobs, cp.QueueOrdered)

	s.pending = make([]*job.Job, len(cp.Pending))
	for i := range cp.Pending {
		j := cp.Pending[i]
		s.pending[i] = &j
	}
	s.sourcePulled = cp.SourcePulled
	s.scheduleInject()

	s.lastPassAt = cp.LastPassAt
	s.dirty = cp.Dirty
	s.stats = Stats{
		Submitted:    cp.Counters.Submitted,
		Dispatched:   cp.Counters.Dispatched,
		Backfilled:   cp.Counters.Backfilled,
		DirectStarts: cp.Counters.DirectStarts,
		Kills:        cp.Counters.Kills,
		Passes:       cp.Counters.Passes,
		PassesElided: cp.Counters.PassesElided,
	}
	// Re-arm the timed wake-ups. No pass runs at the restore instant
	// itself: the original already ran (or elided) it before the
	// checkpoint.
	if cp.TimedPassAt > cp.Now && cp.TimedPassAt < sim.Infinity {
		s.schedulePassAt(cp.TimedPassAt)
	}
	for _, t := range cp.ExtPasses {
		if t > cp.Now {
			s.RequestPassAt(t)
		}
	}
	return s, nil
}
