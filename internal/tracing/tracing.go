// Package tracing records every scheduler decision a simulation makes as
// a typed, fixed-size event: native submissions, head-of-queue starts,
// backfill hole fills, interstitial spawn/place/kill decisions, and
// capacity restores. The paper's tables are aggregates over
// millions of such decisions; a trace makes one run auditable — *why* did
// this efficiency number move — without re-deriving the event stream from
// counters.
//
// Design constraints, in order:
//
//  1. Zero cost when disabled. Every instrumentation site is a nil-check
//     on a plain pointer; a nil *Tracer is inert (its methods are safe
//     no-ops), so the untraced path differs from the pre-tracing code by
//     one never-taken branch and stays inside the benchgate budget.
//  2. Bounded overhead when enabled. A Tracer is a per-run, lock-free
//     ring buffer owned by the simulation's single goroutine: Emit is an
//     index bump and a struct store, no locks, no per-event allocation
//     once the buffer has grown. Long runs are bounded by head/tail
//     sampling: the first half of the budget keeps the earliest events,
//     the rest is a ring over the latest, and everything in between is
//     counted as dropped.
//  3. Deterministic output. Events carry the kernel's simulated time and
//     a per-run sequence number; runs are exported sorted by their unique
//     labels, so two identical simulations — at any worker count —
//     produce byte-identical trace files.
package tracing

import (
	"fmt"
	"sort"
	"sync"

	"interstitial/internal/sim"
)

// Kind is the decision type of one trace event.
type Kind uint8

// The event taxonomy. Every scheduler decision in the simulator maps to
// exactly one kind; the Reason refines it (which backfill flavor, why a
// job was killed, ...).
const (
	// KindSubmit: a native job entered the wait queue.
	KindSubmit Kind = iota + 1
	// KindStart: a native job was dispatched in priority order (queue
	// head or its reservation coming due).
	KindStart
	// KindBackfill: a native job was dispatched ahead of the queue — the
	// backfill hole fill.
	KindBackfill
	// KindFinish: a native or interstitial job ran to completion.
	KindFinish
	// KindSpawn: the interstitial controller admitted one work unit
	// (fresh, or a continuation of preempted work). Aux is always 0.
	KindSpawn
	// KindPlace: a job was placed directly on the machine, bypassing the
	// native queue (interstitial fill or omniscient pack batch). A
	// maintenance drain is never placed: it starts through the queue.
	KindPlace
	// KindKill: a running interstitial job was killed (youngest-first
	// preemption for the native head).
	KindKill
	// KindRestore: a maintenance occupation (a scheduled drain) ended,
	// returning CPUs to the pool.
	KindRestore
	// KindRunBegin / KindRunEnd bracket one kernel run (sim.Engine.Run /
	// RunUntil); RunEnd's Aux carries the events executed so far.
	KindRunBegin
	KindRunEnd
	// KindRoute: the federation router granted one interstitial work unit
	// to a shard (Job = fleet-wide unit sequence, CPUs = unit width, Busy
	// = the destination shard's busy CPUs, Aux = destination shard index).
	KindRoute
	// KindSteal: the federation router moved queued entitlement between
	// shards at a barrier (Job = victim shard index, CPUs = units moved,
	// Aux = thief shard index).
	KindSteal

	kindCount // sentinel; keep last
)

var kindNames = [kindCount]string{
	KindSubmit:   "submit",
	KindStart:    "start",
	KindBackfill: "backfill",
	KindFinish:   "finish",
	KindSpawn:    "spawn",
	KindPlace:    "place",
	KindKill:     "kill",
	KindRestore:  "restore",
	KindRunBegin: "run-begin",
	KindRunEnd:   "run-end",
	KindRoute:    "route",
	KindSteal:    "steal",
}

// String names the kind as it appears in exports.
func (k Kind) String() string {
	if k > 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind inverts String for the schema validator.
func ParseKind(s string) (Kind, bool) {
	for k := Kind(1); k < kindCount; k++ {
		if kindNames[k] == s {
			return k, true
		}
	}
	return 0, false
}

// Reason refines a Kind with the specific rule that fired.
type Reason uint8

// Decision reasons. ReasonNone is valid for kinds that need no refinement
// (finish, run boundaries).
const (
	ReasonNone Reason = iota
	// ReasonQueued: submission joined the native wait queue.
	ReasonQueued
	// ReasonHeadOfQueue: started as the highest-priority waiting job.
	ReasonHeadOfQueue
	// ReasonEASYBackfill / ReasonConservativeBackfill: which backfill
	// flavor let the job jump the queue.
	ReasonEASYBackfill
	ReasonConservativeBackfill
	// ReasonFresh / ReasonContinuation: spawn of a new work unit vs. the
	// resubmitted remainder of a preempted one.
	ReasonFresh
	ReasonContinuation
	// ReasonInterstitialFill: placed into idle CPUs by the Figure 1
	// controller. ReasonOmniscientPack: placed by the perfect-knowledge
	// packer (Job carries the batch index, Aux the batch size).
	ReasonInterstitialFill
	ReasonOmniscientPack
	// ReasonMaintenance: a maintenance-class occupation (a scheduled
	// drain) gave its CPUs back. It labels the drain's restore; the drain
	// itself starts through the queue as a start or backfill.
	ReasonMaintenance
	// ReasonHeadBlocked: killed youngest-first because it stood between
	// the native head job and its CPUs.
	ReasonHeadBlocked
	// ReasonRouted: the federation policy picked this shard for a fresh
	// work unit. ReasonMigrated: the pick moved a locality-aware policy's
	// home shard. ReasonStolen: the unit's entitlement moved to an idle
	// shard at a barrier steal.
	ReasonRouted
	ReasonMigrated
	ReasonStolen

	reasonCount // sentinel; keep last
)

var reasonNames = [reasonCount]string{
	ReasonNone:                 "",
	ReasonQueued:               "queued",
	ReasonHeadOfQueue:          "head-of-queue",
	ReasonEASYBackfill:         "easy-backfill",
	ReasonConservativeBackfill: "conservative-backfill",
	ReasonFresh:                "fresh",
	ReasonContinuation:         "continuation",
	ReasonInterstitialFill:     "interstitial-fill",
	ReasonOmniscientPack:       "omniscient-pack",
	ReasonMaintenance:          "maintenance",
	ReasonHeadBlocked:          "head-blocked",
	ReasonRouted:               "routed",
	ReasonMigrated:             "migrated",
	ReasonStolen:               "stolen",
}

// String names the reason; ReasonNone is the empty string (omitted in
// exports).
func (r Reason) String() string {
	if int(r) < len(reasonNames) {
		return reasonNames[r]
	}
	return fmt.Sprintf("reason(%d)", uint8(r))
}

// ParseReason inverts String; the empty string is ReasonNone.
func ParseReason(s string) (Reason, bool) {
	for r := Reason(0); r < reasonCount; r++ {
		if reasonNames[r] == s {
			return r, true
		}
	}
	return 0, false
}

// NoBusy marks an event with no machine context (kernel run boundaries,
// omniscient packs into a recorded timeline).
const NoBusy = -1

// Event is one recorded decision. It is a fixed-size value — no pointers,
// no strings — so a full ring buffer is one flat allocation.
type Event struct {
	// Seq is the per-run emission sequence, starting at 1. Gaps appear
	// only where sampling dropped the middle of a long run.
	Seq uint64
	// At is the simulated time of the decision.
	At sim.Time
	// Kind and Reason type the decision.
	Kind   Kind
	Reason Reason
	// Job is the job the decision concerns (0 when none, e.g. run
	// boundaries; the omniscient packer stores the batch index).
	Job int
	// CPUs is the CPU count the decision moved (job width, drain size).
	CPUs int
	// Busy is the machine's busy CPU count *after* the decision, or
	// NoBusy when the event has no machine context.
	Busy int
	// Aux is kind-specific: submit → user estimate; start/backfill →
	// wait seconds; spawn → 0; finish/restore/place → runtime; kill →
	// victim age (seconds since start); run-end → events executed.
	Aux int64
}

// Tracer records one run's events into a bounded buffer. It is owned by
// the simulation's single goroutine — Emit takes no locks — and must not
// be shared across concurrently running simulations. A nil *Tracer is
// inert: every method is a safe no-op, which is the disabled fast path.
type Tracer struct {
	run     string
	machine string
	cpus    int

	seq  uint64
	head []Event // first headCap events, kept verbatim
	tail []Event // ring over the latest events once head is full

	headCap int
	tailCap int
	tailPos int // next slot to overwrite in tail
}

// newTracer builds a tracer with the given sample budget. cap <= 0 keeps
// every event; otherwise the first cap/2 events and a ring over the last
// cap-cap/2 survive, and the middle is dropped (counted).
func newTracer(run, machine string, cpus, sampleCap int) *Tracer {
	t := &Tracer{run: run, machine: machine, cpus: cpus}
	if sampleCap > 0 {
		t.headCap = sampleCap / 2
		t.tailCap = sampleCap - t.headCap
	}
	return t
}

// Run reports the tracer's unique run label.
func (t *Tracer) Run() string {
	if t == nil {
		return ""
	}
	return t.run
}

// Machine reports the traced machine's name ("" when the run has no
// machine, e.g. an omniscient pack).
func (t *Tracer) Machine() string {
	if t == nil {
		return ""
	}
	return t.machine
}

// CPUs reports the traced machine's total CPU count (0 when unknown).
func (t *Tracer) CPUs() int {
	if t == nil {
		return 0
	}
	return t.cpus
}

// Emit records one decision. Calling Emit on a nil tracer is a no-op, but
// hot call sites should still guard with `if t != nil` so the disabled
// path does not even evaluate the arguments.
func (t *Tracer) Emit(at sim.Time, kind Kind, reason Reason, jobID, cpus, busy int, aux int64) {
	if t == nil {
		return
	}
	t.seq++
	e := Event{Seq: t.seq, At: at, Kind: kind, Reason: reason, Job: jobID, CPUs: cpus, Busy: busy, Aux: aux}
	switch {
	case t.headCap == 0 && t.tailCap == 0: // unbounded
		t.head = append(t.head, e)
	case len(t.head) < t.headCap:
		t.head = append(t.head, e)
	case t.tailCap > 0:
		if len(t.tail) < t.tailCap {
			t.tail = append(t.tail, e)
		} else {
			t.tail[t.tailPos] = e
			t.tailPos = (t.tailPos + 1) % t.tailCap
		}
	}
}

// RunBegin implements the kernel's run hook (sim.Engine.SetRunHook): it
// marks the start of one Run/RunUntil.
func (t *Tracer) RunBegin(at sim.Time) {
	if t == nil {
		return
	}
	t.Emit(at, KindRunBegin, ReasonNone, 0, 0, NoBusy, 0)
}

// RunEnd marks the end of one kernel run; executed is the kernel's
// cumulative event count.
func (t *Tracer) RunEnd(at sim.Time, executed uint64) {
	if t == nil {
		return
	}
	t.Emit(at, KindRunEnd, ReasonNone, 0, 0, NoBusy, int64(executed))
}

// Emitted reports how many events were ever emitted on this tracer.
func (t *Tracer) Emitted() uint64 {
	if t == nil {
		return 0
	}
	return t.seq
}

// Dropped reports how many emitted events the sample budget discarded.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.seq - uint64(len(t.head)) - uint64(len(t.tail))
}

// Events returns the surviving events in emission (= time) order: the
// head verbatim, then the tail ring unrolled oldest-first. The returned
// slice is freshly allocated.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, 0, len(t.head)+len(t.tail))
	out = append(out, t.head...)
	if len(t.tail) == t.tailCap {
		out = append(out, t.tail[t.tailPos:]...)
		out = append(out, t.tail[:t.tailPos]...)
	} else {
		out = append(out, t.tail...)
	}
	return out
}

// Collector owns the tracers of one traced workload (a Lab run, a CLI
// invocation): it hands out per-run tracers and aggregates them for
// export. Registration is mutex-guarded (it happens once per run, off the
// hot path); a nil *Collector hands out nil tracers, so "tracing off" is
// a single nil collector at the top of the stack.
type Collector struct {
	sampleCap int

	mu      sync.Mutex
	tracers []*Tracer
	byRun   map[string]bool
}

// NewCollector builds a collector whose tracers each keep at most
// sampleCap events (<= 0: unbounded).
func NewCollector(sampleCap int) *Collector {
	return &Collector{sampleCap: sampleCap, byRun: make(map[string]bool)}
}

// Tracer registers and returns the tracer for one run. Run labels must be
// unique within a collector — they are the deterministic export order —
// so a duplicate label panics (labels are code, not input). On a nil
// collector it returns nil, the inert tracer.
func (c *Collector) Tracer(run, machine string, cpus int) *Tracer {
	if c == nil {
		return nil
	}
	t := newTracer(run, machine, cpus, c.sampleCap)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.byRun[run] {
		panic(fmt.Sprintf("tracing: duplicate run label %q", run))
	}
	c.byRun[run] = true
	c.tracers = append(c.tracers, t)
	return t
}

// Runs returns the registered tracers sorted by run label — the export
// order, independent of registration (i.e. goroutine scheduling) order.
// The tracers themselves must be quiescent: read them only after their
// simulations finished.
func (c *Collector) Runs() []*Tracer {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	out := make([]*Tracer, len(c.tracers))
	copy(out, c.tracers)
	c.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].run < out[k].run })
	return out
}

// Totals reports (emitted, dropped) summed over every registered tracer.
func (c *Collector) Totals() (emitted, dropped uint64) {
	for _, t := range c.Runs() {
		emitted += t.Emitted()
		dropped += t.Dropped()
	}
	return emitted, dropped
}
