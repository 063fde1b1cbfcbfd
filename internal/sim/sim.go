// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is intentionally minimal: a clock, a priority queue of timed
// events, and a run loop. Determinism is guaranteed by breaking time ties
// with a monotonically increasing sequence number, so two events scheduled
// for the same instant always fire in scheduling order regardless of heap
// internals.
//
// The event heap is hand-rolled over a slice of *item and fired items are
// recycled through a free list, so steady-state scheduling allocates
// nothing: the hot loop of a long simulation touches only memory it has
// already touched. Handles stay safe across recycling because each carries
// the sequence number of the scheduling it refers to; a Cancel on a handle
// whose item has since been reused is a no-op.
//
// Bursty workloads (thousands of identical interstitial jobs finishing at
// one instant) are amortized by one mechanism: a Batch chains events that
// share one (at, prio) key into a single heap slot, so k same-instant
// schedulings cost one sift-up, and the run loop hands the slot down the
// chain without a sift, so the burst costs one sift-down.
//
// Simulated time is measured in integer seconds from the start of the
// simulation (Time). All higher layers (machines, schedulers, the
// interstitial controller) share this time base. The clock advances by
// jumping straight to the next event's instant — empty time costs nothing
// — and Stats counts the jumps.
package sim

import (
	"context"
	"fmt"
)

// Time is simulated time in seconds since the simulation epoch.
type Time int64

// Infinity is a sentinel time later than any event a simulation schedules.
const Infinity Time = 1<<62 - 1

// Hours converts a duration in hours to simulated seconds.
func Hours(h float64) Time { return Time(h * 3600) }

// Seconds reports t as a float64 number of seconds.
func (t Time) Seconds() float64 { return float64(t) }

// HoursF reports t as a float64 number of hours.
func (t Time) HoursF() float64 { return float64(t) / 3600 }

// Event is a unit of work scheduled to execute at a simulated instant.
type Event interface {
	// Execute runs the event's effect against the simulation.
	Execute(e *Engine)
}

// EventFunc adapts a plain function to the Event interface.
type EventFunc func(e *Engine)

// Execute calls f(e).
func (f EventFunc) Execute(e *Engine) { f(e) }

// item is a scheduled event inside the heap. Items are pooled: after an
// item fires (or is drained dead) it returns to the engine's free list and
// its next scheduling overwrites every field, bumping seq.
//
// next links a batch chain: events scheduled through a Batch with the same
// (at, prio) and consecutive seqs hang off the first item's next pointers,
// occupying a single heap slot. When the head leaves the heap its
// successor takes over the slot (see take) — in seq order, which is
// exactly (at, prio, seq) order because no other scheduling can
// interleave a consecutive-seq run.
type item struct {
	at    Time
	seq   uint64
	prio  int // lower fires first among equal (at); used to order phases within an instant
	event Event
	next  *item // batch chain; nil for singly scheduled events
	dead  bool
}

// before reports heap order: (at, prio, seq) lexicographic.
func (a *item) before(b *item) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// Handle identifies a scheduled event so it can be cancelled. It pins the
// scheduling, not the storage: once the event has fired and its item has
// been recycled for a later scheduling, the handle silently expires.
type Handle struct {
	it  *item
	seq uint64
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (h Handle) Cancel() {
	if h.it != nil && h.it.seq == h.seq {
		h.it.dead = true
	}
}

// Engine is the simulation kernel: a clock plus a pending-event set.
// The zero value is ready to use.
type Engine struct {
	now      Time
	seq      uint64
	events   []*item // 4-ary min-heap ordered by item.before
	free     []*item // recycled items
	executed uint64
	stopped  bool

	// npending counts live-or-cancelled events not yet fired or drained.
	// It exists because batch chains keep len(events) below the true
	// pending count.
	npending int

	// Kernel counters. These are plain ints, not atomics: an Engine is
	// single-goroutine by contract and the per-event budget (~20 ns) has
	// no room for synchronized updates. allocs and drained bump only on
	// cold paths (free-list miss, cancelled-event drain); heapHW costs one
	// almost-never-taken branch per scheduling.
	allocs  uint64 // item allocations = free-list misses
	drained uint64 // cancelled events removed without firing
	heapHW  int    // pending-set high-water mark

	// spanJumps counts forward clock jumps in the run loop.
	spanJumps uint64

	// Cooperative cancellation (SetContext): Run and RunUntil poll done
	// every cancelCheckEvery events and bail out with interrupted set.
	// A nil done channel keeps the original, check-free run loop, so a
	// simulation that never arms cancellation pays nothing for it.
	done        <-chan struct{}
	interrupted bool

	// Optional run observer (SetRunHook). Only consulted at Run/RunUntil
	// entry and exit — never inside the event loop — so the hook's cost is
	// two virtual calls per run, not per event.
	hook RunHook
}

// RunHook observes run-loop boundaries. The kernel calls RunBegin when
// Run or RunUntil starts and RunEnd when it returns, passing the clock
// and the cumulative executed-event count. Implementations must not
// schedule events or otherwise re-enter the engine.
type RunHook interface {
	RunBegin(at Time)
	RunEnd(at Time, executed uint64)
}

// SetRunHook installs (or, with nil, removes) the run observer.
func (e *Engine) SetRunHook(h RunHook) { e.hook = h }

// cancelCheckEvery is how many events fire between cancellation polls.
// It must be a power of two (the check is a mask on the executed count):
// small enough that a multi-million-event run stops within microseconds
// of cancellation, large enough that the poll vanishes against the
// per-event budget.
const cancelCheckEvery = 4096

// SetContext arms cooperative cancellation: while the context is live the
// engine runs exactly as before, and once it is cancelled Run/RunUntil
// return within cancelCheckEvery events, leaving Interrupted true. A nil
// context (or one that can never be cancelled) disarms the check
// entirely, so cancellation support cannot perturb an unarmed run.
func (e *Engine) SetContext(ctx context.Context) {
	if ctx == nil {
		e.done = nil
		return
	}
	e.done = ctx.Done()
}

// Interrupted reports whether a run was aborted by context cancellation.
// It stays true once set; the pending-event set is preserved, so an
// interrupted simulation can be inspected (but its results are partial).
func (e *Engine) Interrupted() bool { return e.interrupted }

// cancelled polls the armed done channel; called every cancelCheckEvery
// events from the run loops.
func (e *Engine) cancelled() bool {
	select {
	case <-e.done:
		e.interrupted = true
		return true
	default:
		return false
	}
}

// Stats is a snapshot of the kernel's counters, taken with Stats().
type Stats struct {
	// Scheduled counts every event ever scheduled; Executed the events
	// that fired; Drained the cancelled events removed without firing.
	Scheduled, Executed, Drained uint64
	// FreeListHits counts schedulings served from the item free list;
	// FreeListMisses the schedulings that had to allocate. Their sum is
	// Scheduled.
	FreeListHits, FreeListMisses uint64
	// HeapHighWater is the largest pending-event set ever held.
	HeapHighWater int
	// SpanJumps counts the run loop's forward clock jumps (advances to a
	// strictly later instant). The kernel never steps through empty time:
	// a jump from t to t+3600 is one jump, like a jump from t to t+1.
	SpanJumps uint64
}

// Stats reports the kernel's counters so far. Like every Engine method it
// must be called from the simulation's goroutine.
func (e *Engine) Stats() Stats {
	return Stats{
		Scheduled:      e.seq,
		Executed:       e.executed,
		Drained:        e.drained,
		FreeListHits:   e.seq - e.allocs,
		FreeListMisses: e.allocs,
		HeapHighWater:  e.heapHW,
		SpanJumps:      e.spanJumps,
	}
}

// New returns an empty engine with the clock at 0.
func New() *Engine { return &Engine{} }

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Executed reports how many events have fired so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending reports how many events are scheduled and not yet fired
// (including cancelled events not yet drained).
func (e *Engine) Pending() int { return e.npending }

// Stop halts Run before the next event fires.
func (e *Engine) Stop() { e.stopped = true }

// Schedule enqueues ev to fire at time at. It panics if at precedes the
// current clock, since time travel indicates a logic error in the caller.
func (e *Engine) Schedule(at Time, ev Event) Handle {
	return e.schedule(at, 0, ev)
}

// SchedulePrio enqueues ev at time at with an explicit phase priority;
// among events at the same instant, lower prio fires first. Schedulers use
// this to ensure job completions are processed before scheduling passes at
// the same instant.
func (e *Engine) SchedulePrio(at Time, prio int, ev Event) Handle {
	return e.schedule(at, prio, ev)
}

// newItem takes an item from the free list (or allocates) and initializes
// it for a fresh scheduling, bumping seq.
func (e *Engine) newItem(at Time, prio int, ev Event) *item {
	e.seq++
	var it *item
	if n := len(e.free); n > 0 {
		it = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		*it = item{at: at, seq: e.seq, prio: prio, event: ev}
	} else {
		it = &item{at: at, seq: e.seq, prio: prio, event: ev}
		e.allocs++
	}
	e.npending++
	if e.npending > e.heapHW {
		e.heapHW = e.npending
	}
	return it
}

func (e *Engine) schedule(at Time, prio int, ev Event) Handle {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", at, e.now))
	}
	it := e.newItem(at, prio, ev)
	e.push(it)
	return Handle{it: it, seq: it.seq}
}

// ScheduleAfter enqueues ev to fire d seconds from now.
func (e *Engine) ScheduleAfter(d Time, ev Event) Handle {
	return e.Schedule(e.now+d, ev)
}

// A Batch schedules runs of events that share one (at, prio) key as chains
// occupying a single heap slot: the first event of a run pays the normal
// sift-up, every following one is an O(1) link onto the chain's tail, and
// only the last to fire pays a sift-down as the slot leaves the heap. Fire
// order is identical to the same sequence of SchedulePrio calls — chained
// events hold consecutive sequence numbers, so no other scheduling can
// order between them — and each Add still returns an independently
// cancellable Handle.
//
// A Batch may be held across other engine activity: Add detects when the
// chain can no longer be extended contiguously (another event was
// scheduled in between, the clock reached the batch instant, the tail was
// cancelled) and transparently starts a new chain with a normal
// scheduling. The zero Batch is not usable; obtain one from NewBatch.
type Batch struct {
	e    *Engine
	at   Time
	prio int
	tail *item
}

// NewBatch returns a batch scheduler for instant at and phase prio. It
// panics if at precedes the clock, like Schedule.
func (e *Engine) NewBatch(at Time, prio int) Batch {
	if at < e.now {
		panic(fmt.Sprintf("sim: batch at %d before now %d", at, e.now))
	}
	return Batch{e: e, at: at, prio: prio}
}

// At reports the batch's instant.
func (b *Batch) At() Time { return b.at }

// Bound reports whether the batch is bound to an engine; the zero Batch
// is not. Lets a holder keep one Batch field and rebind it (via NewBatch)
// only when the target instant moves.
func (b *Batch) Bound() bool { return b.e != nil }

// Add schedules ev at the batch's (at, prio), chaining onto the previous
// Add when contiguous (see Batch).
func (b *Batch) Add(ev Event) Handle {
	e := b.e
	// Chain append is sound only when the tail is provably still the
	// latest pending scheduling at this exact key: nothing was scheduled
	// since (seq matches), it cannot have fired (its instant is in the
	// future), and it was not cancelled (a drained tail may already have
	// been recycled).
	if t := b.tail; t != nil && b.at > e.now &&
		t.seq == e.seq && !t.dead && t.at == b.at && t.prio == b.prio {
		it := e.newItem(b.at, b.prio, ev)
		t.next = it
		b.tail = it
		return Handle{it: it, seq: it.seq}
	}
	h := e.schedule(b.at, b.prio, ev)
	b.tail = h.it
	return h
}

// The pending set is a 4-ary min-heap: children of i sit at 4i+1..4i+4.
// A wider node halves the tree depth, so push's bubble-up does half the
// compare-and-swaps and pop's sift-down touches half as many cache lines,
// at the cost of up to four child comparisons per level — a trade that
// favors the kernel's workload, where pushes outnumber sifts and the heap
// holds tens of thousands of items. Heap shape cannot affect simulation
// results: the (at, prio, seq) order is total, so pop order is unique.
const heapArity = 4

// push inserts it into the heap.
func (e *Engine) push(it *item) {
	e.events = append(e.events, it)
	i := len(e.events) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !e.events[i].before(e.events[parent]) {
			break
		}
		e.events[i], e.events[parent] = e.events[parent], e.events[i]
		i = parent
	}
}

// pop removes and returns the minimum item.
func (e *Engine) pop() *item {
	h := e.events
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	e.events = h[:n]
	if n > 0 {
		e.siftDown(0)
	}
	return top
}

// siftDown restores heap order below index i.
func (e *Engine) siftDown(i int) {
	h := e.events
	n := len(h)
	for {
		first := heapArity*i + 1
		if first >= n {
			return
		}
		min := first
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h[c].before(h[min]) {
				min = c
			}
		}
		if !h[min].before(h[i]) {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// recycle returns a fired or drained item to the free list.
func (e *Engine) recycle(it *item) {
	it.event = nil
	it.next = nil
	e.free = append(e.free, it)
}

// take removes and returns the heap minimum. A batch-chain head hands its
// heap slot to its chain successor without a sift: the successor has the
// head's (at, prio) and the next seq, so nothing pending can order between
// them and the slot's heap position stays valid. Any other root pops.
// The caller recycles the returned item, which clears its chain link.
func (e *Engine) take() (top *item) {
	top = e.events[0]
	if top.next == nil {
		return e.pop()
	}
	e.events[0] = top.next
	return top
}

// step fires the next live event, advancing the clock. It reports false
// when no live events remain.
func (e *Engine) step() bool {
	for len(e.events) > 0 {
		it := e.take()
		e.npending--
		if it.dead {
			e.drained++
			e.recycle(it)
			continue
		}
		// The clock moves on an instant's first live event, so an
		// all-cancelled instant drains without a jump.
		if it.at > e.now {
			e.spanJumps++
			e.now = it.at
		}
		e.executed++
		ev := it.event
		e.recycle(it)
		ev.Execute(e)
		return true
	}
	return false
}

// Run executes events until the pending set is empty, Stop is called, or
// an armed context (SetContext) is cancelled.
func (e *Engine) Run() {
	e.stopped = false
	if e.hook != nil {
		e.hook.RunBegin(e.now)
		defer func() { e.hook.RunEnd(e.now, e.executed) }()
	}
	if e.done == nil {
		// Unarmed hot path: identical to the pre-cancellation loop.
		for !e.stopped && e.step() {
		}
		return
	}
	for !e.stopped {
		if e.executed&(cancelCheckEvery-1) == 0 && e.cancelled() {
			return
		}
		if !e.step() {
			return
		}
	}
}

// RunUntil executes events with timestamps <= deadline, then sets the clock
// to deadline (if it has not already passed it). Like Run it honours an
// armed context; on cancellation the clock stays where the run stopped.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	if e.hook != nil {
		e.hook.RunBegin(e.now)
		defer func() { e.hook.RunEnd(e.now, e.executed) }()
	}
	for !e.stopped {
		if e.done != nil && e.executed&(cancelCheckEvery-1) == 0 && e.cancelled() {
			return
		}
		next, ok := e.PeekTime()
		if !ok || next > deadline {
			break
		}
		e.step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// PeekTime reports the timestamp of the next live event, draining any
// cancelled events ahead of it.
func (e *Engine) PeekTime() (Time, bool) {
	for len(e.events) > 0 {
		top := e.events[0]
		if !top.dead {
			return top.at, true
		}
		e.npending--
		e.drained++
		e.recycle(e.take())
	}
	return 0, false
}
