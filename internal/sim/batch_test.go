package sim

import (
	"fmt"
	"testing"
)

// recorder appends its id to *got when fired.
func recorder(got *[]int, id int) Event {
	return EventFunc(func(*Engine) { *got = append(*got, id) })
}

// batch schedules evs at (at, 0) through one Batch, in argument order.
func batch(e *Engine, at Time, evs ...Event) {
	b := e.NewBatch(at, 0)
	for _, ev := range evs {
		b.Add(ev)
	}
}

func TestBatchFiresInOrder(t *testing.T) {
	e := New()
	var got []int
	e.Schedule(5, recorder(&got, 100))
	batch(e, 3, recorder(&got, 0), recorder(&got, 1), recorder(&got, 2))
	batch(e, 3, recorder(&got, 3), recorder(&got, 4))
	e.Schedule(3, recorder(&got, 5))
	e.Run()
	want := []int{0, 1, 2, 3, 4, 5, 100}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fire order %v, want %v", got, want)
	}
	if e.Now() != 5 {
		t.Fatalf("clock %d, want 5", e.Now())
	}
}

// A batch interleaved with ordinary schedulings must fire exactly like the
// equivalent sequence of Schedule calls: the chain silently breaks and
// order falls back to (at, prio, seq).
func TestBatchInterleavedWithSchedules(t *testing.T) {
	e := New()
	var got []int
	b := e.NewBatch(10, 0)
	b.Add(recorder(&got, 0))
	e.Schedule(10, recorder(&got, 1)) // breaks the chain: tail is no longer e.seq
	b.Add(recorder(&got, 2))
	e.SchedulePrio(10, -1, recorder(&got, 3)) // earlier phase, fires first
	b.Add(recorder(&got, 4))
	e.Run()
	want := []int{3, 0, 1, 2, 4}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fire order %v, want %v", got, want)
	}

	// An unbroken chain whose head is taken while plain schedulings at the
	// same (at, prio) and at a later phase sit in the heap below it: each
	// member hands the root slot to its successor without a sift, and the
	// slot must still order before every one of them.
	got = got[:0]
	c := e.NewBatch(20, 0)
	c.Add(recorder(&got, 0))
	c.Add(recorder(&got, 1))
	c.Add(recorder(&got, 2))
	e.SchedulePrio(20, 1, recorder(&got, 3))  // later phase
	e.Schedule(20, recorder(&got, 4))         // same key, later seq
	e.SchedulePrio(20, -1, recorder(&got, 5)) // earlier phase, fires first
	e.Schedule(20, recorder(&got, 6))
	e.RunUntil(20)
	want = []int{5, 0, 1, 2, 4, 6, 3}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fire order %v, want %v", got, want)
	}
}

// Cancelling a later batch member from inside the same instant's drain
// must suppress it, even though it shares the firing member's heap slot.
func TestCancelInsideSameInstantBatchDrain(t *testing.T) {
	e := New()
	var got []int
	b := e.NewBatch(7, 0)
	var victim Handle
	b.Add(EventFunc(func(*Engine) {
		got = append(got, 0)
		victim.Cancel()
	}))
	b.Add(recorder(&got, 1))
	victim = b.Add(recorder(&got, 2))
	b.Add(recorder(&got, 3))
	e.Run()
	want := []int{0, 1, 3}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fire order %v, want %v", got, want)
	}
	if st := e.Stats(); st.Drained != 1 || st.Executed != 3 {
		t.Fatalf("stats %+v, want Drained=1 Executed=3", st)
	}
}

// A Batch held past its instant must not chain onto a tail that already
// fired: once the clock reaches the batch instant, Add falls back to a
// plain scheduling, which still fires at that instant.
func TestBatchAddAfterTailFired(t *testing.T) {
	e := New()
	var got []int
	b := e.NewBatch(5, 0)
	b.Add(recorder(&got, 0))
	e.RunUntil(5)
	b.Add(recorder(&got, 1))
	e.Run()
	if fmt.Sprint(got) != fmt.Sprint([]int{0, 1}) {
		t.Fatalf("fired %v, want [0 1]", got)
	}
}

// RunUntil with the deadline exactly on a batched instant must fire the
// whole batch and leave the clock on the deadline.
func TestRunUntilLandsOnBatchedInstant(t *testing.T) {
	e := New()
	var got []int
	batch(e, 9, recorder(&got, 0), recorder(&got, 1), recorder(&got, 2))
	e.Schedule(10, recorder(&got, 99))
	e.RunUntil(9)
	if fmt.Sprint(got) != fmt.Sprint([]int{0, 1, 2}) {
		t.Fatalf("fired %v, want [0 1 2]", got)
	}
	if e.Now() != 9 {
		t.Fatalf("clock %d, want 9", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending %d, want 1", e.Pending())
	}
	e.Run()
	if fmt.Sprint(got) != fmt.Sprint([]int{0, 1, 2, 99}) {
		t.Fatalf("fired %v after Run, want [0 1 2 99]", got)
	}
}

// An event scheduled for the current instant from inside that instant's
// drain fires before the clock moves on, ordered by (prio, seq) among the
// remaining events — including the rest of the firing event's chain.
func TestScheduleIntoCurrentInstant(t *testing.T) {
	e := New()
	var got []int
	batch(e, 4,
		EventFunc(func(e *Engine) {
			got = append(got, 0)
			e.Schedule(4, recorder(&got, 9))         // same prio: after remaining seq-order peers
			e.SchedulePrio(4, -1, recorder(&got, 8)) // lower prio value still pending? fires first
			e.Schedule(e.Now()+1, recorder(&got, 7)) // next instant
		}),
		recorder(&got, 1))
	e.Run()
	want := []int{0, 8, 1, 9, 7}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fire order %v, want %v", got, want)
	}
}

// A cancelled batch-chain head must not hide its live chain tail from
// PeekTime (the in-place head promotion path).
func TestPeekTimeThroughDeadChainHead(t *testing.T) {
	e := New()
	var got []int
	b := e.NewBatch(6, 0)
	h0 := b.Add(recorder(&got, 0))
	b.Add(recorder(&got, 1))
	h0.Cancel()
	if at, ok := e.PeekTime(); !ok || at != 6 {
		t.Fatalf("PeekTime = %d,%v, want 6,true", at, ok)
	}
	e.Run()
	if fmt.Sprint(got) != fmt.Sprint([]int{1}) {
		t.Fatalf("fired %v, want [1]", got)
	}
}

// Cancelling every member of a batch must drain the whole chain without
// firing or advancing the clock.
func TestCancelWholeBatch(t *testing.T) {
	e := New()
	var got []int
	b := e.NewBatch(8, 0)
	hs := []Handle{b.Add(recorder(&got, 0)), b.Add(recorder(&got, 1)), b.Add(recorder(&got, 2))}
	for _, h := range hs {
		h.Cancel()
	}
	e.Run()
	if len(got) != 0 {
		t.Fatalf("fired %v, want none", got)
	}
	if e.Now() != 0 {
		t.Fatalf("clock advanced to %d for an all-cancelled instant", e.Now())
	}
	if st := e.Stats(); st.Drained != 3 {
		t.Fatalf("Drained = %d, want 3", st.Drained)
	}
}

// The kernel's clock jumps over empty time; the span counters make the
// jumps observable. Same-instant events must not count as jumps.
func TestSpanJumpStats(t *testing.T) {
	e := New()
	none := EventFunc(func(*Engine) {})
	e.Schedule(10, none)
	batch(e, 1000, none, none, none)
	e.Run()
	st := e.Stats()
	if st.SpanJumps != 2 {
		t.Fatalf("SpanJumps = %d, want 2 (0->10, 10->1000)", st.SpanJumps)
	}
}

// Steady-state batched scheduling and same-instant draining must not
// allocate: everything cycles through the free list and the heap slice.
func TestBatchSteadyStateAllocFree(t *testing.T) {
	e := New()
	none := EventFunc(func(*Engine) {})
	// Warm up the free list and the heap slice.
	batch(e, e.Now()+1, none, none, none, none)
	e.Run()
	avg := testing.AllocsPerRun(100, func() {
		batch(e, e.Now()+1, none, none, none, none)
		e.Run()
	})
	if avg != 0 {
		t.Fatalf("steady-state batch cycle allocates %.1f/op, want 0", avg)
	}
}

func TestNewBatchPastPanics(t *testing.T) {
	e := New()
	e.Schedule(5, EventFunc(func(*Engine) {}))
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("NewBatch in the past did not panic")
		}
	}()
	e.NewBatch(3, 0)
}
