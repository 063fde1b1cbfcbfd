package sim

import (
	"container/heap"
	"fmt"
	"testing"
)

// refEngine is a deliberately naive reference kernel built on the stdlib
// container/heap: one item per scheduling (no batch chains, no free list),
// total order (at, prio, seq). FuzzEventHeap drives it and the real Engine
// with the same operation stream and demands identical fire order, clock,
// and pending count — a differential check that the chained heap slots
// and span jumps are pure optimizations.
type refEngine struct {
	h     refHeap
	now   Time
	seq   uint64
	fired []int
}

type refItem struct {
	at   Time
	prio int
	seq  uint64
	id   int
	dead bool
	// spawn, when set, is the child the event schedules as it fires.
	spawn *childSpec
}

// childSpec is an event scheduled from inside a firing event, at the
// firing instant plus dt. dt may be 0: the child joins the current instant.
type childSpec struct {
	dt   Time
	prio int
}

// childID names the child an event with id spawns; ids of schedulings
// made between runs stay far below it.
func childID(id int) int { return id + 1<<20 }

type refHeap []*refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refItem)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old) - 1
	it := old[n]
	old[n] = nil
	*h = old[:n]
	return it
}

func (r *refEngine) schedule(at Time, prio, id int) *refItem {
	r.seq++
	it := &refItem{at: at, prio: prio, seq: r.seq, id: id}
	heap.Push(&r.h, it)
	return it
}

// runUntil fires events up to deadline; spawned holds every child
// scheduled along the way, in the order they were scheduled.
func (r *refEngine) runUntil(deadline Time, spawned *[]*refItem) {
	for len(r.h) > 0 {
		top := r.h[0]
		if top.at > deadline {
			break
		}
		heap.Pop(&r.h)
		if top.dead {
			continue
		}
		r.now = top.at
		r.fired = append(r.fired, top.id)
		if c := top.spawn; c != nil {
			*spawned = append(*spawned, r.schedule(r.now+c.dt, c.prio, childID(top.id)))
		}
	}
	if r.now < deadline {
		r.now = deadline
	}
}

func (r *refEngine) pending() int {
	live := 0
	for _, it := range r.h {
		if !it.dead {
			live++
		}
	}
	return live
}

// FuzzEventHeap replays a byte-encoded operation stream — schedules,
// batched schedules, events that schedule a child as they fire, cancels,
// partial runs — against the real kernel and the reference heap,
// comparing the (at, prio, seq) fire order they induce. Cancels hit the
// same ordinal scheduling on both sides, so stale, chained-handle and
// spawned-child cases are exercised too.
func FuzzEventHeap(f *testing.F) {
	f.Add([]byte{0, 5, 1, 1, 3, 0, 4, 3, 30})
	f.Add([]byte{1, 2, 2, 2, 0, 3, 60})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 2, 0, 2, 1, 2, 2, 3, 10, 0, 1, 1, 3, 40})
	f.Add([]byte{2, 9, 3, 0, 2, 9, 3, 1, 2, 1, 2, 5, 3, 200})
	f.Add([]byte{4, 3, 0, 0, 1, 1, 3, 1, 2, 4, 3, 0, 0, 0, 4, 3, 2, 0, 2, 2, 2, 3, 5, 4, 1, 1, 3, 0, 3, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		e := New()
		r := &refEngine{}
		var gotFired []int
		nextID := 0
		var handles []Handle
		var refItems []*refItem

		schedule := func(at Time, prio int) {
			id := nextID
			nextID++
			handles = append(handles, e.SchedulePrio(at, prio, EventFunc(func(*Engine) {
				gotFired = append(gotFired, id)
			})))
			refItems = append(refItems, r.schedule(at, prio, id))
		}
		// spawner schedules an event that, as it fires, schedules child c
		// on both sides; the child's handle joins the cancellable set.
		spawner := func(at Time, prio int, c childSpec) {
			id := nextID
			nextID++
			handles = append(handles, e.SchedulePrio(at, prio, EventFunc(func(e *Engine) {
				gotFired = append(gotFired, id)
				cid := childID(id)
				handles = append(handles, e.SchedulePrio(e.Now()+c.dt, c.prio, EventFunc(func(*Engine) {
					gotFired = append(gotFired, cid)
				})))
			})))
			it := r.schedule(at, prio, id)
			it.spawn = &c
			refItems = append(refItems, it)
		}

		i := 0
		next := func() byte {
			if i >= len(data) {
				return 0
			}
			b := data[i]
			i++
			return b
		}
		for steps := 0; i < len(data) && steps < 512; steps++ {
			switch next() % 5 {
			case 0: // single scheduling
				at := e.Now() + Time(next()%32)
				schedule(at, int(next()%3))
			case 1: // batched schedulings at one (at, prio)
				at := e.Now() + Time(next()%32)
				prio := int(next() % 3)
				b := e.NewBatch(at, prio)
				k := int(next()%6) + 1
				for n := 0; n < k; n++ {
					id := nextID
					nextID++
					handles = append(handles, b.Add(EventFunc(func(*Engine) {
						gotFired = append(gotFired, id)
					})))
					refItems = append(refItems, r.schedule(at, prio, id))
				}
			case 2: // cancel the same ordinal scheduling on both sides
				if len(handles) > 0 {
					k := int(next()) % len(handles)
					handles[k].Cancel()
					refItems[k].dead = true
				}
			case 3: // partial run
				d := e.Now() + Time(next()%64)
				e.RunUntil(d)
				r.runUntil(d, &refItems)
				if e.Now() != r.now {
					t.Fatalf("clock diverged: engine %d, reference %d", e.Now(), r.now)
				}
				if len(handles) != len(refItems) {
					t.Fatalf("spawned children diverged: engine %d schedulings, reference %d", len(handles), len(refItems))
				}
			case 4: // an event that schedules a child at its instant + dt
				at := e.Now() + Time(next()%32)
				prio := int(next() % 3)
				spawner(at, prio, childSpec{dt: Time(next() % 4), prio: int(next() % 3)})
			}
		}
		// Drain both completely and compare the full fire order.
		e.RunUntil(Infinity - 1)
		r.runUntil(Infinity-1, &refItems)
		if fmt.Sprint(gotFired) != fmt.Sprint(r.fired) {
			t.Fatalf("fire order diverged:\nengine    %v\nreference %v", gotFired, r.fired)
		}
		if e.Pending() != r.pending() {
			t.Fatalf("pending diverged: engine %d, reference %d", e.Pending(), r.pending())
		}
		if st := e.Stats(); st.Executed != uint64(len(r.fired)) {
			t.Fatalf("Executed = %d, reference fired %d", st.Executed, len(r.fired))
		}
	})
}
