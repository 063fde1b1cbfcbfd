package advisor

// slotQueue is the bounded work queue: at most bound plan computations
// admitted (queued or running) at once. Acquisition is non-blocking — an
// over-capacity request is shed with 429 + Retry-After instead of parking
// an unbounded goroutine pile behind the planner.
type slotQueue struct {
	slots chan struct{}
}

func newSlotQueue(bound int) *slotQueue {
	if bound < 1 {
		bound = 1
	}
	return &slotQueue{slots: make(chan struct{}, bound)}
}

// tryAcquire takes a slot if one is free.
func (q *slotQueue) tryAcquire() bool {
	select {
	case q.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// release returns a slot.
func (q *slotQueue) release() { <-q.slots }

// depth is the number of slots currently held.
func (q *slotQueue) depth() int { return len(q.slots) }
