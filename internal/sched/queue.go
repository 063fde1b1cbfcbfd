package sched

import (
	"cmp"
	"slices"
	"sort"

	"interstitial/internal/job"
)

// Queue holds waiting jobs in dispatch order. Order is (priority
// descending, submit time ascending, ID ascending) — a total order, since
// IDs are unique — so any ordering step that respects the key triple
// produces the same sequence.
//
// The queue tracks an ordered prefix: jobs[:ordered] are in dispatch
// order, jobs[ordered:] are arrivals appended since. The dispatcher either
// merges the arrivals into the prefix (MergeUnordered — priorities already
// assigned, the incremental path) or re-sorts everything (Sort — after a
// reprioritization).
type Queue struct {
	jobs    []*job.Job
	ordered int
}

// NewQueue returns an empty queue.
func NewQueue() *Queue { return &Queue{} }

// Len reports the number of queued jobs.
func (q *Queue) Len() int { return len(q.jobs) }

// Push appends j to the queue and marks it Queued. The job joins the
// unordered tail; an ordering step places it before the next dispatch.
func (q *Queue) Push(j *job.Job) {
	j.State = job.Queued
	q.jobs = append(q.jobs, j)
}

// Head returns the highest-priority job, or nil when empty.
func (q *Queue) Head() *job.Job {
	if len(q.jobs) == 0 {
		return nil
	}
	return q.jobs[0]
}

// At returns the i-th job in dispatch order.
func (q *Queue) At(i int) *job.Job { return q.jobs[i] }

// Remove deletes the job at index i, preserving order. The vacated tail
// slot is cleared so a dispatched job is not kept reachable from the
// queue's backing array for the rest of the run.
func (q *Queue) Remove(i int) *job.Job {
	j := q.jobs[i]
	last := len(q.jobs) - 1
	copy(q.jobs[i:], q.jobs[i+1:])
	q.jobs[last] = nil
	q.jobs = q.jobs[:last]
	if i < q.ordered {
		q.ordered--
	}
	return j
}

// Jobs exposes the backing slice in dispatch order; callers must not
// mutate it.
func (q *Queue) Jobs() []*job.Job { return q.jobs }

// Ordered reports the length of the ordered prefix (see the type
// comment); checkpointing captures it so a restore can adopt the queue
// without forcing a premature re-sort.
func (q *Queue) Ordered() int { return q.ordered }

// Restore replaces the queue's contents: jobs are adopted in the given
// order, of which the first ordered are already in dispatch order. Each
// job is marked Queued. Checkpoint restore uses it.
func (q *Queue) Restore(jobs []*job.Job, ordered int) {
	if ordered < 0 {
		ordered = 0
	}
	if ordered > len(jobs) {
		ordered = len(jobs)
	}
	q.jobs = jobs
	q.ordered = ordered
	for _, j := range jobs {
		j.State = job.Queued
	}
}

// Unordered exposes the arrivals appended since the last ordering step;
// callers assign their priorities before MergeUnordered.
func (q *Queue) Unordered() []*job.Job { return q.jobs[q.ordered:] }

// dispatchCmp orders a against b by the dispatch key (priority desc,
// submit asc, ID asc), comparing each field once. Unordered priorities
// (NaN) compare equal, as neither precedes the other.
func dispatchCmp(a, b *job.Job) int {
	if a.Priority != b.Priority {
		switch {
		case a.Priority > b.Priority:
			return -1
		case a.Priority < b.Priority:
			return 1
		}
		return 0
	}
	if c := cmp.Compare(a.Submit, b.Submit); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// dispatchBefore reports whether a precedes b in dispatch order.
func dispatchBefore(a, b *job.Job) bool { return dispatchCmp(a, b) < 0 }

// Sort orders the whole queue by the dispatch key. The key triple is a
// total order (IDs are unique), so the result is deterministic without
// needing a stable sort.
func (q *Queue) Sort() {
	slices.SortFunc(q.jobs, dispatchCmp)
	q.ordered = len(q.jobs)
}

// orderedInOrder reports whether the ordered prefix is still strictly
// ascending by the dispatch key — after a reprioritization, whether a
// full sort would leave it where it stands.
func (q *Queue) orderedInOrder() bool {
	for i := 1; i < q.ordered; i++ {
		if !dispatchBefore(q.jobs[i-1], q.jobs[i]) {
			return false
		}
	}
	return true
}

// MergeUnordered inserts each unordered arrival into its dispatch-order
// position within the ordered prefix (binary search + shift). With k
// arrivals against an n-job queue this costs O(k·(log n + n)) moves
// instead of the O(n log n) compare-and-swap of a full re-sort, and
// because the key triple is total it lands the exact sequence Sort would.
// Arrivals must have their priorities assigned already.
func (q *Queue) MergeUnordered() {
	for q.ordered < len(q.jobs) {
		j := q.jobs[q.ordered]
		i := sort.Search(q.ordered, func(k int) bool { return dispatchBefore(j, q.jobs[k]) })
		copy(q.jobs[i+1:q.ordered+1], q.jobs[i:q.ordered])
		q.jobs[i] = j
		q.ordered++
	}
}
