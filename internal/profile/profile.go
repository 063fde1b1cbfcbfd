// Package profile implements a stepwise free-CPU timeline ("capacity
// profile"). It answers the planning questions every backfill scheduler and
// the interstitial controller ask:
//
//   - when is the earliest instant a w-CPU, d-second job fits? (EarliestFit)
//   - how many CPUs are free over an interval? (MinFree)
//   - commit a planned allocation (Reserve)
//   - where do n identical jobs go if each starts as early as it fits?
//     (Pack, which only reads the timeline)
//
// The profile is a piecewise-constant function of time. It is built either
// from the estimated ends of the currently running jobs (the scheduler's
// fallible world view) or from a recorded baseline run (the omniscient
// world view of the paper's Section 4.1).
package profile

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"interstitial/internal/job"
	"interstitial/internal/machine"
	"interstitial/internal/sim"
)

// Profile is a stepwise function mapping time to free CPUs. The last
// segment extends to infinity.
//
// A Profile is reusable: Reset and RebuildFromReleases overwrite the
// timeline in place, keeping the backing arrays, so a scheduler that
// rebuilds its planning profile on every pass (the dispatcher's scratch
// profile, the interstitial controller's packing plan) allocates nothing
// in steady state.
type Profile struct {
	// times[i] is the start of segment i; times[0] is the profile origin.
	times []sim.Time
	// free[i] is the free CPU count on [times[i], times[i+1]).
	free []int
	// unsorted marks a timeline whose breakpoints are not strictly
	// increasing, on which Reserve/Release keep the historical whole-array
	// scan (covered segments need not be contiguous there). In practice it
	// never trips — EstimatedEnd clamps to a running job's true end, so
	// every release lands at or after now, and FromSteps validates its
	// input — but the O(1) check keeps the binary-searched fast path
	// honest if either guarantee is ever loosened.
	unsorted bool
}

// FromSteps builds a profile directly from parallel breakpoint/capacity
// slices. Breakpoints must be strictly increasing and capacities
// non-negative; the slices are copied. Malformed steps are reported as an
// error, never a panic — this is the entry point for externally supplied
// timelines.
func FromSteps(times []sim.Time, free []int) (*Profile, error) {
	p := &Profile{times: append([]sim.Time(nil), times...), free: append([]int(nil), free...)}
	if err := p.CheckInvariants(); err != nil {
		return nil, err
	}
	return p, nil
}

// NewConstant returns a profile with a constant capacity from time `from`
// onward.
func NewConstant(from sim.Time, capacity int) *Profile {
	if capacity < 0 {
		panic("profile: negative capacity")
	}
	return &Profile{times: []sim.Time{from}, free: []int{capacity}}
}

// FromRunning builds the free-CPU profile seen by a scheduler at time now:
// it starts at the machine's current free count and gains back each running
// job's CPUs at that job's estimated end. This is exactly the (fallible)
// information a real scheduler has, because users' estimates stand in for
// true runtimes. It sorts the running set's ends afresh: the reference a
// rebuild from a machine's release timeline must match.
func FromRunning(now sim.Time, totalCPUs int, running []*job.Job) *Profile {
	rel := make([]machine.Release, 0, len(running))
	for _, j := range running {
		totalCPUs -= j.CPUs
		rel = append(rel, machine.Release{At: j.EstimatedEnd(), CPUs: j.CPUs})
	}
	slices.SortFunc(rel, func(a, b machine.Release) int { return cmp.Compare(a.At, b.At) })
	p := &Profile{}
	p.RebuildFromReleases(now, totalCPUs, rel)
	return p
}

// Reset makes p the constant profile (from, capacity), reusing its backing
// storage. It is the arena counterpart of NewConstant.
func (p *Profile) Reset(from sim.Time, capacity int) {
	if capacity < 0 {
		panic("profile: negative capacity")
	}
	p.times = append(p.times[:0], from)
	p.free = append(p.free[:0], capacity)
	p.unsorted = false
}

// RebuildFromReleases overwrites p, reusing its storage, with the free-CPU
// timeline at time now: free CPUs from now on, gaining back each release's
// CPUs at its instant. rel must be ascending by At, as machine.Machine
// keeps its release timeline, so the rebuild is one merge walk with no
// sort; releases at one instant, or at now, merge into one segment.
func (p *Profile) RebuildFromReleases(now sim.Time, free int, rel []machine.Release) {
	p.times = append(p.times[:0], now)
	p.free = append(p.free[:0], free)
	for _, r := range rel {
		free += r.CPUs
		if n := len(p.times); p.times[n-1] == r.At {
			p.free[n-1] = free
		} else {
			p.times = append(p.times, r.At)
			p.free = append(p.free, free)
		}
	}
	// Releases are ascending, so the only possible inversion is a release
	// breakpoint before the origin.
	p.unsorted = len(p.times) > 1 && p.times[1] < p.times[0]
}

// Origin reports the profile's start time.
func (p *Profile) Origin() sim.Time { return p.times[0] }

// Segments reports the number of piecewise-constant segments.
func (p *Profile) Segments() int { return len(p.times) }

// segIndex returns the index of the segment containing t, clamping to the
// first segment for t before the origin. The search is a hand-rolled
// lower bound (find the last i with times[i] <= t), identical in result to
// sort.Search but without the per-call closure, since this sits under
// every planning query the backfill loops make.
func (p *Profile) segIndex(t sim.Time) int {
	lo, hi := 0, len(p.times)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.times[mid] > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == 0 {
		return 0
	}
	return lo - 1
}

// FreeAt reports the free CPUs at time t.
func (p *Profile) FreeAt(t sim.Time) int { return p.free[p.segIndex(t)] }

// MinFree reports the minimum free CPUs over [from, to). An empty or
// inverted interval reports the capacity at from.
func (p *Profile) MinFree(from, to sim.Time) int {
	i := p.segIndex(from)
	min := p.free[i]
	for k := i + 1; k < len(p.times) && p.times[k] < to; k++ {
		if p.free[k] < min {
			min = p.free[k]
		}
	}
	return min
}

// EarliestFit reports the earliest time >= after at which cpus processors
// are continuously free for duration seconds. A duration <= 0 asks for a
// start instant only. The second return is false when no fit exists even at
// the profile's final (infinite) segment.
func (p *Profile) EarliestFit(after sim.Time, cpus int, duration sim.Time) (sim.Time, bool) {
	if duration < 0 {
		duration = 0
	}
	start := after
	if start < p.times[0] {
		start = p.times[0]
	}
	i := p.segIndex(start)
	for i < len(p.times) {
		if p.free[i] < cpus {
			i++
			if i < len(p.times) && p.times[i] > start {
				start = p.times[i]
			}
			continue
		}
		// Candidate start. Check the window [start, start+duration).
		ok := true
		end := start + duration
		for k := i + 1; k < len(p.times) && p.times[k] < end; k++ {
			if p.free[k] < cpus {
				// Blocked: restart the search at the segment after the block.
				start = p.times[k]
				i = k
				ok = false
				break
			}
		}
		if ok {
			return start, true
		}
		// The inner loop repositioned (start, i) at the blocking segment;
		// continue the outer loop which will skip past it.
	}
	// Only reachable if the final segment has free < cpus.
	return 0, false
}

// pending is a batch Pack has placed that has not ended: it holds cpus
// processors until end.
type pending struct {
	end  sim.Time
	cpus int
}

// never is the end of the final, unbounded segment.
const never = sim.Time(math.MaxInt64)

// Pack greedily places count identical jobs of cpus processors and
// duration seconds into the timeline, in batches. Each batch starts at the
// earliest instant, no earlier than after and the previous batch's start,
// at which a job fits for its whole duration in what the earlier batches
// left free, and takes as many jobs as the tightest segment of its window
// has room for (at most those still to place). place is called once per
// batch, in order. Pack reports false, after placing what did fit, when a
// job does not fit even in the final segment. cpus must be at least 1.
//
// Pack only reads the timeline, so callers may share one Profile between
// concurrent packs. It places exactly the batches of the loop EarliestFit →
// MinFree → Reserve on a copy: all batches run for the same duration and
// start no earlier than the one before, so they end in the order they
// start, and from the latest start on the free capacity is the timeline
// minus a FIFO of the batches not yet ended. Both answers of that loop
// depend only on the values of the step function, not on the breakpoints
// Reserve adds, so walking the FIFO alongside the segments gives the same
// ones.
func (p *Profile) Pack(after sim.Time, cpus int, duration sim.Time, count int, place func(start sim.Time, jobs int)) bool {
	if cpus < 1 {
		panic(fmt.Sprintf("profile: packing %d-CPU jobs", cpus))
	}
	start := max(after, p.times[0])
	var live []pending // placed batches, oldest first; live[h:] end after start
	h, held := 0, 0    // held: CPUs the batches in live[h:] hold
	for count > 0 {
		for h < len(live) && live[h].end <= start {
			held -= live[h].cpus
			h++
		}
		// Reuse the storage of ended batches once they fill half of it,
		// copying no more than was dropped.
		if h > len(live)/2 {
			live, h = live[:copy(live, live[h:])], 0
		}
		at, room, ok := p.fitLive(start, cpus, duration, live[h:], held)
		if !ok {
			return false
		}
		jobs := min(room/cpus, count)
		place(at, jobs)
		live = append(live, pending{end: at + duration, cpus: jobs * cpus})
		held += jobs * cpus
		count -= jobs
		start = at
	}
	return true
}

// fitLive is EarliestFit and MinFree in one forward walk over the timeline
// less the live batches, which all started at or before from and hold held
// CPUs between them: it reports the earliest instant >= from at which cpus
// processors are free for duration seconds, and the fewest free over that
// window. Same-instant breakpoints and batch ends are applied together, so
// no zero-length segment is ever judged.
func (p *Profile) fitLive(from sim.Time, cpus int, duration sim.Time, live []pending, held int) (sim.Time, int, bool) {
	i := p.segIndex(from)
	at, room := from, math.MaxInt
	for {
		free := p.free[i] - held
		next := never
		if i+1 < len(p.times) {
			next = p.times[i+1]
		}
		if len(live) > 0 && live[0].end < next {
			next = live[0].end
		}
		// free holds on [current instant, next).
		if free < cpus {
			if next == never {
				return 0, 0, false
			}
			at, room = next, math.MaxInt
		} else {
			room = min(room, free)
			if next >= at+duration {
				return at, room, true
			}
		}
		if i+1 < len(p.times) && p.times[i+1] == next {
			i++
		}
		for len(live) > 0 && live[0].end == next {
			held -= live[0].cpus
			live = live[1:]
		}
	}
}

// rangeStart returns the first segment index with times[i] >= from, on a
// sorted timeline: the binary-searched entry point for Reserve/Release so
// an adjustment touches only the segments it covers instead of scanning
// the whole array. Callers have already split at from, so when from is
// past the origin an exact breakpoint exists.
func (p *Profile) rangeStart(from sim.Time) int {
	i := p.segIndex(from)
	if p.times[i] < from {
		return i + 1
	}
	return i
}

// Reserve subtracts cpus processors over [from, from+duration). It panics
// if the reservation would drive any segment negative, because callers must
// check EarliestFit/MinFree first.
func (p *Profile) Reserve(from sim.Time, cpus int, duration sim.Time) {
	if duration <= 0 || cpus == 0 {
		return
	}
	p.split(from)
	p.split(from + duration)
	if p.unsorted {
		// Historical whole-array scan: on a timeline with out-of-order
		// breakpoints the covered segments are not contiguous.
		for i := range p.times {
			if p.times[i] >= from && p.times[i] < from+duration {
				p.free[i] -= cpus
				if p.free[i] < 0 {
					panic(fmt.Sprintf("profile: reservation of %d CPUs at [%d,%d) drives segment %d negative", cpus, from, from+duration, i))
				}
			}
		}
		p.debugCheck("Reserve")
		return
	}
	for i := p.rangeStart(from); i < len(p.times) && p.times[i] < from+duration; i++ {
		p.free[i] -= cpus
		if p.free[i] < 0 {
			panic(fmt.Sprintf("profile: reservation of %d CPUs at [%d,%d) drives segment %d negative", cpus, from, from+duration, i))
		}
	}
	p.debugCheck("Reserve")
}

// Release adds cpus processors over [from, from+duration); the inverse of
// Reserve, used when a plan is torn down.
func (p *Profile) Release(from sim.Time, cpus int, duration sim.Time) {
	if duration <= 0 || cpus == 0 {
		return
	}
	p.split(from)
	p.split(from + duration)
	if p.unsorted {
		for i := range p.times {
			if p.times[i] >= from && p.times[i] < from+duration {
				p.free[i] += cpus
			}
		}
		p.debugCheck("Release")
		return
	}
	for i := p.rangeStart(from); i < len(p.times) && p.times[i] < from+duration; i++ {
		p.free[i] += cpus
	}
	p.debugCheck("Release")
}

// debugCheck re-verifies the invariants after a mutation when the
// profiledebug build tag is set (see checks_debug.go); in normal builds it
// compiles to nothing. It deliberately skips unsorted timelines, whose
// breakpoints violate the ordering invariant by construction.
func (p *Profile) debugCheck(op string) {
	if !debugChecks || p.unsorted {
		return
	}
	if err := p.CheckInvariants(); err != nil {
		panic(fmt.Sprintf("profile: %s corrupted the timeline: %v", op, err))
	}
}

// split ensures a breakpoint exists at t (within the profile's horizon).
func (p *Profile) split(t sim.Time) {
	if t <= p.times[0] {
		return
	}
	i := p.segIndex(t)
	if p.times[i] == t {
		return
	}
	// Insert after i with the same free value.
	p.times = append(p.times, 0)
	p.free = append(p.free, 0)
	copy(p.times[i+2:], p.times[i+1:])
	copy(p.free[i+2:], p.free[i+1:])
	p.times[i+1] = t
	p.free[i+1] = p.free[i]
}

// Compact merges adjacent segments with equal capacity; useful after many
// reserve/release cycles.
func (p *Profile) Compact() {
	out := 0
	for i := 0; i < len(p.times); i++ {
		if out > 0 && p.free[out-1] == p.free[i] {
			continue
		}
		p.times[out] = p.times[i]
		p.free[out] = p.free[i]
		out++
	}
	p.times = p.times[:out]
	p.free = p.free[:out]
}

// CheckInvariants verifies breakpoints are strictly increasing and no
// segment is negative.
func (p *Profile) CheckInvariants() error {
	if len(p.times) == 0 || len(p.times) != len(p.free) {
		return fmt.Errorf("profile: malformed storage (%d times, %d free)", len(p.times), len(p.free))
	}
	for i := 1; i < len(p.times); i++ {
		if p.times[i] <= p.times[i-1] {
			return fmt.Errorf("profile: breakpoints not increasing at %d (%d <= %d)", i, p.times[i], p.times[i-1])
		}
	}
	for i, f := range p.free {
		if f < 0 {
			return fmt.Errorf("profile: segment %d has %d free CPUs", i, f)
		}
	}
	return nil
}

// String renders the step function for debugging.
func (p *Profile) String() string {
	s := "profile{"
	for i := range p.times {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%d:%d", p.times[i], p.free[i])
	}
	return s + "}"
}
