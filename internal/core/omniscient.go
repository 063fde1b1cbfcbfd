package core

import (
	"cmp"
	"fmt"
	"slices"

	"interstitial/internal/job"
	"interstitial/internal/profile"
	"interstitial/internal/sim"
	"interstitial/internal/tracing"
)

// FreeTimeline builds the free-CPU step function left behind by a recorded
// baseline run, clipped to [0, horizon) and tiled `copies` times so
// projects that outlive the log keep seeing a statistically identical
// machine (the log is treated as cyclo-stationary). copies < 1 is treated
// as 1. A baseline whose records produce a malformed step function is
// reported as an error.
func FreeTimeline(baseline []*job.Job, totalCPUs int, horizon sim.Time, copies int) (*profile.Profile, error) {
	if copies < 1 {
		copies = 1
	}
	type delta struct {
		at sim.Time
		d  int
	}
	var ds []delta
	for _, j := range baseline {
		if j.Start < 0 {
			continue
		}
		s := j.Start
		e := j.Finish
		if e < 0 {
			e = j.Start + j.Runtime
		}
		if e > horizon {
			e = horizon
		}
		if s >= horizon || e <= s {
			continue
		}
		ds = append(ds, delta{s, -j.CPUs}, delta{e, +j.CPUs})
	}
	// Same-instant deltas are summed before a breakpoint is written, so
	// their order among themselves cannot show.
	slices.SortFunc(ds, func(a, b delta) int { return cmp.Compare(a.at, b.at) })

	// One period of the step function.
	var times []sim.Time
	var free []int
	cur := totalCPUs
	times = append(times, 0)
	free = append(free, cur)
	for i := 0; i < len(ds); {
		at := ds[i].at
		for i < len(ds) && ds[i].at == at {
			cur += ds[i].d
			i++
		}
		if at == times[len(times)-1] {
			free[len(free)-1] = cur
		} else {
			times = append(times, at)
			free = append(free, cur)
		}
	}
	// Tile the period. Each copy k >= 1 repeats the breakpoints shifted by
	// k*horizon; the boundary value resets to the period's start value.
	pn := len(times)
	for k := 1; k < copies; k++ {
		off := sim.Time(k) * horizon
		for i := 0; i < pn; i++ {
			t := times[i] + off
			if t == times[len(times)-1] {
				free[len(free)-1] = free[i]
				continue
			}
			times = append(times, t)
			free = append(free, free[i])
		}
	}
	// After the last copy the machine is considered fully free.
	end := sim.Time(copies) * horizon
	if end > times[len(times)-1] {
		times = append(times, end)
		free = append(free, totalCPUs)
	} else {
		free[len(free)-1] = totalCPUs
	}
	return profile.FromSteps(times, free)
}

// TimelineCopies is how many log periods of length horizon FreeTimeline
// tiles for a project started at startAt whose ideal-law makespan is
// idealS seconds: enough to run three ideal makespans past the start, plus
// two periods of slack.
func TimelineCopies(horizon, startAt sim.Time, idealS float64) int {
	return int((float64(startAt)+idealS*3)/float64(horizon)) + 2
}

// MustFreeTimeline is FreeTimeline for recorded baselines known good by
// construction (a just-completed simulation); it panics on error.
func MustFreeTimeline(baseline []*job.Job, totalCPUs int, horizon sim.Time, copies int) *profile.Profile {
	p, err := FreeTimeline(baseline, totalCPUs, horizon, copies)
	if err != nil {
		panic(err)
	}
	return p
}

// Batch records a group of identical interstitial jobs started together by
// the omniscient packer.
type Batch struct {
	Start sim.Time
	Jobs  int
}

// OmniscientResult is the outcome of packing one project.
type OmniscientResult struct {
	// Makespan is lastFinish - projectStart.
	Makespan sim.Time
	// Batches records the packing for inspection.
	Batches []Batch
	// WorkCPUSeconds is the project's total area, for utilization math.
	WorkCPUSeconds float64
}

// PackProject greedily packs kJobs identical jobs (spec) into the free
// timeline starting at startAt (Profile.Pack). Greedy-earliest matches the
// paper's submission rule: a job starts the moment enough CPUs are free for
// its whole runtime. Because natives follow the recorded timeline exactly,
// they are unaffected — the paper's definition of omniscient interstitial
// computing. The timeline is only read, so callers may share one between
// packs, concurrent ones included.
func PackProject(free *profile.Profile, spec JobSpec, startAt sim.Time, kJobs int) (OmniscientResult, error) {
	return PackProjectTraced(free, spec, startAt, kJobs, nil)
}

// PackProjectTraced is PackProject with decision tracing: each batch
// placement is emitted as a place/omniscient-pack event whose Job is the
// batch index, CPUs the batch width (jobs × job CPUs), and Aux the batch
// size in jobs. Busy is NoBusy — the packer works against a recorded free
// timeline, not a live machine. A nil tracer traces nothing.
func PackProjectTraced(free *profile.Profile, spec JobSpec, startAt sim.Time, kJobs int, tr *tracing.Tracer) (OmniscientResult, error) {
	if err := spec.Validate(); err != nil {
		return OmniscientResult{}, err
	}
	if kJobs < 1 {
		return OmniscientResult{}, fmt.Errorf("core: packing %d jobs", kJobs)
	}
	res := OmniscientResult{WorkCPUSeconds: float64(kJobs) * float64(spec.CPUs) * float64(spec.Runtime)}
	ok := free.Pack(startAt, spec.CPUs, spec.Runtime, kJobs, func(t sim.Time, q int) {
		if tr != nil {
			tr.Emit(t, tracing.KindPlace, tracing.ReasonOmniscientPack,
				len(res.Batches), q*spec.CPUs, tracing.NoBusy, int64(q))
		}
		res.Batches = append(res.Batches, Batch{Start: t, Jobs: q})
	})
	if !ok {
		return res, fmt.Errorf("core: no fit for %d-CPU job; machine smaller than job?", spec.CPUs)
	}
	// Batches start in order, so the last one ends last.
	res.Makespan = res.Batches[len(res.Batches)-1].Start + spec.Runtime - startAt
	return res, nil
}
