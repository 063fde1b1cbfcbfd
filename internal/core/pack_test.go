package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"interstitial/internal/job"
	"interstitial/internal/profile"
	"interstitial/internal/sim"
)

// packReference is the packing loop PackProject ran before Profile.Pack:
// ask EarliestFit for the next start, MinFree for the room over the
// window, and Reserve the batch into the timeline itself. The
// differential tests below hold PackProject to it.
func packReference(free *profile.Profile, spec JobSpec, startAt sim.Time, kJobs int) (OmniscientResult, error) {
	if err := spec.Validate(); err != nil {
		return OmniscientResult{}, err
	}
	if kJobs < 1 {
		return OmniscientResult{}, fmt.Errorf("core: packing %d jobs", kJobs)
	}
	res := OmniscientResult{WorkCPUSeconds: float64(kJobs) * float64(spec.CPUs) * float64(spec.Runtime)}
	remaining := kJobs
	frontier := startAt
	var lastEnd sim.Time
	for remaining > 0 {
		t, ok := free.EarliestFit(frontier, spec.CPUs, spec.Runtime)
		if !ok {
			return res, fmt.Errorf("core: no fit for %d-CPU job; machine smaller than job?", spec.CPUs)
		}
		q := free.MinFree(t, t+spec.Runtime) / spec.CPUs
		if q < 1 {
			return res, fmt.Errorf("core: EarliestFit/MinFree disagree at %d", t)
		}
		if q > remaining {
			q = remaining
		}
		free.Reserve(t, q*spec.CPUs, spec.Runtime)
		res.Batches = append(res.Batches, Batch{Start: t, Jobs: q})
		remaining -= q
		if end := t + spec.Runtime; end > lastEnd {
			lastEnd = end
		}
		frontier = t
	}
	res.Makespan = lastEnd - startAt
	return res, nil
}

// packCase is one differential input: a timeline spelled as bytes, either
// read directly as steps or as a recorded baseline to tile, and a project.
type packCase struct {
	steps   []byte
	tiled   bool
	startAt sim.Time
	cpus    int
	runtime sim.Time
	kJobs   int
}

// timeline builds the case's timeline and reports its last breakpoint;
// each call builds a fresh one, so the packer and the reference never share
// storage.
//
// Direct steps: byte 0 sets the origin (×4, never negative, as simulated
// time is not), then each byte pair is a gap of 1–256 s to the next
// breakpoint and that segment's free CPUs (0–255); the first segment takes
// the next byte. Tiled: each 3-byte group is a native job (start, length,
// width), every fifth one unstarted; the machine is as wide as all of them
// together plus 8 idle CPUs, the log 1024 s long, tiled 1 + steps[0]%4
// times.
func (c packCase) timeline() (*profile.Profile, sim.Time, error) {
	b := c.steps
	if c.tiled {
		var log []*job.Job
		total := 8
		for i := 0; i+2 < len(b); i += 3 {
			start, length, cpus := sim.Time(b[i])*4, sim.Time(b[i+1])*4+1, int(b[i+2]%32)+1
			j := mkFinished(i/3+1, cpus, start, start+length)
			if i/3%5 == 4 {
				j = job.New(i/3+1, "u", "g", cpus, length, length, 0)
			}
			log = append(log, j)
			total += cpus
		}
		copies := 1
		if len(b) > 0 {
			copies += int(b[0] % 4)
		}
		p, err := FreeTimeline(log, total, 1024, copies)
		return p, sim.Time(copies) * 1024, err
	}
	origin, first := sim.Time(0), 64
	if len(b) > 0 {
		origin, b = sim.Time(b[0])*4, b[1:]
	}
	if len(b) > 0 {
		first, b = int(b[0]), b[1:]
	}
	times, free := []sim.Time{origin}, []int{first}
	for i := 0; i+1 < len(b); i += 2 {
		times = append(times, times[len(times)-1]+sim.Time(b[i])+1)
		free = append(free, int(b[i+1]))
	}
	p, err := profile.FromSteps(times, free)
	return p, times[len(times)-1], err
}

// check packs the case with PackProject and with packReference, each on
// its own copy of the timeline, and requires identical results and an
// untouched timeline on PackProject's side.
func (c packCase) check(t *testing.T) {
	t.Helper()
	free, _, err := c.timeline()
	if err != nil {
		t.Fatalf("timeline: %v", err)
	}
	ref, _, err := c.timeline()
	if err != nil {
		t.Fatalf("timeline: %v", err)
	}
	before := free.String()
	spec := JobSpec{CPUs: c.cpus, Runtime: c.runtime}
	got, gotErr := PackProject(free, spec, c.startAt, c.kJobs)
	want, wantErr := packReference(ref, spec, c.startAt, c.kJobs)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%+v: error %v, reference %v", c, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%+v:\n got %+v\nwant %+v", c, got, want)
	}
	if after := free.String(); after != before {
		t.Fatalf("%+v: PackProject wrote to the timeline:\nbefore %s\nafter  %s", c, before, after)
	}
}

// packSeeds are hand-picked differential inputs: a start before the
// origin, between breakpoints and past the last one; a job wider than the
// final capacity (the no-fit error, after some batches fit); one job and
// thousands; direct and tiled timelines.
var packSeeds = []packCase{
	{steps: []byte{25, 40, 9, 12, 30, 200, 5, 60, 3, 48}, startAt: 20, cpus: 8, runtime: 40, kJobs: 300},
	{steps: []byte{25, 40, 9, 12, 30, 200, 5, 60, 3, 48}, startAt: 150, cpus: 8, runtime: 40, kJobs: 1},
	{steps: []byte{25, 40, 9, 12, 30, 200, 5, 60, 3, 48}, startAt: 2000, cpus: 16, runtime: 90, kJobs: 4000},
	{steps: []byte{0, 64, 99, 7, 20, 30}, startAt: -50, cpus: 3, runtime: 17, kJobs: 2500},
	{steps: []byte{0, 64, 99, 7, 20, 30}, startAt: 0, cpus: 31, runtime: 17, kJobs: 40},
	{steps: []byte{10, 255, 1, 0, 1, 255, 1, 0, 0, 255}, startAt: 41, cpus: 1, runtime: 3, kJobs: 3000},
	{steps: []byte{3, 10, 10, 40, 80, 200, 100, 0, 10, 13}, tiled: true, startAt: 0, cpus: 4, runtime: 100, kJobs: 2000},
	{steps: []byte{2, 30, 16, 90, 10, 31, 60, 200, 7, 5, 5, 5, 120, 60, 20}, tiled: true, startAt: 700, cpus: 9, runtime: 333, kJobs: 5000},
	{steps: []byte{1, 1, 1, 200, 200, 2}, tiled: true, startAt: 5000, cpus: 70, runtime: 5, kJobs: 1},
	{steps: []byte{1, 1, 1, 200, 200, 2}, tiled: true, startAt: 5, cpus: 2, runtime: 1, kJobs: 1},
}

func TestPackProjectMatchesReferenceSeeds(t *testing.T) {
	for _, c := range packSeeds {
		c.check(t)
	}
}

// Property: on random timelines and projects, PackProject's batches,
// makespan and error equal the reference loop's.
func TestQuickPackProjectMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		steps := make([]byte, rng.Intn(60))
		rng.Read(steps)
		c := packCase{steps: steps, tiled: rng.Intn(2) == 0, runtime: sim.Time(rng.Intn(300) + 1)}
		free, last, err := c.timeline()
		if err != nil {
			t.Fatal(err)
		}
		// Starts before the origin, between breakpoints, and past the
		// last breakpoint.
		switch rng.Intn(3) {
		case 0:
			c.startAt = free.Origin() - sim.Time(rng.Intn(100))
		case 1:
			c.startAt = free.Origin() + sim.Time(rng.Int63n(int64(last-free.Origin())+1))
		default:
			c.startAt = last + sim.Time(rng.Intn(500)+1)
		}
		final := free.FreeAt(last)
		c.cpus = rng.Intn(max(final, 1)) + 1
		if rng.Intn(8) == 0 {
			c.cpus = final + 1 + rng.Intn(4) // no fit in the final segment
		}
		c.kJobs = 1
		if rng.Intn(2) == 0 {
			c.kJobs = 1000 + rng.Intn(4000)
		}
		c.check(t)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func FuzzPackProject(f *testing.F) {
	for _, c := range packSeeds {
		f.Add(c.steps, c.tiled, int16(c.startAt), uint8(c.cpus-1), uint16(c.runtime-1), uint16(c.kJobs-1))
	}
	f.Fuzz(func(t *testing.T, steps []byte, tiled bool, startAt int16, cpus uint8, runtime, kJobs uint16) {
		c := packCase{
			steps:   steps,
			tiled:   tiled,
			startAt: sim.Time(startAt),
			cpus:    int(cpus%128) + 1,
			runtime: sim.Time(runtime%2048) + 1,
			kJobs:   int(kJobs%5000) + 1,
		}
		if _, _, err := c.timeline(); err != nil {
			return // not a timeline
		}
		c.check(t)
	})
}

// TestPackProjectSharedTimelineConcurrent packs many projects into one
// timeline at once, as Table 2's reps and the advisor's sweep do; under
// -race it pins that packing never writes to the timeline.
func TestPackProjectSharedTimelineConcurrent(t *testing.T) {
	c := packSeeds[6]
	free, _, err := c.timeline()
	if err != nil {
		t.Fatal(err)
	}
	before := free.String()
	const packs = 8
	results := make([]OmniscientResult, packs)
	var wg sync.WaitGroup
	for k := 0; k < packs; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			spec := JobSpec{CPUs: k + 1, Runtime: sim.Time(50 + 10*k)}
			res, err := PackProject(free, spec, sim.Time(100*k), 500)
			if err != nil {
				t.Error(err)
			}
			results[k] = res
		}(k)
	}
	wg.Wait()
	if free.String() != before {
		t.Fatal("concurrent packs wrote to the shared timeline")
	}
	for k := 0; k < packs; k++ {
		ref, _, err := c.timeline()
		if err != nil {
			t.Fatal(err)
		}
		want, err := packReference(ref, JobSpec{CPUs: k + 1, Runtime: sim.Time(50 + 10*k)}, sim.Time(100*k), 500)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(results[k], want) {
			t.Errorf("pack %d on the shared timeline: %+v, reference %+v", k, results[k], want)
		}
	}
}
