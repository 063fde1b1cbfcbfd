package profile

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"interstitial/internal/job"
	"interstitial/internal/machine"
	"interstitial/internal/sim"
)

// TestRebuildFromReleasesMatchesFromRunning drives one arena through many
// rebuild cycles, each from a fresh machine's release timeline, against
// FromRunning's sort of the same running set: the reused storage must
// reproduce the from-scratch timeline exactly, including after Reserve
// chains have grown the arena's segment arrays.
func TestRebuildFromReleasesMatchesFromRunning(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	arena := &Profile{}
	for round := 0; round < 200; round++ {
		now := sim.Time(rng.Intn(10000))
		var running []*job.Job
		used := 0
		for id := 1; id <= rng.Intn(20); id++ {
			cpus := rng.Intn(32) + 1
			if used+cpus > 1024 {
				break
			}
			used += cpus
			rt := sim.Time(rng.Intn(5000) + 1)
			est := sim.Time(rng.Intn(5000) + 1)
			// A running job started at most min(rt-1, now) ago, so its
			// true end (and thus EstimatedEnd) is strictly after now.
			ago := sim.Time(rng.Intn(int(rt)))
			if ago > now {
				ago = now
			}
			j := job.New(id, "u", "g", cpus, rt, est, 0)
			j.Start = now - ago
			running = append(running, j)
		}
		// The machine's clock only moves forward: start in start order.
		slices.SortStableFunc(running, func(a, b *job.Job) int { return cmp.Compare(a.Start, b.Start) })
		m := machine.New(machine.Config{Name: "arena", CPUs: 1024, ClockGHz: 1})
		for _, j := range running {
			m.Start(j.Start, j)
		}
		arena.RebuildFromReleases(now, m.Free(), m.ReleasesBorrow())
		want := FromRunning(now, 1024, m.RunningJobs())
		if arena.String() != want.String() {
			t.Fatalf("round %d: rebuild %v != fresh %v", round, arena, want)
		}
		if err := arena.CheckInvariants(); err != nil {
			t.Fatalf("round %d: rebuilt arena invalid: %v", round, err)
		}
		// Dirty the arena with a reserve chain so the next rebuild starts
		// from mutated, over-grown storage.
		for k := 0; k < 5; k++ {
			cpus := rng.Intn(64) + 1
			dur := sim.Time(rng.Intn(800) + 1)
			if at, ok := arena.EarliestFit(now, cpus, dur); ok {
				arena.Reserve(at, cpus, dur)
				if err := arena.CheckInvariants(); err != nil {
					t.Fatalf("round %d: Reserve corrupted arena: %v", round, err)
				}
			}
		}
	}
}

// TestResetReusesStorage verifies Reset produces NewConstant semantics on
// recycled storage and clears prior reservations.
func TestResetReusesStorage(t *testing.T) {
	p := NewConstant(0, 64)
	p.Reserve(10, 32, 100)
	p.Reserve(500, 16, 100)
	p.Reset(42, 128)
	if p.Segments() != 1 || p.Origin() != 42 || p.FreeAt(1e9) != 128 {
		t.Fatalf("reset wrong: %v", p)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The reset profile must behave like a fresh constant one.
	at, ok := p.EarliestFit(0, 128, 1000)
	if !ok || at != 42 {
		t.Fatalf("EarliestFit on reset = %d,%v want 42,true", at, ok)
	}
}

// TestReserveChainInvariants runs a long feasible Reserve chain on one
// arena, checking invariants after every mutation — the arena-reuse
// corruption net behind the always-on CheckInvariants call (and, under
// -tags profiledebug, inside Reserve itself).
func TestReserveChainInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := &Profile{}
	p.Reset(0, 256)
	for k := 0; k < 500; k++ {
		cpus := rng.Intn(128) + 1
		dur := sim.Time(rng.Intn(1000) + 1)
		at, ok := p.EarliestFit(sim.Time(rng.Intn(50000)), cpus, dur)
		if !ok {
			t.Fatalf("step %d: no fit for %d CPUs", k, cpus)
		}
		p.Reserve(at, cpus, dur)
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("step %d: Reserve violated invariants: %v", k, err)
		}
	}
}

// TestReserveBinarySearchMatchesLinear differential-tests the
// binary-searched Reserve/Release range walk against the historical
// whole-array scan on randomly built sorted profiles.
func TestReserveBinarySearchMatchesLinear(t *testing.T) {
	linearReserve := func(p *Profile, from sim.Time, cpus int, dur sim.Time) {
		p.split(from)
		p.split(from + dur)
		for i := range p.times {
			if p.times[i] >= from && p.times[i] < from+dur {
				p.free[i] -= cpus
			}
		}
	}
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 100; round++ {
		fast := NewConstant(0, 1024)
		slow := NewConstant(0, 1024)
		for k := 0; k < 30; k++ {
			from := sim.Time(rng.Intn(10000))
			cpus := rng.Intn(8) + 1
			dur := sim.Time(rng.Intn(500) + 1)
			fast.Reserve(from, cpus, dur)
			linearReserve(slow, from, cpus, dur)
			if fast.String() != slow.String() {
				t.Fatalf("round %d step %d: fast %v != linear %v", round, k, fast, slow)
			}
		}
	}
}

// BenchmarkProfileEarliestFit is the benchgate-guarded planning-query
// microbenchmark: EarliestFit plus the Reserve commit on a paper-scale
// profile (hundreds of segments), the inner loop of every backfill pass
// and of omniscient packing. The profile is rebuilt outside the timer;
// each iteration pays one fit + one reserve + one release.
func BenchmarkProfileEarliestFit(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := NewConstant(0, 4662) // Blue Mountain width
	for k := 0; k < 800; k++ {
		p.Reserve(sim.Time(rng.Intn(200000)), rng.Intn(8)+1, sim.Time(rng.Intn(4000)+1))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		at, ok := p.EarliestFit(sim.Time(i%200000), 64, 458)
		if !ok {
			b.Fatal("no fit")
		}
		p.Reserve(at, 64, 458)
		p.Release(at, 64, 458)
	}
}

// BenchmarkReleaseChurn measures the release timeline's upkeep and the
// plan rebuild it feeds at a paper-scale running set of 256 jobs: each
// iteration finishes the oldest job, starts the next, and rebuilds a plan
// from the machine's list. Steady state must not allocate.
func BenchmarkReleaseChurn(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	m := machine.New(machine.Config{Name: "churn", CPUs: 4662, ClockGHz: 1})
	running := make([]*job.Job, 256)
	for i := range running {
		rt := sim.Time(rng.Intn(20000) + 1000)
		running[i] = job.New(i+1, "u", "g", rng.Intn(16)+1, rt, rt*2, 0)
		m.Start(0, running[i])
	}
	p := &Profile{}
	p.RebuildFromReleases(0, m.Free(), m.ReleasesBorrow())
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now := sim.Time(i + 1)
		j := running[i%len(running)]
		m.Finish(now, j)
		// Reuse the finished job as the next arrival; its estimated end
		// lands among the others, at least 1000 s after now.
		j.State = job.Queued
		m.Start(now, j)
		p.RebuildFromReleases(now, m.Free(), m.ReleasesBorrow())
	}
}
