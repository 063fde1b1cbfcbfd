package profile

import (
	"math/rand"
	"testing"
	"testing/quick"

	"interstitial/internal/job"
	"interstitial/internal/sim"
)

func TestConstant(t *testing.T) {
	p := NewConstant(0, 100)
	if p.FreeAt(0) != 100 || p.FreeAt(1e9) != 100 {
		t.Fatal("constant profile not constant")
	}
	at, ok := p.EarliestFit(50, 100, 1000)
	if !ok || at != 50 {
		t.Fatalf("EarliestFit = %d,%v want 50,true", at, ok)
	}
	if _, ok := p.EarliestFit(0, 101, 10); ok {
		t.Fatal("fit of 101 CPUs in 100-CPU profile")
	}
}

func TestFromRunning(t *testing.T) {
	// 100-CPU machine; job A holds 30 CPUs estimated to end at 200, job B
	// holds 20 ending at 100.
	a := job.New(1, "u", "g", 30, 300, 200, 0)
	a.Start = 0
	a.State = job.Running
	b := job.New(2, "u", "g", 20, 100, 100, 0)
	b.Start = 0
	b.State = job.Running
	p := FromRunning(10, 100, []*job.Job{a, b})
	if got := p.FreeAt(10); got != 50 {
		t.Fatalf("free at 10 = %d, want 50", got)
	}
	if got := p.FreeAt(150); got != 70 {
		t.Fatalf("free at 150 = %d, want 70", got)
	}
	// Job A's estimate (200) is less than its true runtime (300):
	// EstimatedEnd clamps to the true end 300.
	if got := p.FreeAt(250); got != 70 {
		t.Fatalf("free at 250 = %d, want 70 (estimate clamped)", got)
	}
	if got := p.FreeAt(350); got != 100 {
		t.Fatalf("free at 350 = %d, want 100", got)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFromRunningMergesEqualEnds(t *testing.T) {
	mk := func(id int) *job.Job {
		j := job.New(id, "u", "g", 10, 100, 100, 0)
		j.Start = 0
		j.State = job.Running
		return j
	}
	p := FromRunning(0, 100, []*job.Job{mk(1), mk(2), mk(3)})
	if p.Segments() != 2 {
		t.Fatalf("segments = %d, want 2 (merged equal release times)", p.Segments())
	}
	if p.FreeAt(0) != 70 || p.FreeAt(100) != 100 {
		t.Fatal("merged profile values wrong")
	}
}

func TestEarliestFitWaitsForCapacity(t *testing.T) {
	p := NewConstant(0, 100)
	p.Reserve(0, 90, 50) // only 10 free until t=50
	at, ok := p.EarliestFit(0, 20, 10)
	if !ok || at != 50 {
		t.Fatalf("EarliestFit = %d,%v want 50,true", at, ok)
	}
	// 10 CPUs fit immediately.
	at, ok = p.EarliestFit(0, 10, 10)
	if !ok || at != 0 {
		t.Fatalf("small fit = %d,%v want 0,true", at, ok)
	}
}

func TestEarliestFitSkipsShortGap(t *testing.T) {
	p := NewConstant(0, 100)
	p.Reserve(0, 95, 10)  // 5 free on [0,10)
	p.Reserve(20, 95, 10) // 5 free on [20,30); gap [10,20) has 100 free
	// A 50-CPU 5-second job fits in the gap.
	at, ok := p.EarliestFit(0, 50, 5)
	if !ok || at != 10 {
		t.Fatalf("gap fit = %d,%v want 10,true", at, ok)
	}
	// A 50-CPU 15-second job does not fit in the 10s gap; must wait to 30.
	at, ok = p.EarliestFit(0, 50, 15)
	if !ok || at != 30 {
		t.Fatalf("long job fit = %d,%v want 30,true", at, ok)
	}
}

func TestReserveRelease(t *testing.T) {
	p := NewConstant(0, 64)
	p.Reserve(100, 32, 50)
	if p.FreeAt(120) != 32 || p.FreeAt(99) != 64 || p.FreeAt(150) != 64 {
		t.Fatalf("reserve wrong: %v", p)
	}
	p.Release(100, 32, 50)
	p.Compact()
	if p.Segments() != 1 || p.FreeAt(120) != 64 {
		t.Fatalf("release+compact wrong: %v", p)
	}
}

func TestReserveOverCapacityPanics(t *testing.T) {
	p := NewConstant(0, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("overdraw did not panic")
		}
	}()
	p.Reserve(0, 11, 5)
}

func TestMinFree(t *testing.T) {
	p := NewConstant(0, 100)
	p.Reserve(10, 40, 10)
	p.Reserve(30, 70, 10)
	if got := p.MinFree(0, 50); got != 30 {
		t.Fatalf("MinFree = %d, want 30", got)
	}
	if got := p.MinFree(0, 25); got != 60 {
		t.Fatalf("MinFree early = %d, want 60", got)
	}
	if got := p.MinFree(50, 100); got != 100 {
		t.Fatalf("MinFree late = %d, want 100", got)
	}
}

func TestZeroDurationReserveIsNoop(t *testing.T) {
	p := NewConstant(0, 10)
	p.Reserve(5, 10, 0)
	if p.Segments() != 1 || p.FreeAt(5) != 10 {
		t.Fatal("zero-duration reserve changed profile")
	}
}

// Property: a random sequence of feasible reservations keeps invariants,
// and EarliestFit results are actually feasible (MinFree over the window is
// >= the requested CPUs).
func TestQuickReserveFitConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewConstant(0, 128)
		for k := 0; k < 40; k++ {
			cpus := rng.Intn(64) + 1
			dur := sim.Time(rng.Intn(500) + 1)
			after := sim.Time(rng.Intn(1000))
			at, ok := p.EarliestFit(after, cpus, dur)
			if !ok {
				return false // 64 <= 128 always fits eventually
			}
			if at < after {
				return false
			}
			if p.MinFree(at, at+dur) < cpus {
				return false
			}
			// Fit must be earliest: one second earlier must not fit,
			// unless at == after.
			if at > after && p.MinFree(at-1, at-1+dur) >= cpus {
				return false
			}
			p.Reserve(at, cpus, dur)
			if err := p.CheckInvariants(); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Reserve then Release restores the original step function.
func TestQuickReserveReleaseRoundtrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewConstant(0, 256)
		type res struct {
			at, dur sim.Time
			cpus    int
		}
		var rs []res
		for k := 0; k < 20; k++ {
			r := res{at: sim.Time(rng.Intn(1000)), dur: sim.Time(rng.Intn(200) + 1), cpus: rng.Intn(12) + 1}
			p.Reserve(r.at, r.cpus, r.dur)
			rs = append(rs, r)
		}
		for _, r := range rs {
			p.Release(r.at, r.cpus, r.dur)
		}
		p.Compact()
		if p.Segments() != 1 || p.FreeAt(0) != 256 {
			return false
		}
		return p.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEarliestFit(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := NewConstant(0, 4096)
	for k := 0; k < 500; k++ {
		p.Reserve(sim.Time(rng.Intn(100000)), rng.Intn(8)+1, sim.Time(rng.Intn(2000)+1))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.EarliestFit(sim.Time(i%100000), 64, 458)
	}
}

// bruteForceFit is a reference implementation of EarliestFit that scans
// second by second (bounded domain), used to differential-test the
// segment-walking implementation.
func bruteForceFit(p *Profile, after sim.Time, cpus int, dur sim.Time, limit sim.Time) (sim.Time, bool) {
	for t := after; t <= limit; t++ {
		ok := true
		for u := t; u < t+dur; u++ {
			if p.FreeAt(u) < cpus {
				ok = false
				break
			}
		}
		if ok {
			return t, true
		}
	}
	return 0, false
}

func TestQuickEarliestFitMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewConstant(0, 16)
		// Random small reservations over a 200-second domain.
		for k := 0; k < 8; k++ {
			cpus := rng.Intn(10) + 1
			at := sim.Time(rng.Intn(150))
			dur := sim.Time(rng.Intn(40) + 1)
			if p.MinFree(at, at+dur) >= cpus {
				p.Reserve(at, cpus, dur)
			}
		}
		for k := 0; k < 10; k++ {
			after := sim.Time(rng.Intn(100))
			cpus := rng.Intn(16) + 1
			dur := sim.Time(rng.Intn(30) + 1)
			got, ok := p.EarliestFit(after, cpus, dur)
			want, wantOK := bruteForceFit(p, after, cpus, dur, 400)
			if ok != wantOK {
				t.Logf("seed %d: ok=%v want %v (after=%d cpus=%d dur=%d)", seed, ok, wantOK, after, cpus, dur)
				return false
			}
			if ok && got != want {
				t.Logf("seed %d: fit=%d want %d (after=%d cpus=%d dur=%d) profile=%v", seed, got, want, after, cpus, dur, p)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMinFreeMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewConstant(0, 32)
		for k := 0; k < 6; k++ {
			at := sim.Time(rng.Intn(100))
			dur := sim.Time(rng.Intn(50) + 1)
			cpus := rng.Intn(5) + 1
			if p.MinFree(at, at+dur) >= cpus {
				p.Reserve(at, cpus, dur)
			}
		}
		for k := 0; k < 10; k++ {
			from := sim.Time(rng.Intn(150))
			to := from + sim.Time(rng.Intn(60)+1)
			got := p.MinFree(from, to)
			want := p.FreeAt(from)
			for u := from; u < to; u++ {
				if f := p.FreeAt(u); f < want {
					want = f
				}
			}
			if got != want {
				t.Logf("seed %d: MinFree(%d,%d)=%d want %d", seed, from, to, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestFromSteps(t *testing.T) {
	p, err := FromSteps([]sim.Time{0, 100, 200}, []int{10, 5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if p.FreeAt(150) != 5 || p.FreeAt(250) != 10 || p.Origin() != 0 {
		t.Fatalf("FromSteps values wrong: %v", p)
	}
	// The input slices must not alias the profile.
	times := []sim.Time{0, 50}
	free := []int{4, 8}
	q, err := FromSteps(times, free)
	if err != nil {
		t.Fatal(err)
	}
	times[1] = 999
	if q.FreeAt(60) != 8 {
		t.Fatal("FromSteps aliased its input")
	}
}

func TestFromStepsErrorsOnBadInput(t *testing.T) {
	cases := []struct {
		times []sim.Time
		free  []int
	}{
		{[]sim.Time{0, 0}, []int{1, 2}}, // non-increasing
		{[]sim.Time{5, 1}, []int{1, 2}}, // decreasing
		{[]sim.Time{0}, []int{-1}},      // negative capacity
		{[]sim.Time{}, []int{}},         // empty
		{[]sim.Time{0, 1}, []int{1}},    // ragged
	}
	for i, c := range cases {
		if _, err := FromSteps(c.times, c.free); err == nil {
			t.Errorf("case %d did not error", i)
		}
	}
}
