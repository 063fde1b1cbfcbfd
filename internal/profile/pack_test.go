package profile

import (
	"math/rand"
	"slices"
	"testing"

	"interstitial/internal/sim"
)

type placed struct {
	start sim.Time
	jobs  int
}

func pack(p *Profile, after sim.Time, cpus int, duration sim.Time, count int) ([]placed, bool) {
	var out []placed
	ok := p.Pack(after, cpus, duration, count, func(start sim.Time, jobs int) {
		out = append(out, placed{start, jobs})
	})
	return out, ok
}

// TestPackReadsOnly packs into a timeline and requires every segment to
// be unchanged afterwards.
func TestPackReadsOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	times, free := []sim.Time{0}, []int{64}
	for k := 1; k < 300; k++ {
		times = append(times, times[k-1]+sim.Time(rng.Intn(50)+1))
		free = append(free, rng.Intn(65))
	}
	free[len(free)-1] = 64
	p, err := FromSteps(times, free)
	if err != nil {
		t.Fatal(err)
	}
	batches, ok := pack(p, 5, 3, 40, 2000)
	if !ok || len(batches) < 2 {
		t.Fatalf("packed %d batches, ok=%v", len(batches), ok)
	}
	if !slices.Equal(p.times, times) || !slices.Equal(p.free, free) {
		t.Fatalf("Pack changed the timeline: %v", p)
	}
}

// TestPackSameInstantEndAndBreakpoint has the first batch end exactly
// where the timeline steps down from 16 to 8 free CPUs: the two apply
// together, so the second batch's window [50, 150) is not cut by a
// zero-length dip to 0 at 100.
func TestPackSameInstantEndAndBreakpoint(t *testing.T) {
	p, err := FromSteps([]sim.Time{0, 50, 100}, []int{8, 16, 8})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := pack(p, 0, 8, 100, 3)
	want := []placed{{0, 1}, {50, 1}, {150, 1}}
	if !ok || !slices.Equal(got, want) {
		t.Fatalf("Pack = %v, %v; want %v, true", got, ok, want)
	}
}

// TestPackNoFitAfterSomeBatches places what fits before the final segment,
// which is too narrow for a job, then reports false.
func TestPackNoFitAfterSomeBatches(t *testing.T) {
	p, err := FromSteps([]sim.Time{0, 100}, []int{20, 4})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := pack(p, 0, 8, 30, 100)
	want := []placed{{0, 2}, {30, 2}, {60, 2}}
	if ok || !slices.Equal(got, want) {
		t.Fatalf("Pack = %v, %v; want %v, false", got, ok, want)
	}
}
