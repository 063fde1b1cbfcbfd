package experiments

import (
	"slices"
	"sync"
	"testing"

	"interstitial/internal/core"
)

// TestLabSingleflightUnderContention hammers the lab from 16 goroutines
// asking for overlapping artifacts and asserts (a) every caller gets the
// same memoized pointer per key, and (b) each distinct key was computed
// exactly once — the compute counters are the test hooks for that.
func TestLabSingleflightUnderContention(t *testing.T) {
	l := testLab()
	spec := core.JobSpec{CPUs: 32, Runtime: l.System("Blue Mountain").Seconds1GHz(120)}

	const goroutines = 16
	bases := make([]*baseline, goroutines)
	runs := make([]*continualRun, goroutines)
	capped := make([]*continualRun, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Interleave orders so some goroutines hit Continual first,
			// forcing the nested Baseline call inside its once.Do.
			if g%2 == 0 {
				bases[g] = l.Baseline("Blue Mountain")
				runs[g] = l.Continual("Blue Mountain", spec, 0)
			} else {
				runs[g] = l.Continual("Blue Mountain", spec, 0)
				bases[g] = l.Baseline("Blue Mountain")
			}
			capped[g] = l.Continual("Blue Mountain", spec, 95)
		}(g)
	}
	wg.Wait()

	for g := 1; g < goroutines; g++ {
		if bases[g] != bases[0] || runs[g] != runs[0] || capped[g] != capped[0] {
			t.Fatalf("goroutine %d got a different artifact pointer", g)
		}
	}
	if n := l.baselineComputes.Load(); n != 1 {
		t.Fatalf("baseline computed %d times for one key, want 1", n)
	}
	if n := l.continualComputes.Load(); n != 2 {
		t.Fatalf("continual computed %d times for two keys, want 2", n)
	}

	// The artifacts must match a serial lab's bit-for-bit where it counts.
	serial := NewLab(Options{Seed: 1, Scale: 0.08, Reps: 4, Samples: 60, Workers: 1})
	sb := serial.Baseline("Blue Mountain")
	if sb.utilNat != bases[0].utilNat || len(sb.log) != len(bases[0].log) {
		t.Fatalf("parallel baseline differs from serial: util %v vs %v, jobs %d vs %d",
			bases[0].utilNat, sb.utilNat, len(bases[0].log), len(sb.log))
	}
	sr := serial.Continual("Blue Mountain", spec, 0)
	if !slices.Equal(sr.starts, runs[0].starts) {
		t.Fatalf("parallel continual ran %d interstitial jobs, serial %d, or started them differently",
			len(runs[0].starts), len(sr.starts))
	}
}

// TestPrecomputeWarmsKeys checks the warmup path resolves baselines and
// continual runs without recomputation on later direct access.
func TestPrecomputeWarmsKeys(t *testing.T) {
	l := testLab()
	spec := core.JobSpec{CPUs: 32, Runtime: l.System("Blue Mountain").Seconds1GHz(120)}
	l.Precompute(
		BaselineKey("Blue Mountain"),
		BaselineKey("Ross"),
		ContinualKey("Blue Mountain", spec, 0),
	)
	if n := l.baselineComputes.Load(); n != 2 {
		t.Fatalf("precompute ran %d baseline computations, want 2", n)
	}
	if n := l.continualComputes.Load(); n != 1 {
		t.Fatalf("precompute ran %d continual computations, want 1", n)
	}
	// Direct access afterwards must be pure cache hits.
	l.Baseline("Blue Mountain")
	l.Baseline("Ross")
	l.Continual("Blue Mountain", spec, 0)
	if n := l.baselineComputes.Load(); n != 2 {
		t.Fatalf("baseline recomputed after precompute: %d", n)
	}
	if n := l.continualComputes.Load(); n != 1 {
		t.Fatalf("continual recomputed after precompute: %d", n)
	}
}

// TestPoolNestedForEachNoDeadlock exercises the nesting that RunAll
// produces (experiment fan-out inside registry fan-out) on a tiny pool.
// A pool whose fan-outs blocked for a slot would deadlock here: every
// goroutine would hold one while waiting for another. The caller always
// works its own fan-out, and waits for stragglers lend their slot.
func TestPoolNestedForEachNoDeadlock(t *testing.T) {
	p := newPool(2, newLabMetrics())
	var mu sync.Mutex
	total := 0
	p.forEach(4, func(int) {
		p.forEach(4, func(int) {
			mu.Lock()
			total++
			mu.Unlock()
		})
	})
	if total != 16 {
		t.Fatalf("nested forEach ran %d tasks, want 16", total)
	}
}

// TestWorkerCountDeterminism renders the heavyweight tables at one worker
// and at eight and requires byte-identical output: scheduling order must
// never leak into results.
func TestWorkerCountDeterminism(t *testing.T) {
	render := func(workers int) string {
		l := NewLab(Options{Seed: 1, Scale: 0.05, Reps: 2, Samples: 40, Workers: workers})
		var out string
		t2, err := Table2(l)
		if err != nil {
			t.Fatal(err)
		}
		out += renderOK(t, t2)
		out += renderOK(t, Table4(l))
		out += renderOK(t, Table5(l))
		out += renderOK(t, Table8Limited(l))
		return out
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Fatalf("rendered output differs between Workers=1 and Workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}
