package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"interstitial/internal/job"
	"interstitial/internal/sim"
)

// chaosLog builds a random-but-seeded native log for a cpus-wide machine.
// Estimates run 1–5× the true runtime, so the plans the controller admits
// against are as fallible as a real machine's.
func chaosLog(r *rand.Rand, cpus, n int) []*job.Job {
	jobs := make([]*job.Job, 0, n)
	at := sim.Time(0)
	for i := 1; i <= n; i++ {
		at += sim.Time(r.Intn(300))
		rt := sim.Time(r.Intn(1500) + 20)
		est := rt * sim.Time(1+r.Intn(5))
		w := r.Intn(cpus/2) + 1
		jobs = append(jobs, job.New(i, fmt.Sprintf("u%d", i%5), fmt.Sprintf("g%d", i%3), w, rt, est, at))
	}
	return jobs
}

// TestChaosInvariantsUnderPreemption hammers the kernel's bookkeeping
// with random native traffic under a preempting continual controller with
// a random checkpoint interval. After every run the machine ledger, every
// finished job record and the class boundary (natives never killed,
// interstitial IDs in their band) must hold, and the run must have killed:
// a seed that never preempts checks nothing of the kill path. Scenarios
// run in parallel so the suite doubles as a -race probe of the simulation
// stack's share-nothing design.
func TestChaosInvariantsUnderPreemption(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(seed))
			cpus := 32 << r.Intn(3) // 32, 64, or 128
			horizon := sim.Time(40000 + r.Intn(40000))

			natives := chaosLog(r, cpus, 150+r.Intn(150))
			s := newSim(cpus)
			s.Submit(natives...)
			ctrl := NewController(JobSpec{
				CPUs:    r.Intn(cpus/4) + 1,
				Runtime: sim.Time(r.Intn(900) + 30),
			})
			ctrl.StopAt = horizon
			ctrl.Preempt = &Preemption{CheckpointEvery: sim.Time(r.Intn(200))}
			attach(t, ctrl, s)
			s.Run()

			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("invariants violated: %v", err)
			}
			if ctrl.KilledJobs == 0 {
				t.Fatal("no kill: the scenario never exercised preemption")
			}
			for _, j := range natives {
				if j.State == job.Killed {
					t.Fatalf("native %d killed: preemption must only touch interstitial jobs", j.ID)
				}
				if j.State != job.Finished {
					t.Fatalf("native %d state = %v: preemption must not wedge the queue", j.ID, j.State)
				}
			}
			for _, j := range ctrl.Jobs {
				if j.ID <= interstitialIDBase || j.ID > interstitialIDBase+len(ctrl.Jobs) {
					t.Fatalf("interstitial ID %d outside its band", j.ID)
				}
				if j.State != job.Finished && j.State != job.Killed {
					t.Fatalf("interstitial %d state = %v after run end", j.ID, j.State)
				}
			}
		})
	}
}

// TestChaosDeterministicUnderPreemption replays one full chaos scenario
// twice and demands identical outcomes: preemption must not introduce any
// nondeterminism (map iteration, timing dependence) into the kernel.
func TestChaosDeterministicUnderPreemption(t *testing.T) {
	run := func() (string, error) {
		r := rand.New(rand.NewSource(99))
		natives := chaosLog(r, 64, 200)
		s := newSim(64)
		s.Submit(natives...)
		ctrl := NewController(JobSpec{CPUs: 8, Runtime: 300})
		ctrl.StopAt = 60000
		ctrl.Preempt = &Preemption{CheckpointEvery: 60}
		if err := ctrl.Attach(s); err != nil {
			return "", err
		}
		s.Run()
		sum := fmt.Sprintf("kills=%d wasted=%v jobs=%d", ctrl.KilledJobs, ctrl.WastedCPUSeconds, len(ctrl.Jobs))
		for _, j := range ctrl.Jobs {
			sum += fmt.Sprintf("|%d:%v:%d:%d", j.ID, j.State, j.Start, j.Finish)
		}
		return sum, s.CheckInvariants()
	}
	a, errA := run()
	b, errB := run()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if a != b {
		t.Fatalf("same seed, different outcomes:\n%s\n%s", a, b)
	}
}

// TestChaosCancellationUnderPreemption cancels a preempting simulation
// from another goroutine mid-run (the -race probe for the cancellation
// path) and checks the kernel stops quickly and leaves its ledger intact.
func TestChaosCancellationUnderPreemption(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	natives := chaosLog(r, 128, 4000)
	s := newSim(128)
	ctx, cancel := context.WithCancel(context.Background())
	s.SetContext(ctx)
	s.Submit(natives...)
	ctrl := NewController(JobSpec{CPUs: 4, Runtime: 100})
	ctrl.Preempt = &Preemption{}
	attach(t, ctrl, s)
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	done := make(chan struct{})
	go func() {
		s.Run()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled simulation did not stop")
	}
	if !s.Interrupted() {
		// The run may legitimately have completed in under 2ms.
		t.Logf("run completed before cancellation landed")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
