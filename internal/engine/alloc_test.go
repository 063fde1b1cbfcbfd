package engine_test

import (
	"testing"

	"interstitial/internal/core"
	"interstitial/internal/engine"
	"interstitial/internal/job"
	"interstitial/internal/sched"
	"interstitial/internal/workload"
)

// TestSteadyStateAllocatesNothing pins the allocation-free steady state
// of a continual interstitial run: natives under fair share plus a
// controller that gets its retired records back, no tracer. Once warmed,
// a simulated day of finish events and scheduling passes allocates
// nothing: finish events are registry entries, pass events are built
// once, the dispatcher's started list is an arena, and interstitial
// records are reused. A fair-share tree numbers each account on first
// sight, so the log has few users, all seen while warming.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	p := testProfile()
	p.Users, p.Groups = 6, 2
	s := engine.New(p.Machine, sched.NewLSF())
	ctrl := core.NewController(core.JobSpec{CPUs: 32, Runtime: 1800})
	ctrl.DiscardRecords = true
	s.SetRetire(func(j *job.Job) {
		if j.Class == job.Interstitial {
			ctrl.Recycle(j)
		}
	})
	if err := ctrl.Attach(s); err != nil {
		t.Fatal(err)
	}
	s.Submit(workload.MustGenerate(p, 5)...)
	const day = 86400
	s.RunUntil(p.Duration() / 2)

	before := s.Stats()
	allocs := testing.AllocsPerRun(1, func() { s.RunUntil(s.Now() + day) })
	after := s.Stats()
	// AllocsPerRun warms up with one extra call, so the counters span
	// two days.
	finishes := after.Kernel.Executed - before.Kernel.Executed
	passes := after.Passes - before.Passes
	starts := after.DirectStarts - before.DirectStarts
	if passes == 0 || starts == 0 {
		t.Fatalf("vacuous window: %d passes, %d direct starts", passes, starts)
	}
	if allocs != 0 {
		t.Fatalf("a warmed simulated day allocated %v times (%d events, %d passes, %d direct starts)", allocs, finishes, passes, starts)
	}
}
