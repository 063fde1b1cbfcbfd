package core

import (
	"testing"

	"interstitial/internal/job"
	"interstitial/internal/sim"
)

// preemptScenario: a 100-CPU machine; a native blocker holds 60 CPUs with
// a grossly overestimated runtime, so a 60-CPU interstitial job is
// admitted; then a 100-CPU native head arrives, and only preemption can
// start it before the interstitial job ends.
func preemptScenario(t *testing.T, pre *Preemption) (*Controller, *job.Job) {
	t.Helper()
	s := newSim(100)
	blocker := job.New(1, "u", "g", 60, 200, 10000, 0)
	s.Submit(blocker)
	c := NewController(JobSpec{CPUs: 40, Runtime: 5000})
	c.Preempt = pre
	c.StopAt = 100 // one admission, then stop submitting
	attach(t, c, s)
	head := job.New(2, "u", "g", 100, 100, 100, 300)
	s.Submit(head)
	s.Run()
	return c, head
}

func TestNonPreemptiveHeadWaits(t *testing.T) {
	c, head := preemptScenario(t, nil)
	if len(c.Jobs) != 1 {
		t.Fatalf("interstitial jobs = %d, want 1", len(c.Jobs))
	}
	// Without preemption the head waits for the interstitial job's full
	// runtime (ends at 5000).
	if head.Start != 5000 {
		t.Fatalf("head start = %d, want 5000", head.Start)
	}
	if c.KilledJobs != 0 {
		t.Fatal("non-preemptive controller killed jobs")
	}
}

func TestPreemptionUnblocksHead(t *testing.T) {
	c, head := preemptScenario(t, &Preemption{})
	// Native blocker ends at 200; head submitted at 300; interstitial
	// killed at 300 and head starts immediately.
	if head.Start != 300 {
		t.Fatalf("head start = %d, want 300 (preempted)", head.Start)
	}
	if c.KilledJobs != 1 {
		t.Fatalf("kills = %d, want 1", c.KilledJobs)
	}
	// No checkpointing: everything the job ran (40 CPUs x 300s) is waste.
	if c.WastedCPUSeconds != 40*300 {
		t.Fatalf("wasted = %v, want 12000", c.WastedCPUSeconds)
	}
	killed := c.Jobs[0]
	if killed.State != job.Killed || killed.Finish != 300 {
		t.Fatalf("killed job state=%v finish=%d", killed.State, killed.Finish)
	}
}

func TestPreemptionCheckpointSavesWork(t *testing.T) {
	c, head := preemptScenario(t, &Preemption{CheckpointEvery: 100})
	if head.Start != 300 {
		t.Fatalf("head start = %d", head.Start)
	}
	// Job ran [0,300) with checkpoints every 100s: loses nothing.
	if c.WastedCPUSeconds != 0 {
		t.Fatalf("wasted = %v, want 0 (kill on a checkpoint boundary)", c.WastedCPUSeconds)
	}
	// Remainder (5000-300=4700s) goes to the backlog; the window closed
	// at 100 so it is never resubmitted.
	if len(c.backlog) != 1 || c.backlog[0] != 4700 {
		t.Fatalf("backlog = %v, want [4700]", c.backlog)
	}
}

func TestPreemptionResubmitsRemainder(t *testing.T) {
	s := newSim(100)
	blocker := job.New(1, "u", "g", 60, 200, 10000, 0)
	head := job.New(2, "u", "g", 100, 100, 100, 300)
	s.Submit(blocker, head)
	c := NewController(JobSpec{CPUs: 40, Runtime: 5000})
	c.Preempt = &Preemption{CheckpointEvery: 100}
	c.StopAt = sim.Infinity // window stays open: remainder resubmits
	attach(t, c, s)
	s.RunUntil(50000)
	// The continuation job (4700s of remaining work) must have run after
	// the head finished at 400.
	var contJobs int
	for _, j := range c.Jobs {
		if j.Runtime == 4700 {
			contJobs++
			if j.Start < 400 {
				t.Fatalf("continuation started at %d, before head finished", j.Start)
			}
		}
	}
	if contJobs != 1 {
		t.Fatalf("continuation jobs = %d, want 1", contJobs)
	}
}

func TestPreemptionDoesNotKillForNativeBlockage(t *testing.T) {
	// The head is blocked by another NATIVE job; killing interstitial
	// work would not help, so the controller must not kill.
	s := newSim(100)
	bigNative := job.New(1, "u", "g", 90, 10000, 10000, 0)
	head := job.New(2, "u", "g", 100, 100, 100, 50)
	s.Submit(bigNative, head)
	c := NewController(JobSpec{CPUs: 10, Runtime: 400})
	c.Preempt = &Preemption{}
	c.StopAt = 5000
	attach(t, c, s)
	s.RunUntil(9000)
	if c.KilledJobs != 0 {
		t.Fatalf("killed %d jobs although natives were the blockage", c.KilledJobs)
	}
}

func TestPreemptionKillsYoungestFirst(t *testing.T) {
	s := newSim(100)
	// Two interstitial jobs start at different times; a head needing
	// only part of their CPUs should cost the younger one.
	filler := job.New(1, "u", "g", 60, 150, 150, 0)
	s.Submit(filler) // keeps 60 busy until 150 so admissions stagger
	c := NewController(JobSpec{CPUs: 40, Runtime: 100000})
	c.Preempt = &Preemption{}
	c.StopAt = 200
	attach(t, c, s)
	s.RunUntil(250) // first job admitted at 0, second at 150
	if len(c.Jobs) != 2 {
		t.Fatalf("interstitial jobs = %d, want 2", len(c.Jobs))
	}
	older, younger := c.Jobs[0], c.Jobs[1]
	head := job.New(2, "u", "g", 60, 100, 100, 250)
	s.Submit(head)
	s.RunUntil(300)
	if younger.State != job.Killed {
		t.Fatalf("younger job state = %v, want killed", younger.State)
	}
	if older.State != job.Running {
		t.Fatalf("older job state = %v, want still running", older.State)
	}
}

func TestProjectDoneWithPreemption(t *testing.T) {
	// A finite project that suffers a kill still completes all its work
	// and reports a makespan covering the continuation.
	s := newSim(100)
	blocker := job.New(1, "u", "g", 60, 200, 10000, 0)
	head := job.New(2, "u", "g", 100, 100, 100, 300)
	s.Submit(blocker, head)
	c := NewProject(JobSpec{CPUs: 40, Runtime: 1000}, 3, 0)
	c.Preempt = &Preemption{CheckpointEvery: 50}
	attach(t, c, s)
	s.Run()
	if !c.Done() {
		t.Fatalf("project not done: created=%d backlog=%d", c.created, len(c.backlog))
	}
	ms, err := c.Makespan()
	if err != nil {
		t.Fatal(err)
	}
	if ms <= 0 {
		t.Fatalf("makespan = %d", ms)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
