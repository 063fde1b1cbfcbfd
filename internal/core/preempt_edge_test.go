package core

import (
	"testing"

	"interstitial/internal/job"
)

// TestKillRaceAtExactFinishTick: a native head arrives at the exact tick
// the blocking interstitial job finishes. Finish events outrank
// submissions and passes at the same instant, so the job completes
// normally and preemption must not fire — a kill here would double-release
// the job's CPUs.
func TestKillRaceAtExactFinishTick(t *testing.T) {
	s := newSim(100)
	s.Submit(job.New(1, "u", "g", 1, 10, 10, 0)) // kick the first pass
	c := NewController(JobSpec{CPUs: 60, Runtime: 500})
	c.Preempt = &Preemption{}
	c.StopAt = 100 // one admission at t=0, then stop
	attach(t, c, s)
	head := job.New(2, "u", "g", 100, 100, 100, 500)
	s.Submit(head)
	s.Run()
	if len(c.Jobs) != 1 {
		t.Fatalf("interstitial jobs = %d, want 1", len(c.Jobs))
	}
	if got := c.Jobs[0].State; got != job.Finished {
		t.Fatalf("interstitial state = %v, want finished (not killed at its own finish tick)", got)
	}
	if c.KilledJobs != 0 {
		t.Fatalf("kills = %d, want 0", c.KilledJobs)
	}
	if head.Start != 500 {
		t.Fatalf("head start = %d, want 500", head.Start)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestKillAtStartInstant kills a job the very tick it started: a
// zero-length run. Nothing ran, so nothing is wasted beyond the kill
// itself, and the full runtime returns to the backlog.
func TestKillAtStartInstant(t *testing.T) {
	s := newSim(100)
	s.Submit(job.New(1, "u", "g", 1, 10, 10, 0))
	c := NewController(JobSpec{CPUs: 60, Runtime: 5000})
	c.Preempt = &Preemption{CheckpointEvery: 100}
	c.StopAt = 0 // exactly one admission, at t=0
	attach(t, c, s)
	s.RunUntil(0)
	if len(c.Jobs) != 1 || c.Jobs[0].State != job.Running {
		t.Fatalf("jobs = %v, want one running", c.Jobs)
	}
	j := c.Jobs[0]
	c.kill(s, j)
	if j.State != job.Killed || j.Finish != 0 {
		t.Fatalf("state=%v finish=%d, want killed at 0", j.State, j.Finish)
	}
	if c.WastedCPUSeconds != 0 {
		t.Fatalf("wasted = %v, want 0 for a zero-length run", c.WastedCPUSeconds)
	}
	if len(c.backlog) != 1 || c.backlog[0] != 5000 {
		t.Fatalf("backlog = %v, want the whole runtime back", c.backlog)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAttachRejectsZeroLengthSpec: a zero-runtime interstitial job would
// admit infinitely in one pass; the spec boundary must reject it (and
// zero-CPU specs) as an error, not a panic.
func TestAttachRejectsZeroLengthSpec(t *testing.T) {
	for _, spec := range []JobSpec{
		{CPUs: 1, Runtime: 0},
		{CPUs: 1, Runtime: -5},
		{CPUs: 0, Runtime: 10},
	} {
		s := newSim(10)
		if err := NewController(spec).Attach(s); err == nil {
			t.Errorf("Attach accepted degenerate spec %+v", spec)
		}
	}
}
