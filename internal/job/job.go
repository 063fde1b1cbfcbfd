// Package job defines the job model shared by the simulator, schedulers,
// workload generators, and the interstitial controller.
//
// A job requests a fixed number of CPUs for a fixed (but unknown to the
// scheduler) actual runtime; the scheduler sees only the user-supplied
// estimate. Jobs are non-preemptive: once started they run to completion.
// Jobs are either native (from the machine's real workload) or interstitial
// (injected by the interstitial controller at lower priority).
package job

import (
	"fmt"

	"interstitial/internal/sim"
)

// Class distinguishes native workload jobs from interstitial filler jobs.
type Class uint8

const (
	// Native jobs come from the machine's own users; they always outrank
	// interstitial jobs.
	Native Class = iota
	// Interstitial jobs are the small fungible filler jobs of the paper.
	Interstitial
	// Maintenance jobs model scheduled outages: full-machine drains during
	// which neither native nor interstitial work runs (the dips in the
	// paper's Figure 4).
	Maintenance
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case Interstitial:
		return "interstitial"
	case Maintenance:
		return "maintenance"
	}
	return "native"
}

// State tracks a job through its lifecycle.
type State uint8

const (
	// Created means the job exists but has not been submitted.
	Created State = iota
	// Queued means the job is waiting for CPUs.
	Queued
	// Running means the job holds CPUs.
	Running
	// Finished means the job completed.
	Finished
	// Killed means the job was aborted while running (preempted
	// interstitial jobs); its CPUs were released before completion.
	Killed
)

// String names the state.
func (s State) String() string {
	switch s {
	case Created:
		return "created"
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Finished:
		return "finished"
	case Killed:
		return "killed"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Job is a single batch job.
type Job struct {
	// ID is unique within a simulation.
	ID int
	// User and Group attribute the job for fair-share accounting.
	User  string
	Group string
	// Class is Native or Interstitial.
	Class Class
	// userSlot and groupSlot cache the job's account numbers in the last
	// fair-share tree that ordered or charged it. The tree checks each
	// against the name it stores at that number before use, so a slot
	// from another tree, a clone or a restored record simply re-resolves.
	// They sit in padding: the record stays 120 bytes.
	userSlot int32

	// CPUs is the fixed processor count the job needs; it must be >= 1.
	CPUs int
	// Runtime is the job's true wallclock duration in seconds.
	Runtime sim.Time
	// Estimate is the user-supplied runtime estimate the scheduler plans
	// with. On real machines it grossly overestimates Runtime.
	Estimate sim.Time

	// Submit, Start and Finish record the job's lifecycle times. Start and
	// Finish are -1 until the transition happens.
	Submit sim.Time
	Start  sim.Time
	Finish sim.Time

	// State is the current lifecycle state.
	State State
	// groupSlot pairs with userSlot, in the padding after State.
	groupSlot int32

	// Priority is the scheduler-assigned dispatch priority (higher runs
	// first). It is recomputed by fair-share policies on every pass.
	Priority float64

	// machineSlot is the job's index in its machine's running slice,
	// maintained by machine.Machine while the job is Running and
	// meaningless in every other state. Storing it on the job replaces a
	// per-machine ID->index map — and its per-start/per-finish hashing —
	// with a plain field access on the simulator's hottest paths.
	machineSlot int32
	// finishSlot is the job's entry in its simulator's finish-event
	// registry while it runs; the simulator checks the entry's job by
	// pointer before use, as machine does with machineSlot.
	finishSlot int32
}

// MachineSlot returns the running-set index maintained by
// machine.Machine; see SetMachineSlot. Only meaningful while Running.
func (j *Job) MachineSlot() int { return int(j.machineSlot) }

// SetMachineSlot records the job's position in its machine's running set.
// Only machine.Machine should call this.
func (j *Job) SetMachineSlot(i int) { j.machineSlot = int32(i) }

// FinishSlot returns the finish-event registry entry recorded by
// SetFinishSlot. Only meaningful while Running.
func (j *Job) FinishSlot() int { return int(j.finishSlot) }

// SetFinishSlot records the job's entry in its simulator's finish-event
// registry. Only engine.Simulator should call this.
func (j *Job) SetFinishSlot(i int) { j.finishSlot = int32(i) }

// FairShareSlots returns the user and group account numbers cached by
// SetFairShareSlots. They are hints: a fair-share tree verifies each
// against its own account names before trusting it.
func (j *Job) FairShareSlots() (user, group int32) { return j.userSlot, j.groupSlot }

// SetFairShareSlots caches the job's account numbers in a fair-share
// tree. Only fairshare.Tree should call this.
func (j *Job) SetFairShareSlots(user, group int32) { j.userSlot, j.groupSlot = user, group }

// New returns a Created native job with Start/Finish unset.
func New(id int, user, group string, cpus int, runtime, estimate, submit sim.Time) *Job {
	j := new(Job)
	j.reset(id, user, group, cpus, runtime, estimate, submit)
	return j
}

// reset overwrites j whole with the Created native record New builds. It
// zeroes j and then sets fields in place: a composite literal assigned
// through the pointer is built on the stack and copied over, which took
// twice as long on the record-reuse path.
func (j *Job) reset(id int, user, group string, cpus int, runtime, estimate, submit sim.Time) {
	if cpus < 1 {
		panic(fmt.Sprintf("job: %d CPUs", cpus))
	}
	if runtime < 0 || estimate < 0 {
		panic("job: negative runtime or estimate")
	}
	*j = Job{}
	j.ID, j.User, j.Group, j.CPUs = id, user, group, cpus
	j.Runtime, j.Estimate, j.Submit = runtime, estimate, submit
	j.Start, j.Finish = -1, -1
}

// NewInterstitial returns a Created interstitial job. Interstitial runtimes
// are known exactly (zero variance, per the paper), so Estimate == Runtime.
func NewInterstitial(id int, cpus int, runtime, submit sim.Time) *Job {
	j := new(Job)
	j.ResetInterstitial(id, cpus, runtime, submit)
	return j
}

// ResetInterstitial overwrites j whole, every slot included, with the
// record NewInterstitial(id, cpus, runtime, submit) returns, so that the
// owner of a retired record can reuse it as a fresh job.
func (j *Job) ResetInterstitial(id int, cpus int, runtime, submit sim.Time) {
	j.reset(id, "interstitial", "interstitial", cpus, runtime, runtime, submit)
	j.Class = Interstitial
}

// Wait reports how long the job waited in queue. It is valid once started.
func (j *Job) Wait() sim.Time {
	if j.Start < 0 {
		return -1
	}
	return j.Start - j.Submit
}

// ExpansionFactor reports EF = 1 + wait/runtime, the paper's slowdown
// metric. Zero-runtime jobs are clamped to a 1-second runtime.
func (j *Job) ExpansionFactor() float64 {
	w := j.Wait()
	if w < 0 {
		return -1
	}
	rt := j.Runtime
	if rt < 1 {
		rt = 1
	}
	return 1 + float64(w)/float64(rt)
}

// CPUSeconds reports the job's area: CPUs x actual runtime.
func (j *Job) CPUSeconds() float64 { return float64(j.CPUs) * float64(j.Runtime) }

// EstimatedEnd reports when the scheduler should assume a running job ends.
func (j *Job) EstimatedEnd() sim.Time {
	if j.Start < 0 {
		return -1
	}
	end := j.Start + j.Estimate
	// A job that outlives its estimate would be killed on a real machine;
	// the simulator lets it run, so planning clamps to the true end.
	if trueEnd := j.Start + j.Runtime; trueEnd > end {
		end = trueEnd
	}
	return end
}

// String renders a compact one-line description for logs and tests.
func (j *Job) String() string {
	return fmt.Sprintf("job %d %s %dcpu rt=%d est=%d sub=%d start=%d", j.ID, j.Class, j.CPUs, j.Runtime, j.Estimate, j.Submit, j.Start)
}

// Validate checks internal consistency and returns a descriptive error for
// the first violated invariant.
func (j *Job) Validate() error {
	switch {
	case j.CPUs < 1:
		return fmt.Errorf("job %d: %d CPUs", j.ID, j.CPUs)
	case j.Runtime < 0:
		return fmt.Errorf("job %d: negative runtime", j.ID)
	case j.Estimate < 0:
		return fmt.Errorf("job %d: negative estimate", j.ID)
	case j.Submit < 0:
		return fmt.Errorf("job %d: negative submit time", j.ID)
	case j.State == Running && j.Start < 0:
		return fmt.Errorf("job %d: running but never started", j.ID)
	case j.State == Finished && (j.Start < 0 || j.Finish < 0):
		return fmt.Errorf("job %d: finished but missing times", j.ID)
	case j.Start >= 0 && j.Start < j.Submit:
		return fmt.Errorf("job %d: started %d before submit %d", j.ID, j.Start, j.Submit)
	case j.State == Finished && j.Finish != j.Start+j.Runtime:
		return fmt.Errorf("job %d: finish %d != start %d + runtime %d", j.ID, j.Finish, j.Start, j.Runtime)
	case j.State == Killed && (j.Finish < 0 || j.Finish > j.Start+j.Runtime):
		return fmt.Errorf("job %d: killed at %d outside its execution window", j.ID, j.Finish)
	}
	return nil
}
