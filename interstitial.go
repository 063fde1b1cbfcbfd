// Package interstitial is the public facade of the interstitial-computing
// library: a reproduction of Kleban & Clearwater, "Interstitial Computing:
// Utilizing Spare Cycles on Supercomputers" (IEEE CLUSTER 2003).
//
// Interstitial computing fills the utilization holes that space-shared
// supercomputers inevitably leave — caused by fixed-size jobs, fat-tailed
// size distributions, and bursty arrivals — with many small, identical,
// low-priority jobs (a parameter sweep being the canonical project), while
// bounding the impact on the machine's native workload.
//
// The facade wraps the full simulation stack:
//
//   - Machine and MachineByName: the three ASCI machine testbeds.
//   - CalibratedLog: synthetic native logs matched to the paper's Table 1
//     statistics.
//   - RunNative: baseline native-only simulation.
//   - RunProject: a finite interstitial project co-simulated with the
//     native log (fallible mode — the realistic deployment).
//   - RunContinual: continual interstitial computing, optionally limited
//     by a utilization cap.
//   - PlanOmniscient: pack a project into a recorded baseline with
//     perfect knowledge (the paper's no-impact upper bound).
//   - Theory helpers re-exported from internal/theory.
//
// All functions are deterministic given a seed. The Ctx variants
// (RunProjectCtx, RunContinualCtx, ...) accept a context.Context for
// cooperative cancellation: a cancelled context aborts the simulation
// within ~4096 kernel events and surfaces ctx.Err(); with a background
// context they are byte-for-byte identical to their plain counterparts.
// See DESIGN.md for the mapping from the paper's tables and figures to
// this API, and cmd/experiments for the harness that regenerates them.
package interstitial

import (
	"context"
	"fmt"

	"interstitial/internal/core"
	"interstitial/internal/job"
	"interstitial/internal/sim"
	"interstitial/internal/stats"
	"interstitial/internal/testbed"
	"interstitial/internal/theory"
	"interstitial/internal/tracing"
)

// Tracer records one simulation run's scheduler decisions; TraceCollector
// owns the tracers of a traced workload, which tracing.WriteJSONL exports
// as one JSONL stream. See internal/tracing and DESIGN.md §10.
type (
	Tracer         = tracing.Tracer
	TraceCollector = tracing.Collector
)

// NewTraceCollector builds a collector whose per-run tracers each keep at
// most sampleCap events via head/tail sampling (<= 0: keep everything).
func NewTraceCollector(sampleCap int) *TraceCollector {
	return tracing.NewCollector(sampleCap)
}

// Time is simulated seconds since the log epoch.
type Time = sim.Time

// Job is a batch job record (native or interstitial).
type Job = job.Job

// Machine bundles a machine's hardware, workload profile, and queueing
// policy.
type Machine = testbed.System

// Ross returns the ASCI Ross testbed (Sandia; PBS, conservative backfill).
func Ross() Machine { return testbed.Ross() }

// BlueMountain returns the ASCI Blue Mountain testbed (Los Alamos; LSF,
// hierarchical fair share, EASY backfill).
func BlueMountain() Machine { return testbed.BlueMountain() }

// BluePacific returns the ASCI Blue Pacific testbed (Livermore; DPCS,
// user+group fair share, time-of-day gates, EASY backfill).
func BluePacific() Machine { return testbed.BluePacific() }

// Machines returns all three testbeds.
func Machines() []Machine { return testbed.All() }

// MachineByName looks a testbed up by its paper name.
func MachineByName(name string) (Machine, error) {
	for _, m := range Machines() {
		if m.Name == name {
			return m, nil
		}
	}
	return Machine{}, fmt.Errorf("interstitial: unknown machine %q (want Ross, Blue Mountain, or Blue Pacific)", name)
}

// CalibratedLog generates a synthetic native log whose simulated
// utilization matches the machine's Table 1 value. Deterministic in seed.
func CalibratedLog(m Machine, seed int64) []*Job {
	return m.CalibratedLog(seed, 0.015)
}

// CalibratedLogCtx is CalibratedLog under a context: the calibration loop
// runs a handful of full native simulations, and a cancelled ctx aborts
// the current one and returns ctx's error.
func CalibratedLogCtx(ctx context.Context, m Machine, seed int64) ([]*Job, error) {
	return m.CalibratedLogCtx(ctx, seed, 0.015)
}

// RunNative simulates the native log alone and returns the achieved
// native utilization over the log horizon. The jobs are mutated in place
// with start/finish times.
func RunNative(m Machine, log []*Job) float64 {
	_, util, _ := m.RunNative(context.Background(), log, nil) // a background run cannot fail
	return util
}

// RunNativeTraced is RunNative with decision tracing: tr (from a
// TraceCollector; nil disables tracing) records every scheduler decision
// of the run. The simulation itself is identical either way.
func RunNativeTraced(m Machine, log []*Job, tr *Tracer) (float64, error) {
	_, util, err := m.RunNative(context.Background(), log, tr)
	return util, err
}

// ProjectSpec sizes an interstitial project in the paper's units.
type ProjectSpec = core.ProjectSpec

// JobSpec is the materialized per-job shape on a specific machine.
type JobSpec = core.JobSpec

// ProjectResult reports a finite interstitial project run.
type ProjectResult struct {
	// Makespan is the wallclock from project start to last job finish.
	Makespan Time
	// Jobs are the interstitial job records.
	Jobs []*Job
	// Natives are the native job records from the same co-simulation.
	Natives []*Job
}

// RunProject co-simulates a finite interstitial project (fallible mode)
// dropped into the native log at startAt. The native log records reflect
// any interference.
func RunProject(m Machine, log []*Job, p ProjectSpec, startAt Time) (ProjectResult, error) {
	return RunProjectCtx(context.Background(), m, log, p, startAt)
}

// RunProjectCtx is RunProject under a context: a cancelled ctx aborts the
// co-simulation cooperatively and returns ctx's error.
func RunProjectCtx(ctx context.Context, m Machine, log []*Job, p ProjectSpec, startAt Time) (ProjectResult, error) {
	return RunProjectTraced(ctx, m, log, p, startAt, nil)
}

// RunProjectTraced is RunProjectCtx with decision tracing: tr (from a
// TraceCollector; nil disables tracing) records every scheduler decision
// of the co-simulation — native starts and backfills, interstitial
// spawns, placements, and preemption kills.
func RunProjectTraced(ctx context.Context, m Machine, log []*Job, p ProjectSpec, startAt Time, tr *Tracer) (ProjectResult, error) {
	if err := p.Validate(); err != nil {
		return ProjectResult{}, err
	}
	natives := job.CloneAll(log)
	ctrl := core.NewProject(p.JobSpecFor(m.Workload.Machine.ClockGHz), p.KJobs, startAt)
	if _, err := m.Run(ctx, natives, tr, ctrl.Attach); err != nil {
		return ProjectResult{}, err
	}
	ms, err := ctrl.Makespan()
	if err != nil {
		return ProjectResult{}, err
	}
	return ProjectResult{Makespan: ms, Jobs: ctrl.Jobs, Natives: natives}, nil
}

// ContinualResult reports a continual interstitial run.
type ContinualResult struct {
	// Jobs are the interstitial records; Natives the co-simulated log.
	Jobs    []*Job
	Natives []*Job
	// OverallUtil and NativeUtil are measured over the log horizon.
	OverallUtil float64
	NativeUtil  float64
	// KilledJobs and WastedCPUSeconds report preemption activity (zero
	// unless ContinualOpts.Preempt was set).
	KilledJobs       int
	WastedCPUSeconds float64
}

// RunContinual co-simulates continual interstitial computing over the
// whole log. utilCap in (0,1] suppresses submission above that
// instantaneous machine utilization; pass 0 for unlimited.
func RunContinual(m Machine, log []*Job, spec JobSpec, utilCap float64) (ContinualResult, error) {
	return RunContinualOpts(m, log, spec, ContinualOpts{UtilCap: utilCap})
}

// RunContinualCtx is RunContinual under a context: a cancelled ctx aborts
// the co-simulation cooperatively and returns ctx's error.
func RunContinualCtx(ctx context.Context, m Machine, log []*Job, spec JobSpec, utilCap float64) (ContinualResult, error) {
	return RunContinualOptsCtx(ctx, m, log, spec, ContinualOpts{UtilCap: utilCap})
}

// Preemption configures the controller extension that kills running
// interstitial jobs when they block the native head job; see
// internal/core for semantics.
type Preemption = core.Preemption

// ContinualOpts tunes a continual interstitial run.
type ContinualOpts struct {
	// UtilCap in (0,1] suppresses submission above that instantaneous
	// machine utilization (paper Section 4.3.2.2); 0 = unlimited.
	UtilCap float64
	// Preempt, when non-nil, enables the preemption/checkpoint extension.
	Preempt *Preemption
	// Tracer, when non-nil, records the run's scheduler decisions (obtain
	// one from a TraceCollector). Observation only.
	Tracer *Tracer
}

// RunContinualOpts is RunContinual with the full option set, including the
// beyond-the-paper preemption extension.
func RunContinualOpts(m Machine, log []*Job, spec JobSpec, opts ContinualOpts) (ContinualResult, error) {
	return RunContinualOptsCtx(context.Background(), m, log, spec, opts)
}

// RunContinualOptsCtx is RunContinualOpts under a context: a cancelled ctx
// aborts the co-simulation cooperatively and returns ctx's error.
func RunContinualOptsCtx(ctx context.Context, m Machine, log []*Job, spec JobSpec, opts ContinualOpts) (ContinualResult, error) {
	if err := spec.Validate(); err != nil {
		return ContinualResult{}, err
	}
	natives := job.CloneAll(log)
	ctrl := core.NewController(spec)
	ctrl.StopAt = m.Workload.Duration()
	ctrl.UtilCap = opts.UtilCap
	ctrl.Preempt = opts.Preempt
	if _, err := m.Run(ctx, natives, opts.Tracer, ctrl.Attach); err != nil {
		return ContinualResult{}, err
	}
	all := append(append([]*Job{}, natives...), ctrl.Jobs...)
	overall, native := stats.UtilizationByClass(all, m.Workload.Machine.CPUs, 0, m.Workload.Duration())
	return ContinualResult{
		Jobs: ctrl.Jobs, Natives: natives,
		OverallUtil: overall, NativeUtil: native,
		KilledJobs: ctrl.KilledJobs, WastedCPUSeconds: ctrl.WastedCPUSeconds,
	}, nil
}

// PlanOmniscient packs a project into the free capacity left by an
// already-simulated baseline log, with perfect knowledge of native starts
// and finishes: natives are unaffected by construction (the paper's
// Section 4.1 upper bound). The baseline log must have been run (e.g. via
// RunNative) so its records carry start/finish times.
func PlanOmniscient(m Machine, ranLog []*Job, p ProjectSpec, startAt Time) (Time, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	horizon := m.Workload.Duration()
	spec := p.JobSpecFor(m.Workload.Machine.ClockGHz)
	copies := core.TimelineCopies(horizon, startAt, TheoreticalMakespan(m, p.PetaCycles))
	free, err := core.FreeTimeline(ranLog, m.Workload.Machine.CPUs, horizon, copies)
	if err != nil {
		return 0, err
	}
	res, err := core.PackProject(free, spec, startAt, p.KJobs)
	if err != nil {
		return 0, err
	}
	return res.Makespan, nil
}

// TheoreticalMakespan is the paper's ideal law P/(nC(1-U)), in seconds.
func TheoreticalMakespan(m Machine, petaCycles float64) float64 {
	return theory.Makespan(petaCycles, m.Workload.Machine.CPUs, m.Workload.Machine.ClockGHz, m.Workload.TargetUtil)
}

// Breakage is the paper's space-breakage factor for jobs of jobCPUs on
// machine m at its Table 1 utilization.
func Breakage(m Machine, jobCPUs int) float64 {
	return theory.Breakage(m.Workload.Machine.CPUs, m.Workload.TargetUtil, jobCPUs)
}

// Utilization measures the fraction of machine m's CPUs busy over
// [from, to) in the given records.
func Utilization(m Machine, jobs []*Job, from, to Time) float64 {
	return stats.Utilization(jobs, m.Workload.Machine.CPUs, from, to)
}
