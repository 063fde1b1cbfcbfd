// Package testbed bundles each ASCI machine's hardware profile, workload
// profile, and queueing policy into a ready-to-simulate System, and
// provides the utilization calibration loop: the synthetic log is rescaled
// until the *achieved* native utilization in simulation matches Table 1,
// not merely the offered load.
package testbed

import (
	"context"
	"fmt"

	"interstitial/internal/engine"
	"interstitial/internal/job"
	"interstitial/internal/sched"
	"interstitial/internal/sim"
	"interstitial/internal/stats"
	"interstitial/internal/tracing"
	"interstitial/internal/workload"
)

// System is one of the paper's three machines, ready to simulate.
type System struct {
	// Name is the machine name ("Ross", "Blue Mountain", "Blue Pacific").
	Name string
	// Workload is the synthetic log profile.
	Workload workload.Profile
	// NewPolicy constructs a fresh instance of the machine's queueing
	// policy (policies are stateful: fair-share usage).
	NewPolicy func() sched.Policy
}

// Ross returns the Sandia machine: PBS with equal shares and restrictive
// (conservative) backfill.
func Ross() System {
	return System{Name: "Ross", Workload: workload.Ross(), NewPolicy: func() sched.Policy { return sched.NewPBS() }}
}

// BlueMountain returns the Los Alamos machine: LSF with hierarchical group
// fair share and EASY backfill.
func BlueMountain() System {
	return System{Name: "Blue Mountain", Workload: workload.BlueMountain(), NewPolicy: func() sched.Policy { return sched.NewLSF() }}
}

// BluePacific returns the Livermore machine: DPCS with user+group fair
// share, EASY backfill, and time-of-day constraints.
func BluePacific() System {
	return System{Name: "Blue Pacific", Workload: workload.BluePacific(), NewPolicy: func() sched.Policy {
		return sched.NewDPCS(sched.DefaultDPCSGate())
	}}
}

// All returns the three systems in the paper's column order.
func All() []System { return []System{Ross(), BlueMountain(), BluePacific()} }

// Scaled resizes the workload's days and job count by f > 0: below 1 for
// fast runs (at least 50 jobs, the long-job tail clamped), above 1 for
// streaming-scale stress runs. It is the one scaling rule the harness and
// the CLIs share.
func (s System) Scaled(f float64) System {
	if f == 1 {
		return s
	}
	s.Workload.Days *= f
	s.Workload.Jobs = int(float64(s.Workload.Jobs) * f)
	if s.Workload.Jobs < 50 {
		s.Workload.Jobs = 50
	}
	// A weeks-scale runtime tail cannot live inside a days-scale log:
	// clamp it so calibration can still reach the target utilization.
	// Grown logs only get longer, so the clamp applies when shrinking.
	if maxH := s.Workload.Days * 24 / 3; f < 1 && s.Workload.LongJobMaxHours > maxH {
		s.Workload.LongJobMaxHours = maxH
	}
	return s
}

// Run is the one place a job log is simulated: a fresh simulator under
// ctx, recording into tr (nil: untraced), takes the jobs, then each
// attach in order (a controller's Attach, then a fault injector), and
// runs. A cancelled ctx aborts within ~4096 events and returns ctx's
// error with the partial simulator. The jobs are mutated (start/finish
// recorded).
func (s System) Run(ctx context.Context, jobs []*job.Job, tr *tracing.Tracer, attach ...func(*engine.Simulator) error) (*engine.Simulator, error) {
	sm := engine.New(s.Workload.Machine, s.NewPolicy())
	sm.SetContext(ctx)
	sm.SetTracer(tr)
	sm.Submit(jobs...)
	for _, a := range attach {
		if err := a(sm); err != nil {
			return sm, err
		}
	}
	sm.Run()
	if sm.Interrupted() {
		return sm, ctx.Err()
	}
	return sm, nil
}

// RunNative is Run with no interstitial jobs, reporting the achieved
// native utilization over the log horizon.
func (s System) RunNative(ctx context.Context, jobs []*job.Job, tr *tracing.Tracer) (*engine.Simulator, float64, error) {
	sm, err := s.Run(ctx, jobs, tr)
	if err != nil {
		return sm, 0, err
	}
	return sm, stats.Utilization(jobs, s.Workload.Machine.CPUs, 0, s.Workload.Duration()), nil
}

// CalibratedLog generates a native log whose achieved (simulated)
// utilization matches the profile's Table 1 target within tol, by
// iteratively rescaling the offered load. It returns a fresh, unsimulated
// log. Typical convergence is 1-3 iterations.
func (s System) CalibratedLog(seed int64, tol float64) []*job.Job {
	jobs, err := s.CalibratedLogCtx(context.Background(), seed, tol)
	if err != nil {
		// Unreachable: a background context never cancels.
		panic(err)
	}
	return jobs
}

// CalibratedLogCtx is CalibratedLog under a context: the calibration loop
// runs up to five full native simulations, and a cancelled ctx aborts the
// current one and returns ctx's error.
func (s System) CalibratedLogCtx(ctx context.Context, seed int64, tol float64) ([]*job.Job, error) {
	if tol <= 0 {
		tol = 0.01
	}
	p := s.Workload
	target := p.TargetUtil
	offered := target
	for iter := 0; iter < 5; iter++ {
		p.TargetUtil = offered
		jobs := workload.MustGenerate(p, seed)
		_, achieved, err := s.RunNative(ctx, job.CloneAll(jobs), nil)
		if err != nil {
			return nil, err
		}
		if achieved <= 0 {
			panic(fmt.Sprintf("testbed %s: zero achieved utilization", s.Name))
		}
		if diff := achieved - target; diff <= tol && diff >= -tol {
			return jobs, nil
		}
		// Proportional correction, damped, and clamped to a sane band so
		// a saturated machine cannot drive the offered load to silly
		// values.
		offered *= 1 + 0.9*(target-achieved)/target
		if offered > 0.99 {
			offered = 0.99
		}
		if offered < target/2 {
			offered = target / 2
		}
	}
	p.TargetUtil = offered
	return workload.MustGenerate(p, seed), nil
}

// Seconds1GHz converts a per-CPU work amount expressed as "seconds at
// 1 GHz" (the paper's normalization) into wallclock seconds on this
// system's machine.
func (s System) Seconds1GHz(sec float64) sim.Time {
	return sim.Time(sec/s.Workload.Machine.ClockGHz + 0.5)
}
