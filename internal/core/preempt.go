package core

import (
	"sort"

	"interstitial/internal/engine"
	"interstitial/internal/job"
	"interstitial/internal/sim"
	"interstitial/internal/tracing"
)

// Preemption extends the controller beyond the paper: the paper's jobs
// are strictly non-preemptive, so a running interstitial job can delay a
// native job by up to its full runtime ("breakage in time... because
// there is no checkpoint/restart"). With preemption enabled, the
// controller kills its own running jobs the moment they stand between the
// highest-priority native job and its CPUs, and resubmits the remainder
// of the killed work.
type Preemption struct {
	// CheckpointEvery is the interval at which interstitial jobs persist
	// progress. A killed job loses only the work since its last
	// checkpoint; the rest is resubmitted as a shorter continuation job.
	// Zero means no checkpointing: killed jobs restart from scratch.
	CheckpointEvery sim.Time
}

// preempt kills running interstitial jobs, youngest first, until the
// native head job fits, and reports whether it killed anything. It runs
// before any new submissions in a pass.
func (c *Controller) preempt(s *engine.Simulator) bool {
	h := s.Queue().Head()
	if h == nil {
		return false
	}
	m := s.Machine()
	if m.CanStart(h.CPUs) {
		return false // the next pass will start it; nothing blocks
	}
	// Don't burn progress for a head that is gated anyway (e.g. a DPCS
	// time-of-day window): freeing CPUs would not start it.
	if s.Policy().EarliestAllowed(s.Now(), h) != s.Now() {
		return false
	}
	deficit := h.CPUs - m.Free()
	if deficit > m.BusyInterstitial() {
		return false // natives, not our jobs, are what blocks the head
	}
	var mine []*job.Job
	m.Running(func(j *job.Job) {
		if j.Class == job.Interstitial {
			mine = append(mine, j)
		}
	})
	// Youngest first: the least sunk work is lost.
	sort.Slice(mine, func(i, k int) bool {
		if mine[i].Start != mine[k].Start {
			return mine[i].Start > mine[k].Start
		}
		return mine[i].ID > mine[k].ID
	})
	killed := false
	for _, j := range mine {
		if deficit <= 0 {
			break
		}
		c.kill(s, j)
		deficit -= j.CPUs
		killed = true
	}
	return killed
}

// kill aborts one running interstitial job, accounts the lost work, and
// queues the un-checkpointed remainder for resubmission.
func (c *Controller) kill(s *engine.Simulator, j *job.Job) {
	now := s.Now()
	ran := now - j.Start
	var kept sim.Time
	if ckpt := c.Preempt.CheckpointEvery; ckpt > 0 {
		kept = (ran / ckpt) * ckpt
	}
	c.WastedCPUSeconds += float64(j.CPUs) * float64(ran-kept)
	s.Kill(j)
	j.Finish = now // record when the job left the machine
	c.KilledJobs++
	if t := s.Tracer(); t != nil {
		t.Emit(now, tracing.KindKill, tracing.ReasonHeadBlocked, j.ID, j.CPUs, s.Machine().Busy(), int64(ran))
	}
	if remaining := j.Runtime - kept; remaining > 0 {
		c.backlog = append(c.backlog, remaining)
	}
}
