package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"interstitial/internal/core"
	"interstitial/internal/job"
	"interstitial/internal/predict"
	"interstitial/internal/sched"
	"interstitial/internal/stats"
	"interstitial/internal/testbed"
	"interstitial/internal/workload"
)

// This file holds the ablation studies DESIGN.md §5 calls out — they go
// beyond the paper, quantifying the design choices its conclusions rest
// on: estimate quality, backfill flavor, arrival burstiness, interstitial
// job length, and the utilization cap.

// ablationRow is one scenario line shared by the ablation tables.
type ablationRow struct {
	Label            string
	InterstitialJobs int
	HarvestedCPUh    float64 // interstitial CPU-hours completed in-log
	OverallUtil      float64
	NativeUtil       float64
	NativeMedianWait float64
	NativeMeanWait   float64
	BigMedianWait    float64
}

// AblationResult is a generic ablation table.
type AblationResult struct {
	Title string
	Note  string
	Rows  []ablationRow
}

// Render writes the table.
func (r *AblationResult) Render(w io.Writer) error {
	fmt.Fprintln(w, r.Title)
	if r.Note != "" {
		fmt.Fprintf(w, "  %s\n", r.Note)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scenario\tinterstitial jobs\tharvested CPU·h\toverall util\tnative util\tnative wait med/mean\t5% largest med")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%.0f\t%.3f\t%.3f\t%s / %s\t%s\n",
			row.Label, row.InterstitialJobs, row.HarvestedCPUh,
			row.OverallUtil, row.NativeUtil,
			stats.FormatSeconds(row.NativeMedianWait), stats.FormatSeconds(row.NativeMeanWait),
			stats.FormatSeconds(row.BigMedianWait))
	}
	return tw.Flush()
}

// runScenario co-simulates log on sys, traced as label, with a continual
// controller for spec stopped at the horizon, capped at capUtil (0: no
// cap) and preempting under pre (nil: the paper's jobs), or natives only
// when spec.CPUs is 0. It returns the run's ablation row, whose harvest
// is net of the work kills wasted, and the controller (nil if none).
func runScenario(l *Lab, label string, sys testbed.System, log []*job.Job, spec core.JobSpec, capUtil float64, pre *core.Preemption) (ablationRow, *core.Controller) {
	natives := job.CloneAll(log)
	horizon := sys.Workload.Duration()
	if spec.CPUs == 0 {
		l.run(sys, natives, l.scenarioTracer(label, sys))
		return ablationRowOf(label, 0, stats.ImpactOf(natives, nil, sys.Workload.Machine.CPUs, horizon)), nil
	}
	ctrl := core.NewController(spec)
	ctrl.StopAt = horizon
	ctrl.UtilCap = capUtil
	ctrl.Preempt = pre
	l.run(sys, natives, l.scenarioTracer(label, sys), ctrl.Attach)
	imp := stats.ImpactOf(natives, ctrl.Jobs, sys.Workload.Machine.CPUs, horizon)
	row := ablationRowOf(label, len(ctrl.Jobs), imp)
	row.HarvestedCPUh = (imp.Harvested - ctrl.WastedCPUSeconds) / 3600
	return row, ctrl
}

// ablationRowOf condenses a co-simulation's native impact into a row.
func ablationRowOf(label string, interstitialJobs int, imp stats.Impact) ablationRow {
	return ablationRow{
		Label:            label,
		InterstitialJobs: interstitialJobs,
		HarvestedCPUh:    imp.Harvested / 3600,
		OverallUtil:      imp.OverallUtil,
		NativeUtil:       imp.NativeUtil,
		NativeMedianWait: imp.WaitAll.Median,
		NativeMeanWait:   imp.WaitAll.Mean,
		BigMedianWait:    imp.WaitBig.Median,
	}
}

// AblationEstimates compares user estimates (the paper's default-heavy
// gross overestimates) against perfect estimates and a uniform 2x
// overestimate, holding everything else fixed. Perfect estimates make the
// controller's plan exact, so native protection should be tightest there.
func AblationEstimates(l *Lab) *AblationResult {
	b := l.Baseline("Blue Mountain")
	spec := core.JobSpec{CPUs: 32, Runtime: b.sys.Seconds1GHz(120)}
	res := &AblationResult{
		Title: "Ablation: runtime-estimate quality (Blue Mountain, continual 32CPU × 120s@1GHz)",
		Note:  "the paper's estimates are default-heavy gross overestimates; this isolates their effect",
	}
	variants := []struct {
		label string
		mut   func(*job.Job)
	}{
		{"user estimates (paper)", nil},
		{"perfect estimates", func(j *job.Job) { j.Estimate = j.Runtime }},
		{"uniform 2× estimates", func(j *job.Job) { j.Estimate = 2 * j.Runtime }},
	}
	res.Rows = make([]ablationRow, len(variants))
	l.fanout(len(variants), func(i int) {
		v := variants[i]
		log := job.CloneAll(b.log)
		if v.mut != nil {
			for _, j := range log {
				v.mut(j)
			}
		}
		res.Rows[i], _ = runScenario(l, v.label, b.sys, log, spec, 0, nil)
	})
	return res
}

// AblationBackfill swaps the queueing policy under the same Blue Mountain
// log: EASY (LSF), conservative (PBS-style), and plain FCFS, each with and
// without continual interstitial jobs.
func AblationBackfill(l *Lab) *AblationResult {
	b := l.Baseline("Blue Mountain")
	spec := core.JobSpec{CPUs: 32, Runtime: b.sys.Seconds1GHz(120)}
	res := &AblationResult{
		Title: "Ablation: backfill flavor (Blue Mountain log, continual 32CPU × 120s@1GHz)",
		Note:  "interstitial computing must coexist with whatever backfill the machine runs",
	}
	flavors := []struct {
		label string
		pol   func() sched.Policy
	}{
		{"EASY (LSF, paper)", func() sched.Policy { return sched.NewLSF() }},
		{"conservative (PBS)", func() sched.Policy { return sched.NewPBS() }},
		{"FCFS, no backfill", func() sched.Policy { return sched.NewFCFS() }},
	}
	// Flatten to (flavor, with/without) scenarios: all six simulations are
	// independent.
	res.Rows = make([]ablationRow, 2*len(flavors))
	l.fanout(2*len(flavors), func(i int) {
		v := flavors[i/2]
		sys := b.sys
		sys.NewPolicy = v.pol
		if i%2 == 0 {
			res.Rows[i], _ = runScenario(l, v.label+" native-only", sys, b.log, core.JobSpec{}, 0, nil)
		} else {
			res.Rows[i], _ = runScenario(l, v.label+" +interstitial", sys, b.log, spec, 0, nil)
		}
	})
	return res
}

// AblationBurstiness regenerates the Blue Mountain log at three arrival
// burstiness levels. Burstiness drives utilization variance, and the
// paper credits it for the long makespan tails; flattening arrivals
// should narrow the interstices without changing their total area much.
func AblationBurstiness(l *Lab) *AblationResult {
	o := l.Options()
	res := &AblationResult{
		Title: "Ablation: arrival burstiness (Blue Mountain, continual 32CPU × 120s@1GHz)",
		Note:  "harvest total is ~invariant; burstiness moves the variance and the native tail",
	}
	bursts := []float64{0, 0.6, 1.0}
	res.Rows = make([]ablationRow, len(bursts))
	l.fanout(len(bursts), func(i int) {
		sys := testbed.BlueMountain().Scaled(o.Scale)
		sys.Workload.Burstiness = bursts[i]
		log := workload.MustGenerate(sys.Workload, o.Seed)
		spec := core.JobSpec{CPUs: 32, Runtime: sys.Seconds1GHz(120)}
		res.Rows[i], _ = runScenario(l, fmt.Sprintf("burstiness %.1f", bursts[i]), sys, log, spec, 0, nil)
	})
	return res
}

// AblationJobLength sweeps the interstitial job runtime at fixed 32 CPUs:
// the paper's central guideline trade-off (short jobs bound native delay;
// long jobs amortize breakage-in-time).
func AblationJobLength(l *Lab) *AblationResult {
	b := l.Baseline("Blue Mountain")
	res := &AblationResult{
		Title: "Ablation: interstitial job length (Blue Mountain, continual, 32 CPUs/job)",
		Note:  "paper guideline: short jobs bound the worst-case native delay",
	}
	secs := []float64{30, 120, 480, 960, 3840}
	res.Rows = make([]ablationRow, len(secs))
	l.fanout(len(secs), func(i int) {
		spec := core.JobSpec{CPUs: 32, Runtime: b.sys.Seconds1GHz(secs[i])}
		res.Rows[i], _ = runScenario(l, fmt.Sprintf("%.0fs@1GHz (%ds)", secs[i], spec.Runtime), b.sys, b.log, spec, 0, nil)
	})
	return res
}

// AblationPreemption evaluates the checkpoint/restart extension (the
// paper's "breakage in time" remark): preemptive interstitial jobs that
// yield to the native head, with and without checkpointing, against the
// paper's non-preemptive baseline. Uses the *long* interstitial jobs,
// where non-preemptive native damage is worst.
func AblationPreemption(l *Lab) *AblationResult {
	b := l.Baseline("Blue Mountain")
	spec := core.JobSpec{CPUs: 32, Runtime: b.sys.Seconds1GHz(960)}
	res := &AblationResult{
		Title: "Ablation: preemption & checkpointing (Blue Mountain, continual 32CPU × 960s@1GHz)",
		Note:  "beyond the paper: killed jobs lose work back to their last checkpoint",
	}
	variants := []struct {
		label string
		pre   *core.Preemption
	}{
		{"non-preemptive (paper)", nil},
		{"preempt, no checkpoint", &core.Preemption{}},
		{"preempt, ckpt 60s", &core.Preemption{CheckpointEvery: 60}},
		{"preempt, ckpt 600s", &core.Preemption{CheckpointEvery: 600}},
	}
	res.Rows = make([]ablationRow, len(variants))
	l.fanout(len(variants), func(i int) {
		row, ctrl := runScenario(l, variants[i].label, b.sys, b.log, spec, 0, variants[i].pre)
		row.Label = fmt.Sprintf("%s [kills=%d wasted=%.0f CPUh]", row.Label, ctrl.KilledJobs, ctrl.WastedCPUSeconds/3600)
		res.Rows[i] = row
	})
	return res
}

// AblationPrediction evaluates online runtime prediction (the paper's
// Network Weather Service pointer): the same Blue Mountain log scheduled
// with raw user estimates, with a smoothed per-user predictor, and with a
// perfect oracle, each under continual interstitial load. Better
// estimates tighten the controller's plan, protecting natives without
// giving up harvest.
func AblationPrediction(l *Lab) *AblationResult {
	b := l.Baseline("Blue Mountain")
	spec := core.JobSpec{CPUs: 32, Runtime: b.sys.Seconds1GHz(960)}
	res := &AblationResult{
		Title: "Ablation: runtime prediction (Blue Mountain, continual 32CPU × 960s@1GHz)",
		Note:  "beyond the paper: per-user smoothed prediction vs raw user estimates vs oracle",
	}
	variants := []struct {
		label string
		mk    func() predict.Predictor
	}{
		{"user estimates (paper)", func() predict.Predictor { return predict.UserEstimate{} }},
		{"smoothed per-user", func() predict.Predictor { return predict.NewSmoothed() }},
		{"perfect oracle", func() predict.Predictor { return predict.Perfect{} }},
	}
	res.Rows = make([]ablationRow, len(variants))
	l.fanout(len(variants), func(i int) {
		v := variants[i]
		pred := v.mk()
		sys := b.sys
		inner := sys.NewPolicy
		sys.NewPolicy = func() sched.Policy { return predict.Wrap(inner(), pred) }
		natives := job.CloneAll(b.log)
		horizon := sys.Workload.Duration()
		ctrl := core.NewController(spec)
		ctrl.StopAt = horizon
		l.run(sys, natives, l.scenarioTracer(v.label, sys), ctrl.Attach)
		geo, under := predict.Accuracy(natives)
		res.Rows[i] = ablationRowOf(fmt.Sprintf("%s [est/actual geo=%.1fx under=%.0f%%]", v.label, geo, under*100),
			len(ctrl.Jobs), stats.ImpactOf(natives, ctrl.Jobs, sys.Workload.Machine.CPUs, horizon))
	})
	return res
}

// AblationGuard quantifies Figure 1's backfillWallTime condition by
// disabling it: a naive cycle-scavenger (the related-work screen-saver
// model) grabs any free CPUs without checking whether the native head
// could use them soon. Compared under the paper's EASY policy and under
// a modern SLURM-style multifactor policy.
func AblationGuard(l *Lab) *AblationResult {
	b := l.Baseline("Blue Mountain")
	spec := core.JobSpec{CPUs: 32, Runtime: b.sys.Seconds1GHz(960)}
	res := &AblationResult{
		Title: "Ablation: Figure 1's backfillWallTime guard (Blue Mountain, continual 32CPU × 960s@1GHz)",
		Note:  "guard off = naive cycle scavenging; the guard is what makes filler jobs polite",
	}
	pols := []struct {
		label string
		mk    func() sched.Policy
	}{
		{"LSF (paper)", func() sched.Policy { return sched.NewLSF() }},
		{"Multifactor (SLURM-style)", func() sched.Policy { return sched.NewMultifactor() }},
	}
	res.Rows = make([]ablationRow, 2*len(pols))
	l.fanout(2*len(pols), func(i int) {
		pol, ignore := pols[i/2], i%2 == 1
		sys := b.sys
		sys.NewPolicy = pol.mk
		label := pol.label + ", guard on"
		if ignore {
			label = pol.label + ", guard OFF"
		}
		natives := job.CloneAll(b.log)
		horizon := sys.Workload.Duration()
		ctrl := core.NewController(spec)
		ctrl.StopAt = horizon
		ctrl.IgnorePlan = ignore
		l.run(sys, natives, l.scenarioTracer(label, sys), ctrl.Attach)
		res.Rows[i] = ablationRowOf(label, len(ctrl.Jobs), stats.ImpactOf(natives, ctrl.Jobs, sys.Workload.Machine.CPUs, horizon))
	})
	return res
}

// AblationJobWidth sweeps CPUs/job at fixed per-job work — the other axis
// of the paper's guidelines ("Number of CPUs/interstitial-job must be
// small"). Wide jobs suffer space breakage and block less often.
func AblationJobWidth(l *Lab) *AblationResult {
	b := l.Baseline("Blue Mountain")
	res := &AblationResult{
		Title: "Ablation: interstitial job width (Blue Mountain, continual, 120s@1GHz each)",
		Note:  "paper guideline: few CPUs/job — wide jobs waste breakage and fit fewer holes",
	}
	widths := []int{1, 8, 32, 128, 512}
	res.Rows = make([]ablationRow, len(widths))
	l.fanout(len(widths), func(i int) {
		spec := core.JobSpec{CPUs: widths[i], Runtime: b.sys.Seconds1GHz(120)}
		res.Rows[i], _ = runScenario(l, fmt.Sprintf("%d CPUs/job", widths[i]), b.sys, b.log, spec, 0, nil)
	})
	return res
}

// UtilizationSweep re-derives the paper's headline claim — "interstitial
// computing can be applied very effectively up to very high utilizations"
// — on a synthetic machine whose native load is dialed from 50% to 95%:
// harvested cycles track the spare capacity N(1-U) while native medians
// stay put.
func UtilizationSweep(l *Lab) *AblationResult {
	o := l.Options()
	res := &AblationResult{
		Title: "Utilization sweep: interstitial harvest vs native load (Blue Mountain hardware)",
		Note:  "harvest tracks spare capacity N(1-U); native medians stay near baseline",
	}
	utils := []float64{0.50, 0.65, 0.79, 0.88, 0.95}
	res.Rows = make([]ablationRow, len(utils))
	l.fanout(len(utils), func(i int) {
		sys := testbed.BlueMountain().Scaled(o.Scale)
		sys.Workload.TargetUtil = utils[i]
		log := workload.MustGenerate(sys.Workload, o.Seed)
		spec := core.JobSpec{CPUs: 32, Runtime: sys.Seconds1GHz(120)}
		res.Rows[i], _ = runScenario(l, fmt.Sprintf("native load %.2f", utils[i]), sys, log, spec, 0, nil)
	})
	return res
}

// AblationCapSweep extends Table 8b to a finer utilization-cap sweep.
func AblationCapSweep(l *Lab) *AblationResult {
	b := l.Baseline("Blue Mountain")
	spec := core.JobSpec{CPUs: 32, Runtime: b.sys.Seconds1GHz(120)}
	res := &AblationResult{
		Title: "Ablation: utilization-cap sweep (Blue Mountain, continual 32CPU × 120s@1GHz)",
	}
	caps := []float64{0.85, 0.90, 0.93, 0.95, 0.98, 1.0, 0}
	res.Rows = make([]ablationRow, len(caps))
	l.fanout(len(caps), func(i int) {
		label := fmt.Sprintf("cap %.2f", caps[i])
		if caps[i] == 0 {
			label = "uncapped"
		}
		res.Rows[i], _ = runScenario(l, label, b.sys, b.log, spec, caps[i], nil)
	})
	return res
}
