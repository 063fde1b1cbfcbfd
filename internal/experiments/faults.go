package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"interstitial/internal/core"
	"interstitial/internal/engine"
	"interstitial/internal/faults"
	"interstitial/internal/job"
	"interstitial/internal/sim"
)

// faultsRegime is one row of the sensitivity table: a machine failure
// environment the continual interstitial run is subjected to.
type faultsRegime struct {
	Label string
	// MTBF <= 0 disables outages; expressed as a fraction of the horizon
	// so the regime scales with Options.Scale.
	MTBF sim.Time
	// CorruptFrac corrupts that fraction of native runtime estimates.
	CorruptFrac float64
}

// FaultsCell is one (regime, overhead) measurement.
type FaultsCell struct {
	// Efficiency is useful interstitial work over interstitial machine
	// time consumed: finished jobs' runtime net of restart overhead,
	// divided by all CPU-seconds interstitial guests occupied (including
	// killed runs and overhead).
	Efficiency float64
	// Kills counts preemption + eviction kills; Evicted the subset forced
	// by outages; Outages the node-loss intervals that actually struck.
	Kills   int
	Evicted int
	Outages int
}

// FaultsResult is the kill-overhead x fault-regime sensitivity study: the
// robustness analogue of the paper's sensitivity tables. Rows are fault
// regimes (node MTBF, estimate corruption), columns are restart overheads
// as multiples of the unit job runtime R. Interstitial efficiency decays
// monotonically with restart overhead: every kill forces a continuation
// that spends the overhead re-reading checkpoint state before doing new
// work.
type FaultsResult struct {
	System    string
	UnitR     sim.Time
	RowLabels []string
	ColLabels []string
	Cells     [][]FaultsCell
}

// faultsOverheads are the restart-overhead columns, as multiples of R.
var faultsOverheads = []struct {
	label string
	mult  float64
}{
	{"0", 0}, {"R/2", 0.5}, {"2R", 2}, {"8R", 8},
}

// faultsRegimes are the fault-environment rows. MTBF is set per-horizon
// in FaultsSensitivity.
func faultsRegimes(horizon sim.Time) []faultsRegime {
	return []faultsRegime{
		{Label: "no outages", MTBF: 0},
		{Label: "MTBF=T/8", MTBF: horizon / 8},
		{Label: "MTBF=T/32", MTBF: horizon / 32},
		{Label: "MTBF=T/32 + bad est.", MTBF: horizon / 32, CorruptFrac: 0.3},
	}
}

// FaultsSensitivity measures continual interstitial efficiency on Blue
// Mountain under injected machine faults (seeded node-loss outages,
// corrupted user estimates) crossed with the preemption extension's
// kill-latency and restart-overhead knobs. Within a row the fault
// schedule is identical across columns (same seed), so restart overhead
// is the only variable — the decay across a row is pure kill overhead.
func FaultsSensitivity(l *Lab) *FaultsResult {
	o := l.Options()
	b := l.Baseline("Blue Mountain")
	horizon := b.sys.Workload.Duration()
	cpus := b.sys.Workload.Machine.CPUs
	unitR := b.sys.Seconds1GHz(120)
	regimes := faultsRegimes(horizon)

	res := &FaultsResult{System: b.sys.Name, UnitR: unitR}
	for _, rg := range regimes {
		res.RowLabels = append(res.RowLabels, rg.Label)
	}
	for _, ov := range faultsOverheads {
		res.ColLabels = append(res.ColLabels, ov.label)
	}
	res.Cells = make([][]FaultsCell, len(regimes))
	for i := range res.Cells {
		res.Cells[i] = make([]FaultsCell, len(faultsOverheads))
	}

	cols := len(faultsOverheads)
	l.fanout(len(regimes)*cols, func(cell int) {
		row, col := cell/cols, cell%cols
		rg := regimes[row]
		overhead := sim.Time(float64(unitR) * faultsOverheads[col].mult)

		natives := job.CloneAll(b.log)
		if rg.CorruptFrac > 0 {
			faults.CorruptEstimates(natives, rg.CorruptFrac, o.Seed+int64(row))
		}
		ctrl := core.NewController(core.JobSpec{CPUs: 32, Runtime: unitR})
		ctrl.StopAt = horizon
		ctrl.Preempt = &core.Preemption{KillLatency: 60, RestartOverhead: overhead}
		attach := []func(*engine.Simulator) error{ctrl.Attach}
		var inj *faults.Injector
		if rg.MTBF > 0 {
			sched, err := faults.NewSchedule(faults.Config{
				Seed: o.Seed + int64(row), MTBF: rg.MTBF,
				MeanRepair: horizon / 64, LossFrac: 0.10,
			}, horizon, cpus)
			if err != nil {
				panic(err)
			}
			attach = append(attach, func(sm *engine.Simulator) error {
				inj = faults.Attach(sm, sched, ctrl)
				return nil
			})
		}
		l.run(b.sys, natives, l.scenarioTracer(fmt.Sprintf("r%02d-c%02d", row, col), b.sys), attach...)

		var useful, occupied float64
		for _, j := range ctrl.Jobs {
			switch j.State {
			case job.Finished:
				occupied += float64(j.CPUs) * float64(j.Runtime)
				useful += float64(j.CPUs) * float64(j.Runtime-j.Overhead)
			case job.Killed:
				occupied += float64(j.CPUs) * float64(j.Finish-j.Start)
			}
		}
		c := FaultsCell{Kills: ctrl.KilledJobs}
		if occupied > 0 {
			c.Efficiency = useful / occupied
		}
		if inj != nil {
			c.Evicted, c.Outages = inj.Evicted, inj.Struck
		}
		res.Cells[row][col] = c
	})
	return res
}

// Render writes the paper-style sensitivity table.
func (r *FaultsResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Faults Sensitivity. Interstitial Efficiency on %s under Injected Failures\n", r.System)
	fmt.Fprintf(w, "(32-CPU unit jobs, R = %ds; efficiency %% = useful work / interstitial CPU-time; kills in parens)\n", r.UnitR)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "fault regime \\ restart overhead\t")
	for _, c := range r.ColLabels {
		fmt.Fprintf(tw, "%s\t", c)
	}
	fmt.Fprintln(tw)
	for i, label := range r.RowLabels {
		fmt.Fprintf(tw, "%s\t", label)
		for _, c := range r.Cells[i] {
			fmt.Fprintf(tw, "%.1f (%d)\t", 100*c.Efficiency, c.Kills)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// CSV dumps the grid for plotting.
func (r *FaultsResult) CSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "regime,overhead,efficiency,kills,evicted,outages"); err != nil {
		return err
	}
	for i, row := range r.RowLabels {
		for k, col := range r.ColLabels {
			c := r.Cells[i][k]
			if _, err := fmt.Fprintf(w, "%q,%q,%.4f,%d,%d,%d\n", row, col, c.Efficiency, c.Kills, c.Evicted, c.Outages); err != nil {
				return err
			}
		}
	}
	return nil
}
