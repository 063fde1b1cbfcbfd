package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"interstitial/internal/core"
	"interstitial/internal/job"
	"interstitial/internal/stats"
	"interstitial/internal/testbed"
)

// Table5Scenario is one column of Table 5: native jobs alone or alongside
// one finite interstitial project.
type Table5Scenario struct {
	Label string
	// Wait/EF summaries over all native jobs and the 5% largest (by
	// CPU-seconds).
	WaitAll, WaitBig stats.Summary
	EFAll, EFBig     stats.Summary
	InterstitialJobs int
}

// Table5Result reproduces Table 5: native job performance on Blue
// Mountain without and with the two 123-Pc 32-CPU projects.
type Table5Result struct {
	Scenarios []Table5Scenario
}

// Table5 co-simulates each scenario end to end (no sampling shortcut):
// one finite project dropped into the log at a fixed fraction of the
// horizon, full fair-share fallible scheduling throughout.
func Table5(l *Lab) *Table5Result {
	o := l.Options()
	b := l.Baseline("Blue Mountain")
	horizon := b.sys.Workload.Duration()
	startAt := horizon / 4

	short := o.scaledProject(core.ProjectSpec{PetaCycles: 123, KJobs: 32000, CPUsPerJob: 32})
	long := o.scaledProject(core.ProjectSpec{PetaCycles: 123, KJobs: 4000, CPUsPerJob: 32})

	res := &Table5Result{}
	scens := []struct {
		label string
		proj  core.ProjectSpec
	}{
		{"Native + 32k×458s", short},
		{"Native + 4k×3664s", long},
	}
	// The two project co-simulations are independent full runs: fan them
	// out over the lab's pool, landing each scenario in its slot.
	res.Scenarios = make([]Table5Scenario, 1+len(scens))
	res.Scenarios[0] = summarizeNatives("Native", b.sys, b.ran, nil)
	l.fanout(len(scens), func(i int) {
		sc := scens[i]
		natives := job.CloneAll(b.log)
		spec := sc.proj.JobSpecFor(b.sys.Workload.Machine.ClockGHz)
		ctrl := core.NewProject(spec, sc.proj.KJobs, startAt)
		ctrl.StopAt = horizon * 4 // projects may outlive the log
		l.run(b.sys, natives, l.scenarioTracer(sc.label, b.sys), ctrl.Attach)
		res.Scenarios[1+i] = summarizeNatives(sc.label, b.sys, natives, ctrl.Jobs)
	})
	return res
}

// summarizeNatives builds a column from the native impact of a run.
func summarizeNatives(label string, sys testbed.System, natives, inter []*job.Job) Table5Scenario {
	imp := stats.ImpactOf(natives, inter, sys.Workload.Machine.CPUs, sys.Workload.Duration())
	return Table5Scenario{
		Label:            label,
		WaitAll:          imp.WaitAll,
		WaitBig:          imp.WaitBig,
		EFAll:            imp.EFAll,
		EFBig:            imp.EFBig,
		InterstitialJobs: len(inter),
	}
}

// Render writes the paper-style table.
func (r *Table5Result) Render(w io.Writer) error {
	fmt.Fprintln(w, "Table 5. Native Job Performance on Blue Mountain")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "\t\t")
	for _, s := range r.Scenarios {
		fmt.Fprintf(tw, "%s\t", s.Label)
	}
	fmt.Fprintln(tw)
	row := func(group, metric string, f func(Table5Scenario) string) {
		fmt.Fprintf(tw, "%s\t%s\t", group, metric)
		for _, s := range r.Scenarios {
			fmt.Fprintf(tw, "%s\t", f(s))
		}
		fmt.Fprintln(tw)
	}
	// Full-precision seconds: a single project's whole-log deltas are
	// small (see EXPERIMENTS.md) and k-rounding would hide them.
	row("All Native", "avg wait(sec)", func(s Table5Scenario) string { return fmt.Sprintf("%.0f", s.WaitAll.Mean) })
	row("", "median wait(sec)", func(s Table5Scenario) string { return fmt.Sprintf("%.0f", s.WaitAll.Median) })
	row("", "avg EF", func(s Table5Scenario) string { return fmt.Sprintf("%.2f", s.EFAll.Mean) })
	row("", "median EF", func(s Table5Scenario) string { return fmt.Sprintf("%.2f", s.EFAll.Median) })
	row("5% Largest", "avg wait(sec)", func(s Table5Scenario) string { return fmt.Sprintf("%.0f", s.WaitBig.Mean) })
	row("", "median wait(sec)", func(s Table5Scenario) string { return fmt.Sprintf("%.0f", s.WaitBig.Median) })
	row("", "avg EF", func(s Table5Scenario) string { return fmt.Sprintf("%.2f", s.EFBig.Mean) })
	row("", "median EF", func(s Table5Scenario) string { return fmt.Sprintf("%.2f", s.EFBig.Median) })
	return tw.Flush()
}
