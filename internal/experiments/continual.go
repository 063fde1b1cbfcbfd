package experiments

import (
	"fmt"
	"io"
	"slices"
	"text/tabwriter"

	"interstitial/internal/core"
	"interstitial/internal/job"
	"interstitial/internal/sim"
	"interstitial/internal/stats"
	"interstitial/internal/testbed"
	"interstitial/internal/workload"
)

// ContinualColumn summarizes one continual-interstitial scenario on a
// machine: the paper's Tables 6, 7, 8 column format.
type ContinualColumn struct {
	Label            string
	InterstitialJobs int
	NativeJobs       int
	OverallUtil      float64
	NativeUtil       float64
	MedianWaitAll    float64
	MedianWaitBig    float64
	MeanWaitAll      float64
	// NativeFinished counts natives completed inside the log horizon —
	// the paper's throughput-preservation check.
	NativeFinished int
}

// ContinualResult is a machine's continual-interstitial table.
type ContinualResult struct {
	Title   string
	Columns []ContinualColumn
}

// continualColumn builds a column from job records.
func (l *Lab) continualColumn(name, label string, natives, interstitial []*job.Job) ContinualColumn {
	b := l.Baseline(name)
	imp := stats.ImpactOf(natives, interstitial, b.sys.Workload.Machine.CPUs, b.sys.Workload.Duration())
	return ContinualColumn{
		Label:            label,
		InterstitialJobs: len(interstitial),
		NativeJobs:       len(natives),
		OverallUtil:      imp.OverallUtil,
		NativeUtil:       imp.NativeUtil,
		MedianWaitAll:    imp.WaitAll.Median,
		MedianWaitBig:    imp.WaitBig.Median,
		MeanWaitAll:      imp.WaitAll.Mean,
		NativeFinished:   imp.NativeFinished,
	}
}

// ContinualTable runs the machine's continual experiment with the two
// 32-CPU job lengths of the corresponding paper table (120 and 960
// sec@1GHz). Both continual simulations are warmed up concurrently before
// the columns are assembled in order.
func ContinualTable(l *Lab, name string) *ContinualResult {
	b := l.Baseline(name)
	shortSpec := core.JobSpec{CPUs: 32, Runtime: b.sys.Seconds1GHz(120)}
	longSpec := core.JobSpec{CPUs: 32, Runtime: b.sys.Seconds1GHz(960)}
	l.Precompute(ContinualKey(name, shortSpec, 0), ContinualKey(name, longSpec, 0))

	res := &ContinualResult{Title: fmt.Sprintf("Continual Interstitial Computing on %s", name)}
	res.Columns = append(res.Columns, l.continualColumn(name, "Native Jobs", b.ran, nil))
	for _, spec := range []core.JobSpec{shortSpec, longSpec} {
		run := l.Continual(name, spec, 0)
		label := fmt.Sprintf("32CPU × %ds", spec.Runtime)
		res.Columns = append(res.Columns, l.continualColumn(name, label, run.natives, run.records(nil)))
	}
	return res
}

// Table6 is continual interstitial computing on Blue Mountain.
func Table6(l *Lab) *ContinualResult { return ContinualTable(l, "Blue Mountain") }

// Table7 is continual interstitial computing on Blue Pacific.
func Table7(l *Lab) *ContinualResult { return ContinualTable(l, "Blue Pacific") }

// Table8Ross is continual interstitial computing on Ross.
func Table8Ross(l *Lab) *ContinualResult { return ContinualTable(l, "Ross") }

// Render writes the paper-style table.
func (r *ContinualResult) Render(w io.Writer) error {
	fmt.Fprintln(w, r.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "\t")
	for _, c := range r.Columns {
		fmt.Fprintf(tw, "%s\t", c.Label)
	}
	fmt.Fprintln(tw)
	row := func(label string, f func(ContinualColumn) string) {
		fmt.Fprintf(tw, "%s\t", label)
		for _, c := range r.Columns {
			fmt.Fprintf(tw, "%s\t", f(c))
		}
		fmt.Fprintln(tw)
	}
	row("Interstitial jobs", func(c ContinualColumn) string { return fmt.Sprintf("%d", c.InterstitialJobs) })
	row("Native jobs", func(c ContinualColumn) string { return fmt.Sprintf("%d", c.NativeJobs) })
	row("Native finished in log", func(c ContinualColumn) string { return fmt.Sprintf("%d", c.NativeFinished) })
	row("Overall Util", func(c ContinualColumn) string { return fmt.Sprintf("%.3f", c.OverallUtil) })
	row("Native Util", func(c ContinualColumn) string { return fmt.Sprintf("%.3f", c.NativeUtil) })
	row("Median wait all/5% largest", func(c ContinualColumn) string {
		return stats.FormatSeconds(c.MedianWaitAll) + " / " + stats.FormatSeconds(c.MedianWaitBig)
	})
	row("Mean wait (sec)", func(c ContinualColumn) string { return stats.FormatSeconds(c.MeanWaitAll) })
	return tw.Flush()
}

// Table8LimitedResult reproduces Table 8 (second): limited continual
// interstitial computing on Blue Mountain with utilization caps.
type Table8LimitedResult struct {
	ContinualResult
	Caps []int
}

// Table8Limited runs 32CPU x 120s@1GHz continual interstitial on Blue
// Mountain under submission caps of 90/95/98% utilization.
func Table8Limited(l *Lab) *Table8LimitedResult {
	name := "Blue Mountain"
	b := l.Baseline(name)
	spec := core.JobSpec{CPUs: 32, Runtime: b.sys.Seconds1GHz(120)}
	res := &Table8LimitedResult{Caps: []int{90, 95, 98}}
	res.Title = "Table 8b. Limited Continual Interstitial Computing on Blue Mountain (32CPU × 120s@1GHz)"
	l.Precompute(
		ContinualKey(name, spec, 0),
		ContinualKey(name, spec, 90),
		ContinualKey(name, spec, 95),
		ContinualKey(name, spec, 98),
	)
	// Uncapped reference first.
	run := l.Continual(name, spec, 0)
	res.Columns = append(res.Columns, l.continualColumn(name, "uncapped", run.natives, run.records(nil)))
	for _, cap := range res.Caps {
		run := l.Continual(name, spec, cap)
		res.Columns = append(res.Columns, l.continualColumn(name, fmt.Sprintf("util < %d%%", cap), run.natives, run.records(nil)))
	}
	return res
}

// Figure4Result reproduces Figure 4: hourly utilization series on Blue
// Mountain without and with continual interstitial computing.
type Figure4Result struct {
	Without []float64
	With    []float64
}

// Figure4 builds both series (one-hour buckets).
func Figure4(l *Lab) *Figure4Result {
	name := "Blue Mountain"
	b := l.Baseline(name)
	horizon := b.sys.Workload.Duration()
	n := b.sys.Workload.Machine.CPUs
	spec := core.JobSpec{CPUs: 32, Runtime: b.sys.Seconds1GHz(120)}
	run := l.Continual(name, spec, 0)
	return &Figure4Result{
		Without: stats.HourlySeries(b.ran, n, horizon, 3600),
		With:    run.hourlySeries(n, horizon),
	}
}

// hourlySeries is Figure 4's "with" series: the hourly utilization of the
// run's natives and interstitial records together, natives first.
func (r *continualRun) hourlySeries(n int, horizon sim.Time) []float64 {
	return stats.HourlySeries(r.records(slices.Clone(r.natives)), n, horizon, 3600)
}

// Render prints summary statistics and strip charts of both series.
func (r *Figure4Result) Render(w io.Writer) error {
	fmt.Fprintln(w, "Figure 4. Blue Mountain hourly utilization, without (top) and with (bottom) continual interstitial computing")
	for _, s := range []struct {
		label  string
		series []float64
	}{{"without", r.Without}, {"with", r.With}} {
		sum := stats.Summarize(s.series)
		fmt.Fprintf(w, "  %s: mean=%.3f median=%.3f std=%.3f min=%.2f max=%.2f (%d hours)\n",
			s.label, sum.Mean, sum.Median, sum.Std, sum.Min, sum.Max, sum.N)
	}
	fmt.Fprintln(w, "  without:")
	if err := Sparkline(w, r.Without, 168); err != nil {
		return err
	}
	fmt.Fprintln(w, "  with:")
	return Sparkline(w, r.With, 168)
}

// Figure4Outages demonstrates the dead zones in the paper's Figure 4:
// with periodic maintenance drains in the log, the interstitial band
// rides at ~100% "except for outages".
func Figure4Outages(l *Lab) *Figure4Result {
	o := l.Options()
	sys := testbed.BlueMountain().Scaled(o.Scale)
	// Two drains per log regardless of scale (full scale: every ~28 days,
	// like the dead zones around hours 1200-1500 in the paper's figure).
	sys.Workload = sys.Workload.WithOutages(sys.Workload.Days/3, 9)
	log := workload.MustGenerate(sys.Workload, o.Seed)
	horizon := sys.Workload.Duration()
	n := sys.Workload.Machine.CPUs

	// The with/without runs are independent simulations of the same log:
	// run both sides concurrently.
	res := &Figure4Result{}
	l.fanout(2, func(i int) {
		if i == 0 {
			natives := job.CloneAll(log)
			l.run(sys, natives, l.scenarioTracer("without", sys))
			res.Without = stats.HourlySeries(natives, n, horizon, 3600)
			return
		}
		ctrl := core.NewController(core.JobSpec{CPUs: 32, Runtime: sys.Seconds1GHz(120)})
		res.With = l.continualOn(sys, log, l.scenarioTracer("with", sys), ctrl).hourlySeries(n, horizon)
	})
	return res
}

// WaitHistogramResult reproduces Figures 5 and 6: the distribution of
// native wait times in log10-second decades for the three Blue Mountain
// scenarios.
type WaitHistogramResult struct {
	Title string
	// Bins[scenario][decade], normalized; decades [0,1),[1,2)..[5,6).
	Series map[string][]float64
	Order  []string
}

// waitHistogram builds one of the two figures; bigOnly selects Figure 6's
// 5%-largest slice.
func waitHistogram(l *Lab, bigOnly bool) *WaitHistogramResult {
	name := "Blue Mountain"
	b := l.Baseline(name)
	shortSpec := core.JobSpec{CPUs: 32, Runtime: b.sys.Seconds1GHz(120)}
	longSpec := core.JobSpec{CPUs: 32, Runtime: b.sys.Seconds1GHz(960)}
	l.Precompute(ContinualKey(name, shortSpec, 0), ContinualKey(name, longSpec, 0))
	scen := []struct {
		label   string
		natives []*job.Job
	}{
		{"no interstitial", b.ran},
		{fmt.Sprintf("32CPU×%ds", shortSpec.Runtime), l.Continual(name, shortSpec, 0).natives},
		{fmt.Sprintf("32CPU×%ds", longSpec.Runtime), l.Continual(name, longSpec, 0).natives},
	}
	res := &WaitHistogramResult{Series: map[string][]float64{}}
	if bigOnly {
		res.Title = "Figure 6. Wait times of 5% largest native jobs on Blue Mountain (CPU·sec)"
	} else {
		res.Title = "Figure 5. Wait times of native jobs on Blue Mountain"
	}
	for _, sc := range scen {
		jobs := sc.natives
		if bigOnly {
			jobs = stats.LargestByCPUSeconds(jobs, 0.05)
		}
		res.Series[sc.label] = stats.Log10Histogram(stats.Waits(jobs, job.Native), 6)
		res.Order = append(res.Order, sc.label)
	}
	return res
}

// Figure5 is the all-natives wait histogram.
func Figure5(l *Lab) *WaitHistogramResult { return waitHistogram(l, false) }

// Figure6 is the 5%-largest wait histogram.
func Figure6(l *Lab) *WaitHistogramResult { return waitHistogram(l, true) }

// Render prints the binned probabilities as bars.
func (r *WaitHistogramResult) Render(w io.Writer) error {
	fmt.Fprintln(w, r.Title)
	labels := []string{"[0,1)", "[1,2)", "[2,3)", "[3,4)", "[4,5)", "[5,6)"}
	fmt.Fprintln(w, "  P(wait) by log10(sec) decade:")
	return RenderBars(w, labels, r.Series, r.Order, 40)
}
