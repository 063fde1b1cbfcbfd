package experiments

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"interstitial/internal/core"
	"interstitial/internal/rng"
	"interstitial/internal/sim"
	"interstitial/internal/stats"
)

// Table4Row is one project configuration of Table 4.
type Table4Row struct {
	PetaCycles float64
	KJobs      int
	CPUs       int
	Sec1GHz    float64
}

// Table4Rows returns the paper's eight configurations.
func Table4Rows() []Table4Row {
	return []Table4Row{
		{7.7, 2000, 32, 120},
		{7.7, 250, 32, 960},
		{7.7, 8000, 8, 120},
		{7.7, 1000, 8, 960},
		{123, 32000, 32, 120},
		{123, 4000, 32, 960},
		{123, 128000, 8, 120},
		{123, 16000, 8, 960},
	}
}

// Table4Cell is a machine column entry: avg ± std makespan in hours, or NA
// when the project cannot complete inside the log ("makespan >= log
// time").
type Table4Cell struct {
	MeanH   float64
	StdH    float64
	NA      bool
	Samples []float64
}

// Table4Result reproduces Table 4: short-term fallible project makespans
// sampled from continual runs.
type Table4Result struct {
	Rows     []Table4Row
	Machines []string
	Cells    [][]Table4Cell
}

// sampleShortTerm implements the paper's sampling shortcut: rather than
// simulating each short project separately, pick a random start t1 in the
// continual log and report when the K-th interstitial job starting at or
// after t1 finishes. Identical runtimes make finish order equal start
// order, so this is a binary search over the run's sorted starts: the
// K-th such job finishes one runtime after it starts.
func sampleShortTerm(run *continualRun, t1 sim.Time, k int) (sim.Time, bool) {
	starts := run.starts
	i := sort.Search(len(starts), func(x int) bool { return starts[x] >= t1 })
	if i+k > len(starts) {
		return 0, false
	}
	return starts[i+k-1] + run.spec.Runtime - t1, true
}

// Table4 runs the sweep on Blue Mountain and Blue Pacific.
//
// The continual runs behind every cell are warmed up in parallel first
// (distinct (machine, spec) keys compute concurrently under the Lab's
// singleflight), then the cells sample concurrently. Each cell's window
// starts come from an rng derived from (Seed, cell index) so the table's
// bytes are independent of both worker count and scheduling order.
func Table4(l *Lab) *Table4Result {
	o := l.Options()
	res := &Table4Result{Machines: []string{"Blue Mountain", "Blue Pacific"}}
	var projects []core.ProjectSpec
	var keys []Key
	for _, row := range Table4Rows() {
		p := o.scaledProject(core.ProjectSpec{PetaCycles: row.PetaCycles, KJobs: row.KJobs, CPUsPerJob: row.CPUs})
		projects = append(projects, p)
		res.Rows = append(res.Rows, Table4Row{PetaCycles: p.PetaCycles, KJobs: p.KJobs, CPUs: p.CPUsPerJob, Sec1GHz: p.Seconds1GHz()})
		res.Cells = append(res.Cells, make([]Table4Cell, len(res.Machines)))
	}
	l.Precompute(BaselineKey("Blue Mountain"), BaselineKey("Blue Pacific"))
	for _, name := range res.Machines {
		clock := l.Baseline(name).sys.Workload.Machine.ClockGHz
		for _, p := range projects {
			keys = append(keys, ContinualKey(name, p.JobSpecFor(clock), 0))
		}
	}
	l.Precompute(keys...)

	nm := len(res.Machines)
	l.fanout(len(projects)*nm, func(t int) {
		i, m := t/nm, t%nm
		p, name := projects[i], res.Machines[m]
		b := l.Baseline(name)
		spec := p.JobSpecFor(b.sys.Workload.Machine.ClockGHz)
		run := l.Continual(name, spec, 0)
		horizon := b.sys.Workload.Duration()
		r := rng.New(o.Seed + 200 + int64(t))
		var hours []float64
		na := 0
		for s := 0; s < o.Samples; s++ {
			t1 := sim.Time(r.Float64() * float64(horizon))
			ms, ok := sampleShortTerm(run, t1, p.KJobs)
			if !ok {
				na++
				continue
			}
			hours = append(hours, ms.HoursF())
		}
		// The paper marks a configuration n/a when the project
		// typically cannot finish inside the log.
		if na > o.Samples/2 || len(hours) == 0 {
			res.Cells[i][m] = Table4Cell{NA: true}
			return
		}
		sum := stats.Summarize(hours)
		res.Cells[i][m] = Table4Cell{MeanH: sum.Mean, StdH: sum.Std, Samples: hours}
	})
	return res
}

// Render writes the paper-style table.
func (r *Table4Result) Render(w io.Writer) error {
	fmt.Fprintln(w, "Table 4. Avg. Makespan (hrs) for Differently Sized Interstitial Projects (fallible)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "PetaCycle\tkJobs\tCPU\tsec@1GHz\t")
	for _, m := range r.Machines {
		fmt.Fprintf(tw, "%s\t", m)
	}
	fmt.Fprintln(tw)
	for i, row := range r.Rows {
		fmt.Fprintf(tw, "%.1f\t%.2g\t%d\t%.0f\t", row.PetaCycles, float64(row.KJobs)/1000, row.CPUs, row.Sec1GHz)
		for m := range r.Machines {
			c := r.Cells[i][m]
			if c.NA {
				fmt.Fprint(tw, "n/a*\t")
			} else {
				fmt.Fprintf(tw, "%.1f ± %.1f\t", c.MeanH, c.StdH)
			}
		}
		fmt.Fprintln(tw)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "  * makespan ≥ log time")
	return err
}

// Figure3Result reproduces Figure 3: the CDF of short-term project
// makespans on Blue Mountain for the two 123-Pc 32-CPU configurations,
// with the two theory reference lines.
type Figure3Result struct {
	// ShortJobs is the 32k x 458s config; LongJobs is 4k x 3664s.
	ShortJobs, LongJobs []float64 // makespans, hours
	// TheoryMinH is P/(nC): the whole machine free.
	TheoryMinH float64
	// TheoryUtilH is P/(nC(1-<U>)).
	TheoryUtilH float64
}

// Figure 3's two configurations: their indexes in Table4Rows.
const (
	figure3Short = 4 // 123 Pc, 32k × 32 CPUs × 120 s@1GHz
	figure3Long  = 5 // 123 Pc, 4k × 32 CPUs × 960 s@1GHz
)

// Figure3 extracts the CDFs from the Table 4 sampling on Blue Mountain.
// The theory lines size the project as Table 4 ran it, so they follow
// the lab's scale, which never grows a project above paper size.
func Figure3(l *Lab, t4 *Table4Result) *Figure3Result {
	b := l.Baseline("Blue Mountain")
	mc := b.sys.Workload.Machine
	res := &Figure3Result{
		ShortJobs: t4.Cells[figure3Short][0].Samples, // Blue Mountain column
		LongJobs:  t4.Cells[figure3Long][0].Samples,
	}
	p := t4.Rows[figure3Short].PetaCycles
	capacity := float64(mc.CPUs) * mc.ClockGHz * 1e9
	res.TheoryMinH = p * 1e15 / capacity / 3600
	res.TheoryUtilH = p * 1e15 / (capacity * (1 - b.utilNat)) / 3600
	return res
}

// Render prints both CDFs at decile resolution plus the reference lines.
func (r *Figure3Result) Render(w io.Writer) error {
	fmt.Fprintln(w, "Figure 3. CDF of makespan on Blue Mountain, 32-CPU interstitial jobs (123 Pc)")
	fmt.Fprintf(w, "  theory floor (empty machine): %.0f h;  1/(1-U) line: %.0f h\n", r.TheoryMinH, r.TheoryUtilH)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "quantile\t32k × 458s (h)\t4k × 3664s (h)")
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99} {
		fmt.Fprintf(tw, "%.2f\t%.1f\t%.1f\n", q, stats.Quantile(r.ShortJobs, q), stats.Quantile(r.LongJobs, q))
	}
	return tw.Flush()
}

// tailRatio is a convenience used in tests: P90/P50 of a sample.
func tailRatio(xs []float64) float64 {
	med := stats.Quantile(xs, 0.5)
	if med == 0 {
		return 0
	}
	return stats.Quantile(xs, 0.9) / med
}
