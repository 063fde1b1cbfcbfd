package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"interstitial/internal/core"
	"interstitial/internal/profile"
	"interstitial/internal/rng"
	"interstitial/internal/sim"
	"interstitial/internal/stats"
	"interstitial/internal/theory"
	"interstitial/internal/tracing"
)

// Table2Projects are the six project configurations of Table 2: three
// sizes, each at the two CPU/job extremes.
func Table2Projects() []core.ProjectSpec {
	return []core.ProjectSpec{
		{PetaCycles: 7.7, KJobs: 64000, CPUsPerJob: 1},
		{PetaCycles: 7.7, KJobs: 2000, CPUsPerJob: 32},
		{PetaCycles: 30.1, KJobs: 256000, CPUsPerJob: 1},
		{PetaCycles: 30.1, KJobs: 8000, CPUsPerJob: 32},
		{PetaCycles: 123, KJobs: 1024000, CPUsPerJob: 1},
		{PetaCycles: 123, KJobs: 32000, CPUsPerJob: 32},
	}
}

// Table2Cell is one machine x project entry: makespan avg +- std over the
// random project starts, in hours.
type Table2Cell struct {
	MeanH float64
	StdH  float64
	// TheoryH is the ideal-law prediction P/(nC(1-U)) for this machine.
	TheoryH float64
	// Samples holds the individual makespans (hours) for Figure 2 /
	// theory fitting.
	Samples []float64
}

// Table2Result reproduces Table 2: omniscient project makespans.
type Table2Result struct {
	Projects []core.ProjectSpec
	Machines []string
	// Cells[i][m] is project i on machine m.
	Cells [][]Table2Cell
}

// t2cell is the prepared, not-yet-packed state of one Table 2 cell.
type t2cell struct {
	name   string
	proj   core.ProjectSpec
	spec   core.JobSpec
	ideal  float64
	free   *profile.Profile // the tiled timeline every rep packs into; packing only reads it
	starts []sim.Time
	hours  []float64
	errs   []error
}

// Table2 packs each project into each machine's recorded free-capacity
// timeline at Reps random start times, with perfect knowledge of native
// starts and finishes (Section 4.1).
//
// Execution is fully parallel at the replication grain: all three
// baselines warm up concurrently, then every (project, machine, start)
// pack runs as one task on the lab's shared pool. Each cell's start times
// come from an rng derived from (Seed, cell index), and each pack writes
// its makespan into a pre-indexed slot, so the rendered table is identical
// at any worker count.
func Table2(l *Lab) (*Table2Result, error) {
	o := l.Options()
	res := &Table2Result{Machines: []string{"Ross", "Blue Mountain", "Blue Pacific"}}
	for _, p := range Table2Projects() {
		res.Projects = append(res.Projects, o.scaledProject(p))
	}
	l.Precompute(BaselineKey("Ross"), BaselineKey("Blue Mountain"), BaselineKey("Blue Pacific"))

	// Prepare every cell: spec, theory line, tiled free timeline, starts.
	// Preparation is itself fanned out per cell — tiling the free timeline
	// for the big projects is real work — which is sound because every
	// input is either memoized (the baselines, warmed by Precompute above)
	// or a pure function of the cell index: the starts rng is seeded from
	// (Seed, cell index), so the prepared cells are identical at any
	// worker count.
	nm := len(res.Machines)
	cells := make([]*t2cell, len(res.Projects)*nm)
	for range res.Projects {
		res.Cells = append(res.Cells, make([]Table2Cell, nm))
	}
	l.fanout(len(cells), func(t int) {
		i, m := t/nm, t%nm
		p := res.Projects[i]
		name := res.Machines[m]
		b := l.Baseline(name)
		horizon := b.sys.Workload.Duration()
		// Tile enough log copies that the biggest project fits from
		// any start inside the first period.
		spec := p.JobSpecFor(b.sys.Workload.Machine.ClockGHz)
		ideal := theory.Makespan(p.PetaCycles, b.sys.Workload.Machine.CPUs, b.sys.Workload.Machine.ClockGHz, b.utilNat)
		copies := core.TimelineCopies(horizon, 0, ideal)
		c := &t2cell{
			name:  name,
			proj:  p,
			spec:  spec,
			ideal: ideal,
			free:  core.MustFreeTimeline(b.ran, b.sys.Workload.Machine.CPUs, horizon, copies),
			starts: randomStarts(rng.New(o.Seed+100+int64(t)),
				o.Reps, horizon, 1.0),
		}
		c.hours = make([]float64, len(c.starts))
		c.errs = make([]error, len(c.starts))
		cells[t] = c
	})

	// Flatten to (cell, rep) tasks: replications are independent packs
	// into the cell's one timeline, which they share (packing only reads).
	reps := o.Reps
	l.fanout(len(cells)*reps, func(t int) {
		c, k := cells[t/reps], t%reps
		var tr *tracing.Tracer
		if col := l.Trace(); col != nil {
			tr = col.Tracer(
				fmt.Sprintf("table2/c%02d-%s-%dcpu/rep%02d", t/reps, c.name, c.proj.CPUsPerJob, k),
				c.name, 0)
		}
		pr, err := core.PackProjectTraced(c.free, c.spec, c.starts[k], c.proj.KJobs, tr)
		if err != nil {
			c.errs[k] = err
			return
		}
		c.hours[k] = pr.Makespan.HoursF()
	})

	for t, c := range cells {
		for _, err := range c.errs {
			if err != nil {
				return nil, fmt.Errorf("table2 %s %v: %w", c.name, c.proj, err)
			}
		}
		sum := stats.Summarize(c.hours)
		res.Cells[t/len(res.Machines)][t%len(res.Machines)] =
			Table2Cell{MeanH: sum.Mean, StdH: sum.Std, TheoryH: c.ideal / 3600, Samples: c.hours}
	}
	return res, nil
}

// Render writes the paper-style table.
func (r *Table2Result) Render(w io.Writer) error {
	fmt.Fprintln(w, "Table 2. Omniscient Interstitial Project Makespan (hours, avg ± std)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "PetaCycles\tkJobs\tCPU/Job\t")
	for _, m := range r.Machines {
		fmt.Fprintf(tw, "%s\t", m)
	}
	fmt.Fprintln(tw)
	for i, p := range r.Projects {
		fmt.Fprintf(tw, "%.1f\t%d\t%d\t", p.PetaCycles, p.KJobs/1000, p.CPUsPerJob)
		for m := range r.Machines {
			c := r.Cells[i][m]
			fmt.Fprintf(tw, "%.1f ± %.1f\t", c.MeanH, c.StdH)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// Table3Result reproduces Table 3: the 32-CPU vs 1-CPU makespan ratio
// (breakage), theory vs actual, per machine.
type Table3Result struct {
	Machines []string
	Theory   []float64
	Actual   []float64
}

// Table3 derives the breakage comparison from Table 2 data.
func Table3(l *Lab, t2 *Table2Result) *Table3Result {
	res := &Table3Result{Machines: t2.Machines}
	for m, name := range t2.Machines {
		b := l.Baseline(name)
		res.Theory = append(res.Theory, theory.Breakage(b.sys.Workload.Machine.CPUs, b.utilNat, 32))
		// Actual: mean over the three project sizes of ratio 32-CPU
		// makespan / 1-CPU makespan.
		var ratioSum float64
		var n int
		for i := 0; i+1 < len(t2.Projects); i += 2 {
			one := t2.Cells[i][m].MeanH
			thirtyTwo := t2.Cells[i+1][m].MeanH
			if one > 0 {
				ratioSum += thirtyTwo / one
				n++
			}
		}
		if n > 0 {
			res.Actual = append(res.Actual, ratioSum/float64(n))
		} else {
			res.Actual = append(res.Actual, 0)
		}
	}
	return res
}

// Render writes the table.
func (r *Table3Result) Render(w io.Writer) error {
	fmt.Fprintln(w, "Table 3. 1-CPU vs 32-CPU jobs: breakage factor")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "\t")
	for _, m := range r.Machines {
		fmt.Fprintf(tw, "%s\t", m)
	}
	fmt.Fprintln(tw)
	fmt.Fprint(tw, "Theory\t")
	for _, v := range r.Theory {
		fmt.Fprintf(tw, "%.3f\t", v)
	}
	fmt.Fprintln(tw)
	fmt.Fprint(tw, "Actual\t")
	for _, v := range r.Actual {
		fmt.Fprintf(tw, "%.3f\t", v)
	}
	fmt.Fprintln(tw)
	return tw.Flush()
}

// TheoryFitResult reproduces the Section 4.2 empirical fit
// Makespan = a + b * P/(nC(1-U)) over all Table 2 points.
type TheoryFitResult struct {
	A  float64 // paper: 5256 seconds
	B  float64 // paper: 1.16
	R2 float64
	N  int
}

// TheoryFit regresses measured omniscient makespans against the ideal law.
func TheoryFit(t2 *Table2Result) (*TheoryFitResult, error) {
	var xs, ys []float64
	for i := range t2.Projects {
		for m := range t2.Machines {
			c := t2.Cells[i][m]
			for _, h := range c.Samples {
				xs = append(xs, c.TheoryH*3600)
				ys = append(ys, h*3600)
			}
		}
	}
	a, b, r2, err := theory.LinearFit(xs, ys)
	if err != nil {
		return nil, err
	}
	return &TheoryFitResult{A: a, B: b, R2: r2, N: len(xs)}, nil
}

// Render writes the fitted formula.
func (r *TheoryFitResult) Render(w io.Writer) error {
	_, err := fmt.Fprintf(w, "Section 4.2 fit over %d omniscient runs:\n  Makespan(sec) = %.0f + %.2f × P/(nC(1−U))   (r² = %.3f)\n  paper:          5256 + 1.16 × P/(nC(1−U))\n", r.N, r.A, r.B, r.R2)
	return err
}

// Figure2Result reproduces Figure 2: actual vs theoretical makespan
// scatter, split by CPU/job.
type Figure2Result struct {
	// Points are (theoryHours, actualHours, cpusPerJob) triples.
	TheoryH []float64
	ActualH []float64
	CPUs    []int
}

// Figure2 extracts the scatter data from the Table 2 sweep.
func Figure2(t2 *Table2Result) *Figure2Result {
	res := &Figure2Result{}
	for i, p := range t2.Projects {
		for m := range t2.Machines {
			c := t2.Cells[i][m]
			for _, h := range c.Samples {
				res.TheoryH = append(res.TheoryH, c.TheoryH)
				res.ActualH = append(res.ActualH, h)
				res.CPUs = append(res.CPUs, p.CPUsPerJob)
			}
		}
	}
	return res
}

// Render prints the scatter as an aligned table plus an ASCII plot.
func (r *Figure2Result) Render(w io.Writer) error {
	fmt.Fprintln(w, "Figure 2. Actual vs theoretical makespan (hours); 1-CPU and 32-CPU points")
	plot := NewASCIIPlot(64, 20)
	for i := range r.TheoryH {
		mark := byte('o') // 1-CPU
		if r.CPUs[i] == 32 {
			mark = 'x'
		}
		plot.Add(r.TheoryH[i], r.ActualH[i], mark)
	}
	plot.Diagonal('.')
	if err := plot.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "  o = 1-CPU jobs, x = 32-CPU jobs, . = y=x")
	return err
}
