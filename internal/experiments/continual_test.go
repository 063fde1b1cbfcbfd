package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"interstitial/internal/core"
	"interstitial/internal/job"
	"interstitial/internal/sched"
	"interstitial/internal/sim"
	"interstitial/internal/stats"
	"interstitial/internal/testbed"
	"interstitial/internal/workload"
)

// referenceContinual reruns a continual simulation of log on sys with
// ctrl, which keeps every interstitial record on its Jobs, as the lab's
// continual runs did before they kept only start instants. It returns the
// natives and those records.
func referenceContinual(l *Lab, sys testbed.System, log []*job.Job, ctrl *core.Controller) (natives, inter []*job.Job) {
	natives = job.CloneAll(log)
	ctrl.StopAt = sys.Workload.Duration()
	l.run(sys, natives, nil, ctrl.Attach)
	return natives, ctrl.Jobs
}

// cappedController is a continual controller for spec capped at capPct
// percent utilization (0: uncapped), as Lab.Continual builds it.
func cappedController(spec core.JobSpec, capPct int) *core.Controller {
	ctrl := core.NewController(spec)
	ctrl.UtilCap = float64(capPct) / 100
	return ctrl
}

// referenceSample is sampleShortTerm over records: the finish of the k-th
// job starting at or after t1, read from its record.
func referenceSample(jobs []*job.Job, t1 sim.Time, k int) (sim.Time, bool) {
	i := 0
	for i < len(jobs) && jobs[i].Start < t1 {
		i++
	}
	if i+k > len(jobs) {
		return 0, false
	}
	return jobs[i+k-1].Finish - t1, true
}

// TestContinualStartsMatchRecords holds a continual run's start list to
// the records a controller that keeps them produces for the same
// simulation: same starts, records that finish one runtime after they
// start, and equal Table 4 samples, table columns and Figure 4 series.
// The ablations' runScenario keeps starts the same way, so its rows must
// equal the rows of records-keeping runs, here with the guard off and
// with a cap under FCFS on a regenerated log.
func TestContinualStartsMatchRecords(t *testing.T) {
	l := NewLab(Options{Seed: 1, Scale: 0.05})
	for _, c := range []struct {
		name    string
		cpus    int
		sec1GHz float64
		capPct  int
	}{
		{"Blue Mountain", 8, 120, 0},
		{"Blue Pacific", 32, 960, 0},
		{"Blue Mountain", 32, 120, 95},
	} {
		b := l.Baseline(c.name)
		spec := core.JobSpec{CPUs: c.cpus, Runtime: b.sys.Seconds1GHz(c.sec1GHz)}
		run := l.Continual(c.name, spec, c.capPct)
		natives, ref := referenceContinual(l, b.sys, b.log, cappedController(spec, c.capPct))
		label := fmt.Sprintf("%s %d CPUs × %d s cap %d%%", c.name, spec.CPUs, spec.Runtime, c.capPct)

		if len(run.starts) != len(ref) || len(ref) < 100 {
			t.Fatalf("%s: %d starts, %d reference records", label, len(run.starts), len(ref))
		}
		for i, j := range ref {
			if run.starts[i] != j.Start {
				t.Fatalf("%s: start %d is %d, reference record %d started at %d", label, i, run.starts[i], j.ID, j.Start)
			}
			if j.State != job.Finished || j.Runtime != spec.Runtime || j.Finish != j.Start+j.Runtime {
				t.Fatalf("%s: reference record %d is %v over [%d, %d) with runtime %d", label, j.ID, j.State, j.Start, j.Finish, j.Runtime)
			}
		}

		horizon := b.sys.Workload.Duration()
		n := len(ref)
		for _, t1 := range []sim.Time{0, 1, ref[n/3].Start, ref[n/3].Start + 1, ref[n-1].Start, horizon / 2, horizon} {
			for _, k := range []int{1, 2, 10, n / 3, n - 1, n, n + 1} {
				got, gok := sampleShortTerm(run, t1, k)
				want, wok := referenceSample(ref, t1, k)
				if got != want || gok != wok {
					t.Fatalf("%s: sample(t1=%d, k=%d) = %d,%v, reference %d,%v", label, t1, k, got, gok, want, wok)
				}
			}
		}

		if got, want := l.continualColumn(c.name, label, run.natives, run.records(nil)), l.continualColumn(c.name, label, natives, ref); got != want {
			t.Fatalf("%s: column from starts\n %+v\nfrom records\n %+v", label, got, want)
		}
		cpus := b.sys.Workload.Machine.CPUs
		want := stats.HourlySeries(append(slices.Clone(natives), ref...), cpus, horizon, 3600)
		if got := run.hourlySeries(cpus, horizon); !slices.Equal(got, want) {
			t.Fatalf("%s: hourly series from starts differs from the records'", label)
		}
	}

	b := l.Baseline("Blue Mountain")
	spec := core.JobSpec{CPUs: 32, Runtime: b.sys.Seconds1GHz(960)}
	fcfs := b.sys
	fcfs.NewPolicy = func() sched.Policy { return sched.NewFCFS() }
	fcfs.Workload.TargetUtil = 0.65
	for _, c := range []struct {
		label string
		sys   testbed.System
		log   []*job.Job
		ctrl  func() *core.Controller
	}{
		{"guard off", b.sys, b.log, func() *core.Controller {
			ctrl := core.NewController(spec)
			ctrl.IgnorePlan = true
			return ctrl
		}},
		{"FCFS, cap 93%, regenerated log", fcfs, workload.MustGenerate(fcfs.Workload, 7), func() *core.Controller {
			return cappedController(spec, 93)
		}},
	} {
		got := runScenario(l, c.label, c.sys, c.log, c.ctrl())
		natives, ref := referenceContinual(l, c.sys, c.log, c.ctrl())
		if len(ref) < 100 {
			t.Fatalf("%s: only %d interstitial jobs", c.label, len(ref))
		}
		if want := ablationRowOf(c.label, c.sys, natives, ref); got != want {
			t.Fatalf("%s: row from starts\n %+v\nfrom records\n %+v", c.label, got, want)
		}
	}
}

// TestContinualKeepsNoRecords requires a continual run, the lab's memo or
// an ablation scenario, to keep no record per interstitial job: the
// simulation reuses each retired record, so the run allocates far fewer
// objects than it runs jobs.
func TestContinualKeepsNoRecords(t *testing.T) {
	l := NewLab(Options{Seed: 1, Scale: 0.05, Workers: 1})
	b := l.Baseline("Blue Mountain")
	spec := core.JobSpec{CPUs: 8, Runtime: b.sys.Seconds1GHz(120)}
	for _, c := range []struct {
		name string
		run  func() int // runs the simulation, returning its interstitial job count
	}{
		{"Lab.Continual", func() int { return len(l.Continual("Blue Mountain", spec, 0).starts) }},
		{"runScenario", func() int {
			return runScenario(l, "keeps no records", b.sys, b.log, core.NewController(spec)).InterstitialJobs
		}},
	} {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		jobs := c.run()
		runtime.ReadMemStats(&after)
		mallocs := after.Mallocs - before.Mallocs
		t.Logf("%s: %d interstitial jobs, %d mallocs", c.name, jobs, mallocs)
		if jobs < 50_000 {
			t.Fatalf("%s: only %d interstitial jobs: too few to tell a record per job from none", c.name, jobs)
		}
		if mallocs*20 >= uint64(jobs) {
			t.Fatalf("%s: %d mallocs for %d interstitial jobs; want under one per 20 jobs", c.name, mallocs, jobs)
		}
	}
}

// TestFigure3FollowsTable4Rows feeds Figure 3 a hand-built Table 4 at
// several scales. It must take the two 123-Pc 32-CPU rows' samples and
// size its theory lines by the project Table 4 ran, which stops growing
// at paper scale: above scale 1 it once selected no rows at all.
func TestFigure3FollowsTable4Rows(t *testing.T) {
	const utilNat = 0.75
	for _, scale := range []float64{0.05, 0.1, 1, 1.5} {
		l := NewLab(Options{Seed: 1, Scale: scale, Workers: 1})
		sys := l.System("Blue Mountain")
		memoFor(&l.mu, l.baselines, "Blue Mountain").get(l.pool, func() *baseline {
			return &baseline{sys: sys, utilNat: utilNat}
		})
		t4 := &Table4Result{Machines: []string{"Blue Mountain", "Blue Pacific"}}
		for i, row := range Table4Rows() {
			p := l.Options().scaledProject(coreSpec(row))
			t4.Rows = append(t4.Rows, Table4Row{PetaCycles: p.PetaCycles, KJobs: p.KJobs, CPUs: p.CPUsPerJob, Sec1GHz: p.Seconds1GHz()})
			t4.Cells = append(t4.Cells, []Table4Cell{{Samples: []float64{float64(i), float64(i) + 0.5}}, {}})
		}
		f3 := Figure3(l, t4)
		if !slices.Equal(f3.ShortJobs, []float64{4, 4.5}) || !slices.Equal(f3.LongJobs, []float64{5, 5.5}) {
			t.Errorf("scale %v: samples %v / %v, want rows 4 and 5", scale, f3.ShortJobs, f3.LongJobs)
		}
		p := 123 * min(scale, 1)
		mc := sys.Workload.Machine
		capacity := float64(mc.CPUs) * mc.ClockGHz * 1e9
		wantMin, wantUtil := p*1e15/capacity/3600, p*1e15/(capacity*(1-utilNat))/3600
		if f3.TheoryMinH != wantMin || f3.TheoryUtilH != wantUtil {
			t.Errorf("scale %v: theory lines %v / %v h, want %v / %v h", scale, f3.TheoryMinH, f3.TheoryUtilH, wantMin, wantUtil)
		}
	}
}
