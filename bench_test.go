// Benchmarks regenerating every table and figure of the paper, one bench
// per experiment, at a reduced scale so the whole suite runs in minutes.
// Run the full paper-scale harness with:
//
//	go run ./cmd/experiments
//
// Benchmark output reports ns/op for one full regeneration of each
// artifact plus headline custom metrics (utilization gained, makespans) so
// regressions in *results*, not just speed, are visible.
package interstitial_test

import (
	"io"
	"runtime"
	"testing"

	"interstitial"
	"interstitial/internal/experiments"
	"interstitial/internal/sim"
)

// benchOpts shrinks the logs ~20x; each bench iteration still exercises
// the full pipeline (calibration, simulation, packing, statistics).
func benchOpts() experiments.Options {
	return experiments.Options{Seed: 1, Scale: 0.05, Reps: 5, Samples: 100}
}

func renderTo(b *testing.B, r experiments.Renderer) {
	b.Helper()
	if err := r.Render(io.Discard); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchOpts())
		renderTo(b, experiments.Table1(lab))
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchOpts())
		t2, err := experiments.Table2(lab)
		if err != nil {
			b.Fatal(err)
		}
		renderTo(b, t2)
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchOpts())
		t2, err := experiments.Table2(lab)
		if err != nil {
			b.Fatal(err)
		}
		renderTo(b, experiments.Table3(lab, t2))
	}
}

func BenchmarkTheoryFit(b *testing.B) {
	lab := experiments.NewLab(benchOpts())
	t2, err := experiments.Table2(lab)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fit, err := experiments.TheoryFit(t2)
		if err != nil {
			b.Fatal(err)
		}
		renderTo(b, fit)
	}
}

func BenchmarkFigure2(b *testing.B) {
	lab := experiments.NewLab(benchOpts())
	t2, err := experiments.Table2(lab)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		renderTo(b, experiments.Figure2(t2))
	}
}

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchOpts())
		renderTo(b, experiments.Table4(lab))
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchOpts())
		renderTo(b, experiments.Figure3(lab, experiments.Table4(lab)))
	}
}

func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchOpts())
		renderTo(b, experiments.Table5(lab))
	}
}

func BenchmarkTable6(b *testing.B) {
	var gained float64
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchOpts())
		r := experiments.Table6(lab)
		renderTo(b, r)
		gained = r.Columns[1].OverallUtil - r.Columns[0].OverallUtil
	}
	b.ReportMetric(gained, "util-gained")
}

func BenchmarkTable7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchOpts())
		renderTo(b, experiments.Table7(lab))
	}
}

func BenchmarkTable8Ross(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchOpts())
		renderTo(b, experiments.Table8Ross(lab))
	}
}

func BenchmarkTable8Limited(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchOpts())
		renderTo(b, experiments.Table8Limited(lab))
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchOpts())
		renderTo(b, experiments.Figure4(lab))
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchOpts())
		renderTo(b, experiments.Figure5(lab))
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchOpts())
		renderTo(b, experiments.Figure6(lab))
	}
}

// --- component benchmarks: the pieces a downstream user pays for ---

func BenchmarkGenerateLog(b *testing.B) {
	m := interstitial.BlueMountain()
	m.Workload.Days /= 8
	m.Workload.Jobs /= 8
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = interstitial.CalibratedLog(m, int64(i+1))
	}
}

func BenchmarkNativeSimulation(b *testing.B) {
	m := interstitial.BlueMountain()
	m.Workload.Days /= 8
	m.Workload.Jobs /= 8
	log := interstitial.CalibratedLog(m, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		interstitial.RunNative(m, log)
	}
	b.ReportMetric(float64(len(log))/1000, "kjobs/run")
}

func BenchmarkContinualSimulation(b *testing.B) {
	m := interstitial.BlueMountain()
	m.Workload.Days /= 8
	m.Workload.Jobs /= 8
	log := interstitial.CalibratedLog(m, 1)
	spec := interstitial.JobSpec{CPUs: 32, Runtime: m.Seconds1GHz(120)}
	b.ResetTimer()
	var jobs int
	for i := 0; i < b.N; i++ {
		res, err := interstitial.RunContinual(m, log, spec, 0)
		if err != nil {
			b.Fatal(err)
		}
		jobs = len(res.Jobs)
	}
	b.ReportMetric(float64(jobs)/1000, "kjobs/run")
}

func BenchmarkOmniscientPacking(b *testing.B) {
	m := interstitial.BlueMountain()
	m.Workload.Days /= 8
	m.Workload.Jobs /= 8
	log := interstitial.CalibratedLog(m, 1)
	interstitial.RunNative(m, log)
	p := interstitial.ProjectSpec{PetaCycles: 2, KJobs: 4000, CPUsPerJob: 32}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := interstitial.PlanOmniscient(m, log, p, 3600); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimKernel measures the raw event loop: a self-rescheduling
// event chain with no scheduler work, so ns/op and allocs/op isolate the
// heap + free-list cost per event. events/sec is the headline metric.
func BenchmarkSimKernel(b *testing.B) {
	const eventsPerRun = 100_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := sim.New()
		var tick func(*sim.Engine)
		n := 0
		tick = func(e *sim.Engine) {
			n++
			if n < eventsPerRun {
				e.ScheduleAfter(1, sim.EventFunc(tick))
			}
		}
		e.Schedule(0, sim.EventFunc(tick))
		e.Run()
		if e.Executed() != eventsPerRun {
			b.Fatalf("executed %d events, want %d", e.Executed(), eventsPerRun)
		}
	}
	b.ReportMetric(float64(b.N)*eventsPerRun/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkSimKernelChurn stresses the heap with many in-flight events and
// cancellations — the shape the engine's timers and passes produce.
func BenchmarkSimKernelChurn(b *testing.B) {
	const live = 4096
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := sim.New()
		hs := make([]sim.Handle, live)
		for j := 0; j < live; j++ {
			hs[j] = e.Schedule(sim.Time((j*2654435761)%100000), sim.EventFunc(func(*sim.Engine) {}))
		}
		for j := 0; j < live; j += 2 {
			hs[j].Cancel()
		}
		e.Run()
	}
}

// BenchmarkScheduleBatch measures bulk same-instant scheduling plus the
// chained drain: bursts of chained events against singleton spacers, the
// shape the engine's finish bursts produce. Steady state must be 0
// allocs/op — every item is recycled through the free list.
func BenchmarkScheduleBatch(b *testing.B) {
	const bursts, width = 1000, 32
	none := sim.EventFunc(func(*sim.Engine) {})
	e := sim.New()
	run := func() {
		for k := 0; k < bursts; k++ {
			at := e.Now() + 2
			bt := e.NewBatch(at, 0)
			for w := 0; w < width; w++ {
				bt.Add(none)
			}
			e.Schedule(e.Now()+1, none) // singleton spacer between bursts
			e.RunUntil(at)
		}
	}
	run() // warm the free list and heap before counting allocations
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(b.N)*bursts*(width+1)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkIntraCellShards measures the sharded single-scenario path: one
// continual experiment split across 8 per-machine shards on the lab pool.
func BenchmarkIntraCellShards(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchOpts())
		renderTo(b, experiments.IntraCellShards(lab, 8))
	}
}

// BenchmarkLabParallel exercises the warmup path: Precompute fans a
// table's whole working set (three baselines plus four continual runs)
// across the worker pool before anything is rendered.
func BenchmarkLabParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchOpts())
		spec := interstitial.JobSpec{CPUs: 32, Runtime: lab.System("Blue Mountain").Seconds1GHz(120)}
		lab.Precompute(
			experiments.BaselineKey("Blue Mountain"),
			experiments.BaselineKey("Blue Pacific"),
			experiments.BaselineKey("Ross"),
			experiments.ContinualKey("Blue Mountain", spec, 0),
			experiments.ContinualKey("Blue Mountain", spec, 90),
			experiments.ContinualKey("Blue Mountain", spec, 95),
			experiments.ContinualKey("Blue Mountain", spec, 98),
		)
		renderTo(b, experiments.Table8Limited(lab))
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
}

// --- ablation benchmarks (beyond-the-paper studies) ---

func BenchmarkAblationEstimates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchOpts())
		renderTo(b, experiments.AblationEstimates(lab))
	}
}

func BenchmarkAblationBackfill(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchOpts())
		renderTo(b, experiments.AblationBackfill(lab))
	}
}

func BenchmarkAblationBurstiness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchOpts())
		renderTo(b, experiments.AblationBurstiness(lab))
	}
}

func BenchmarkAblationJobLength(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchOpts())
		renderTo(b, experiments.AblationJobLength(lab))
	}
}

func BenchmarkAblationCapSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchOpts())
		renderTo(b, experiments.AblationCapSweep(lab))
	}
}

func BenchmarkAblationPreemption(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchOpts())
		renderTo(b, experiments.AblationPreemption(lab))
	}
}

func BenchmarkAblationPrediction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchOpts())
		renderTo(b, experiments.AblationPrediction(lab))
	}
}

func BenchmarkValidateSampling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchOpts())
		renderTo(b, experiments.ValidateSampling(lab))
	}
}

func BenchmarkSeedRobustness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchOpts())
		renderTo(b, experiments.SeedRobustness(lab, 3))
	}
}

func BenchmarkCorrelations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchOpts())
		renderTo(b, experiments.Correlations(lab))
	}
}

func BenchmarkFigure4Outages(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchOpts())
		renderTo(b, experiments.Figure4Outages(lab))
	}
}

func BenchmarkAblationJobWidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchOpts())
		renderTo(b, experiments.AblationJobWidth(lab))
	}
}

func BenchmarkUtilizationSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchOpts())
		renderTo(b, experiments.UtilizationSweep(lab))
	}
}

func BenchmarkAblationGuard(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchOpts())
		renderTo(b, experiments.AblationGuard(lab))
	}
}
