package experiments

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"interstitial/internal/core"
	"interstitial/internal/job"
	"interstitial/internal/testbed"
)

// testLab builds a small-scale lab shared by this file's tests (each test
// gets its own to stay independent; the scale keeps each under a second
// or two).
func testLab() *Lab {
	return NewLab(Options{Seed: 1, Scale: 0.08, Reps: 4, Samples: 60})
}

func renderOK(t *testing.T, r Renderer) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
	return buf.String()
}

func TestOptionsNormalized(t *testing.T) {
	o := Options{}.normalized()
	if o.Scale != 1 || o.Seed != 1 || o.Reps != 20 || o.Samples != 500 {
		t.Fatalf("defaults = %+v", o)
	}
	// Scales above 1 grow the logs for streaming-scale runs; only
	// nonpositive values fall back to 1.
	o = Options{Scale: 2.5}.normalized()
	if o.Scale != 2.5 {
		t.Fatalf("overscale rejected: %v", o.Scale)
	}
	o = Options{Scale: -1}.normalized()
	if o.Scale != 1 {
		t.Fatalf("negative scale not defaulted: %v", o.Scale)
	}
}

func TestScaledGrowsAboveOne(t *testing.T) {
	o := Options{Scale: 2}.normalized()
	base := o
	base.Scale = 1
	for _, name := range []string{"Ross", "Blue Mountain", "Blue Pacific"} {
		l1 := NewLab(base)
		l2 := NewLab(o)
		s1, s2 := l1.System(name), l2.System(name)
		if s2.Workload.Days != s1.Workload.Days*2 || s2.Workload.Jobs != s1.Workload.Jobs*2 {
			t.Fatalf("%s at scale 2: days %v jobs %d, want %v / %d",
				name, s2.Workload.Days, s2.Workload.Jobs, s1.Workload.Days*2, s1.Workload.Jobs*2)
		}
		// Growing must not clamp the long-job tail.
		if s2.Workload.LongJobMaxHours != s1.Workload.LongJobMaxHours {
			t.Fatalf("%s at scale 2 clamped LongJobMaxHours", name)
		}
	}
	// Project specs never grow above paper size.
	p := Table2Projects()[0]
	if got := o.scaledProject(p); got != p {
		t.Fatalf("project grew above paper size: %+v", got)
	}
}

// TestScaledSystemMatchesTestbed: one-shot planners outside a Lab and
// the Lab itself shape a system with the one rule, testbed.System.Scaled;
// a nonpositive scale means paper scale, as in Options.
func TestScaledSystemMatchesTestbed(t *testing.T) {
	for _, scale := range []float64{0.02, 0.25, 1, 4, 0} {
		for _, s := range testbed.All() {
			want := s.Scaled(Options{Scale: scale}.normalized().Scale)
			got, err := ScaledSystem(s.Name, scale)
			if err != nil {
				t.Fatal(err)
			}
			lab := NewLab(Options{Scale: scale, Workers: 1}).System(s.Name)
			if !reflect.DeepEqual(got.Workload, want.Workload) || !reflect.DeepEqual(lab.Workload, want.Workload) {
				t.Fatalf("%s at %v: ScaledSystem %+v, Lab %+v, want %+v", s.Name, scale, got.Workload, lab.Workload, want.Workload)
			}
		}
	}
	if _, err := ScaledSystem("Nowhere", 1); err == nil {
		t.Fatal("unknown system accepted")
	}
}

func TestScaledProjectPreservesJobShape(t *testing.T) {
	o := Options{Scale: 0.1}.normalized()
	p := o.scaledProject(Table2Projects()[0]) // 7.7 Pc, 64k jobs, 1 CPU
	if p.KJobs != 6400 {
		t.Fatalf("scaled jobs = %d", p.KJobs)
	}
	// The per-job work must be unchanged: ~120 s@1GHz.
	if s := p.Seconds1GHz(); math.Abs(s-120.3) > 1 {
		t.Fatalf("scaled per-job work = %.1f s@1GHz, want ~120", s)
	}
}

func TestLabMemoizesBaselines(t *testing.T) {
	l := testLab()
	a := l.Baseline("Blue Mountain")
	b := l.Baseline("Blue Mountain")
	if a != b {
		t.Fatal("baseline not memoized")
	}
	if a.utilNat <= 0.5 {
		t.Fatalf("baseline utilization %v", a.utilNat)
	}
}

func TestLabUnknownSystemPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown system accepted")
		}
	}()
	testLab().System("Red Storm")
}

func TestTable1Shape(t *testing.T) {
	l := testLab()
	r := Table1(l)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		// At the tiny test scale the ramp-in/ramp-out fraction of the log
		// is large (especially under Ross's conservative backfill), so
		// the calibration target is only loosely reachable; full-scale
		// accuracy is asserted in internal/testbed.
		if math.Abs(row.AchievedUtil-row.TargetUtil) > 0.18 {
			t.Errorf("%s achieved %.3f vs target %.3f", row.Name, row.AchievedUtil, row.TargetUtil)
		}
	}
	out := renderOK(t, r)
	if !strings.Contains(out, "Blue Mountain") || !strings.Contains(out, "PBS") {
		t.Fatal("render missing expected content")
	}
}

func TestTable2ShapeAndOrdering(t *testing.T) {
	l := testLab()
	r, err := Table2(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 6 || len(r.Cells[0]) != 3 {
		t.Fatalf("grid = %dx%d", len(r.Cells), len(r.Cells[0]))
	}
	// Makespans grow with project size on every machine; at test scale
	// the small/mid pair is noisy, so assert the 16x size gap between the
	// smallest and largest 1-CPU projects shows up clearly.
	for m := range r.Machines {
		small, big := r.Cells[0][m].MeanH, r.Cells[4][m].MeanH
		if !(big > 2*small) {
			t.Errorf("machine %s: 123 Pc (%.1fh) not clearly slower than 7.7 Pc (%.1fh)", r.Machines[m], big, small)
		}
	}
	// Blue Pacific (m=2) is slower than Ross (m=0) at the largest size —
	// the spare-capacity ordering.
	if !(r.Cells[4][2].MeanH > r.Cells[4][0].MeanH) {
		t.Error("Blue Pacific not slower than Ross at 123 Pc")
	}
	renderOK(t, r)
}

func TestTable3AndTheoryFitAndFigure2(t *testing.T) {
	l := testLab()
	t2, err := Table2(l)
	if err != nil {
		t.Fatal(err)
	}
	t3 := Table3(l, t2)
	if len(t3.Theory) != 3 || len(t3.Actual) != 3 {
		t.Fatal("table3 incomplete")
	}
	for _, v := range t3.Theory {
		if v < 1 {
			t.Fatalf("theory breakage %v < 1", v)
		}
	}
	renderOK(t, t3)

	fit, err := TheoryFit(t2)
	if err != nil {
		t.Fatal(err)
	}
	if fit.B < 0.5 || fit.B > 3 {
		t.Fatalf("fit slope %.2f wildly off the paper's 1.16", fit.B)
	}
	if fit.R2 < 0.5 {
		t.Fatalf("fit r2 = %.2f; the linear law should explain most variance", fit.R2)
	}
	renderOK(t, fit)

	f2 := Figure2(t2)
	if len(f2.TheoryH) != len(f2.ActualH) || len(f2.TheoryH) == 0 {
		t.Fatal("figure2 empty or ragged")
	}
	renderOK(t, f2)
}

func TestTable4AndFigure3(t *testing.T) {
	l := testLab()
	r := Table4(l)
	if len(r.Rows) != 8 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Blue Mountain 123-Pc projects must be slower than 7.7-Pc ones.
	var smallH, bigH float64
	for i, row := range r.Rows {
		c := r.Cells[i][0]
		if c.NA {
			continue
		}
		if row.PetaCycles < 1 {
			smallH = c.MeanH
		} else if bigH == 0 {
			bigH = c.MeanH
		}
	}
	if smallH <= 0 || bigH <= 0 || bigH < 3*smallH {
		t.Fatalf("project size ordering broken: small %.1f big %.1f", smallH, bigH)
	}
	out := renderOK(t, r)
	if !strings.Contains(out, "n/a") {
		// At small scale BP may or may not hit n/a; only check the
		// legend renders.
		t.Log("no n/a cells at this scale (acceptable)")
	}

	f3 := Figure3(l, r)
	if len(f3.ShortJobs) == 0 || len(f3.LongJobs) == 0 {
		t.Fatal("figure3 lost its samples")
	}
	if f3.TheoryMinH <= 0 || f3.TheoryUtilH <= f3.TheoryMinH {
		t.Fatalf("theory lines wrong: %v %v", f3.TheoryMinH, f3.TheoryUtilH)
	}
	// Long right tail: p90 well above median.
	if tailRatio(f3.ShortJobs) < 1.05 {
		t.Fatalf("makespan CDF has no tail: p90/p50 = %.2f", tailRatio(f3.ShortJobs))
	}
	renderOK(t, f3)
}

func TestTable5Shape(t *testing.T) {
	l := testLab()
	r := Table5(l)
	if len(r.Scenarios) != 3 {
		t.Fatalf("scenarios = %d", len(r.Scenarios))
	}
	if r.Scenarios[0].InterstitialJobs != 0 {
		t.Fatal("baseline scenario ran interstitial jobs")
	}
	for _, s := range r.Scenarios[1:] {
		if s.InterstitialJobs == 0 {
			t.Fatalf("%s ran no interstitial jobs", s.Label)
		}
		// Interference lengthens native waits on net, but fair-share
		// reprioritization cascades are chaotic (paper §4.3.2.1): a
		// delayed job lets another jump ahead, so small *improvements*
		// in the all-jobs mean are possible at test scale. Only flag a
		// clearly wrong (>10%) speedup.
		if s.WaitAll.Mean < r.Scenarios[0].WaitAll.Mean*0.90 {
			t.Errorf("%s shortened native waits: %.0f vs %.0f", s.Label, s.WaitAll.Mean, r.Scenarios[0].WaitAll.Mean)
		}
	}
	renderOK(t, r)
}

func TestContinualTablesShape(t *testing.T) {
	l := testLab()
	for _, tc := range []struct {
		name string
		res  *ContinualResult
	}{
		{"Blue Mountain", Table6(l)},
		{"Blue Pacific", Table7(l)},
		{"Ross", Table8Ross(l)},
	} {
		cols := tc.res.Columns
		if len(cols) != 3 {
			t.Fatalf("%s: columns = %d", tc.name, len(cols))
		}
		base, short, long := cols[0], cols[1], cols[2]
		if base.InterstitialJobs != 0 || short.InterstitialJobs == 0 || long.InterstitialJobs == 0 {
			t.Fatalf("%s: interstitial job counts wrong", tc.name)
		}
		if short.InterstitialJobs <= long.InterstitialJobs {
			t.Errorf("%s: short jobs (%d) should outnumber long (%d)", tc.name, short.InterstitialJobs, long.InterstitialJobs)
		}
		if short.OverallUtil <= base.OverallUtil+0.05 {
			t.Errorf("%s: utilization barely moved %.3f -> %.3f", tc.name, base.OverallUtil, short.OverallUtil)
		}
		if math.Abs(short.NativeUtil-base.NativeUtil) > 0.06 {
			t.Errorf("%s: native util broke: %.3f -> %.3f", tc.name, base.NativeUtil, short.NativeUtil)
		}
		renderOK(t, tc.res)
	}
}

func TestTable8LimitedMonotonic(t *testing.T) {
	l := testLab()
	r := Table8Limited(l)
	if len(r.Columns) != 4 {
		t.Fatalf("columns = %d", len(r.Columns))
	}
	// uncapped >= 98% >= 95% >= 90% in interstitial throughput.
	un, caps := r.Columns[0], r.Columns[1:]
	prev := caps[0].InterstitialJobs
	for _, c := range caps[1:] {
		if c.InterstitialJobs < prev {
			t.Fatalf("cap sweep not monotone: %d then %d", prev, c.InterstitialJobs)
		}
		prev = c.InterstitialJobs
	}
	if un.InterstitialJobs < prev {
		t.Fatal("uncapped below the 98% cap")
	}
	renderOK(t, r)
}

func TestFigures456(t *testing.T) {
	l := testLab()
	f4 := Figure4(l)
	if len(f4.Without) != len(f4.With) || len(f4.With) == 0 {
		t.Fatal("figure4 series ragged")
	}
	var meanW, meanWo float64
	for i := range f4.With {
		meanW += f4.With[i]
		meanWo += f4.Without[i]
	}
	if meanW <= meanWo {
		t.Fatal("interstitial did not raise the utilization series")
	}
	renderOK(t, f4)

	f5 := Figure5(l)
	f6 := Figure6(l)
	for _, f := range []*WaitHistogramResult{f5, f6} {
		if len(f.Order) != 3 {
			t.Fatalf("scenarios = %d", len(f.Order))
		}
		for name, bins := range f.Series {
			sum := 0.0
			for _, v := range bins {
				sum += v
			}
			if len(bins) != 6 || math.Abs(sum-1) > 1e-9 {
				t.Fatalf("%s: bins=%d sum=%v", name, len(bins), sum)
			}
		}
		renderOK(t, f)
	}
	// The signature shift: the no-wait mass shrinks under interstitial
	// load.
	if f5.Series[f5.Order[1]][0] >= f5.Series[f5.Order[0]][0] {
		t.Error("no-wait decade did not shrink under interstitial load")
	}
}

func TestAblations(t *testing.T) {
	l := testLab()
	for _, r := range []*AblationResult{
		AblationEstimates(l),
		AblationBackfill(l),
		AblationBurstiness(l),
		AblationJobLength(l),
		AblationCapSweep(l),
	} {
		if len(r.Rows) < 3 {
			t.Fatalf("%s: rows = %d", r.Title, len(r.Rows))
		}
		renderOK(t, r)
	}
}

func TestAblationCapSweepMonotone(t *testing.T) {
	l := testLab()
	r := AblationCapSweep(l)
	prev := -1
	for _, row := range r.Rows[:len(r.Rows)-1] { // excluding trailing "uncapped" duplicate
		if row.InterstitialJobs < prev {
			t.Fatalf("cap sweep throughput not monotone at %s", row.Label)
		}
		prev = row.InterstitialJobs
	}
}

func TestAblationJobLengthTradeoff(t *testing.T) {
	l := testLab()
	r := AblationJobLength(l)
	// Longer jobs must not *reduce* the native median wait.
	first := r.Rows[0].NativeMedianWait
	last := r.Rows[len(r.Rows)-1].NativeMedianWait
	if last < first {
		t.Fatalf("native median wait fell with longer interstitial jobs: %.0f -> %.0f", first, last)
	}
}

func TestAblationBackfillProtectsNatives(t *testing.T) {
	l := testLab()
	r := AblationBackfill(l)
	// Rows come in native-only / +interstitial pairs; native utilization
	// must survive interstitial load under every flavor.
	for i := 0; i+1 < len(r.Rows); i += 2 {
		base, with := r.Rows[i], r.Rows[i+1]
		if math.Abs(base.NativeUtil-with.NativeUtil) > 0.05 {
			t.Errorf("%s: native util %.3f -> %.3f", with.Label, base.NativeUtil, with.NativeUtil)
		}
	}
}

func TestSampleShortTerm(t *testing.T) {
	l := testLab()
	b := l.Baseline("Blue Mountain")
	spec := Table4Rows()[0]
	p := l.Options().scaledProject(coreSpec(spec))
	run := l.Continual("Blue Mountain", p.JobSpecFor(b.sys.Workload.Machine.ClockGHz), 0)
	if len(run.starts) < 10 {
		t.Skip("too few interstitial jobs at this scale")
	}
	ms, ok := sampleShortTerm(run, 0, 10)
	if !ok || ms <= 0 {
		t.Fatalf("sample = %d,%v", ms, ok)
	}
	// Asking beyond the log's supply fails cleanly.
	if _, ok := sampleShortTerm(run, 0, len(run.starts)+1); ok {
		t.Fatal("oversized project sampled")
	}
	// Later windows can only see fewer jobs.
	horizon := b.sys.Workload.Duration()
	if _, ok := sampleShortTerm(run, horizon, 1); ok {
		t.Fatal("sample from beyond the log")
	}
}

// coreSpec converts a Table4Row into a ProjectSpec.
func coreSpec(r Table4Row) core.ProjectSpec {
	return core.ProjectSpec{PetaCycles: r.PetaCycles, KJobs: r.KJobs, CPUsPerJob: r.CPUs}
}

func TestAblationPreemptionProtectsNatives(t *testing.T) {
	l := testLab()
	r := AblationPreemption(l)
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	base := r.Rows[0]  // non-preemptive
	preNo := r.Rows[1] // no checkpoint
	pre60 := r.Rows[2] // 60s checkpoints
	// Preemption must not worsen the native median wait.
	if preNo.NativeMedianWait > base.NativeMedianWait {
		t.Errorf("preemption raised native median wait %.0f -> %.0f", base.NativeMedianWait, preNo.NativeMedianWait)
	}
	// Checkpointing must recover harvest relative to no-checkpoint.
	if pre60.HarvestedCPUh < preNo.HarvestedCPUh {
		t.Errorf("checkpointing lost harvest: %.0f vs %.0f", pre60.HarvestedCPUh, preNo.HarvestedCPUh)
	}
	// Harvest is the work units completed in-log. A finished continuation
	// completes a unit that its killed runs partly checkpointed, so the
	// harvest is a whole number of units, no less than the finished
	// records' CPU-seconds (restarts are free here), and no more than the
	// interstitial occupancy of the log.
	b := l.Baseline("Blue Mountain")
	spec := core.JobSpec{CPUs: 32, Runtime: b.sys.Seconds1GHz(960)}
	unit := float64(spec.CPUs) * float64(spec.Runtime)
	horizon := b.sys.Workload.Duration()
	for i, pre := range []*core.Preemption{nil, {}, {CheckpointEvery: 60}, {CheckpointEvery: 600}} {
		ctrl := core.NewController(spec)
		ctrl.Preempt = pre
		_, recs := referenceContinual(l, b.sys, b.log, ctrl)
		var finished float64
		for _, j := range recs {
			if j.State == job.Finished && j.Finish <= horizon {
				finished += j.CPUSeconds()
			}
		}
		row := r.Rows[i]
		harvest := row.HarvestedCPUh * 3600
		occupancy := (row.OverallUtil - row.NativeUtil) * float64(b.sys.Workload.Machine.CPUs) * float64(horizon)
		if units := math.Round(harvest / unit); math.Abs(harvest-units*unit) > 1e-6*unit {
			t.Errorf("%s: harvest %.0f CPU·s is %.4f work units, not a whole number", row.Label, harvest, harvest/unit)
		}
		if harvest < finished*(1-1e-12) || harvest > occupancy {
			t.Errorf("%s: harvest %.0f CPU·s outside [%.0f finished, %.0f occupied]", row.Label, harvest, finished, occupancy)
		}
	}
	renderOK(t, r)
}

func TestAblationPredictionOracleHelps(t *testing.T) {
	l := testLab()
	r := AblationPrediction(l)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	user, oracle := r.Rows[0], r.Rows[2]
	// Perfect estimates tighten admission windows, so harvest can move
	// either way at small scale; the oracle's invariant is native
	// protection — its native utilization holds and the 5%-largest tail
	// must not degrade materially.
	if oracle.NativeUtil < user.NativeUtil-0.02 {
		t.Errorf("oracle lost native utilization: %.3f vs %.3f", oracle.NativeUtil, user.NativeUtil)
	}
	if oracle.BigMedianWait > user.BigMedianWait*1.5+600 {
		t.Errorf("oracle worsened the native tail: %.0f vs %.0f", oracle.BigMedianWait, user.BigMedianWait)
	}
	renderOK(t, r)
}

func TestValidateSampling(t *testing.T) {
	l := testLab()
	r := ValidateSampling(l)
	if len(r.Rows) < 3 {
		t.Fatalf("windows = %d", len(r.Rows))
	}
	// Distributional agreement: means within 3x of each other even at
	// test scale.
	if r.MeanExtractedH <= 0 || r.MeanDirectH <= 0 {
		t.Fatal("degenerate means")
	}
	ratio := r.MeanExtractedH / r.MeanDirectH
	if ratio < 1.0/3 || ratio > 3 {
		t.Fatalf("distribution means diverge: extracted %.1f vs direct %.1f", r.MeanExtractedH, r.MeanDirectH)
	}
	renderOK(t, r)
}

func TestSeedRobustness(t *testing.T) {
	l := testLab()
	r := SeedRobustness(l, 3)
	if len(r.Seeds) != 3 {
		t.Fatalf("seeds = %d", len(r.Seeds))
	}
	for i := range r.Seeds {
		if r.UtilGain[i] < 0.05 {
			t.Errorf("seed %d gained only %.3f utilization", r.Seeds[i], r.UtilGain[i])
		}
		if r.NativeShift[i] < -0.05 || r.NativeShift[i] > 0.05 {
			t.Errorf("seed %d shifted native util by %.3f", r.Seeds[i], r.NativeShift[i])
		}
	}
	renderOK(t, r)
}

func TestCSVExports(t *testing.T) {
	l := testLab()
	t2, err := Table2(l)
	if err != nil {
		t.Fatal(err)
	}
	fit, err := TheoryFit(t2)
	if err != nil {
		t.Fatal(err)
	}
	t4 := Table4(l)
	exports := []CSVer{
		Table1(l), t2, Table3(l, t2), fit, Figure2(t2), t4,
		Figure3(l, t4), Table5(l), Table6(l), Figure4(l), Figure5(l),
		AblationCapSweep(l), ValidateSampling(l), SeedRobustness(l, 2),
	}
	for i, e := range exports {
		var buf bytes.Buffer
		if err := e.CSV(&buf); err != nil {
			t.Fatalf("export %d: %v", i, err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if len(lines) < 2 {
			t.Fatalf("export %d: only %d lines", i, len(lines))
		}
		// Every row must have the header's column count.
		cols := strings.Count(lines[0], ",")
		for n, ln := range lines {
			if strings.Count(ln, ",") != cols {
				t.Fatalf("export %d line %d: ragged CSV: %q", i, n, ln)
			}
		}
	}
}

func TestFigure4Outages(t *testing.T) {
	l := testLab()
	r := Figure4Outages(l)
	if len(r.With) == 0 || len(r.With) != len(r.Without) {
		t.Fatal("series ragged")
	}
	// The interstitial band must contain dead hours (the outage dips):
	// find an hour in the middle third where utilization collapses.
	dead := 0
	for i := len(r.With) / 4; i < len(r.With)*3/4; i++ {
		if r.With[i] < 0.2 {
			dead++
		}
	}
	if dead == 0 {
		t.Fatal("no outage dip visible in the interstitial band")
	}
	renderOK(t, r)
}

func TestCorrelations(t *testing.T) {
	l := testLab()
	r := Correlations(l)
	if len(r.ACFBursty) != 25 || len(r.ACFPoisson) != 25 {
		t.Fatalf("acf lengths %d/%d", len(r.ACFBursty), len(r.ACFPoisson))
	}
	if r.ACFBursty[0] != 1 || r.ACFPoisson[0] != 1 {
		t.Fatal("acf[0] != 1")
	}
	// Utilization is a persistent process in both cases (running jobs
	// span hours), but burstiness adds persistence at long lags.
	if r.ACFBursty[1] < 0.5 {
		t.Fatalf("utilization acf[1] = %v; should be strongly persistent", r.ACFBursty[1])
	}
	if r.HurstBursty < 0.5 {
		t.Fatalf("bursty Hurst = %v", r.HurstBursty)
	}
	renderOK(t, r)
	var buf bytes.Buffer
	if err := r.CSV(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryRunsEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	reg := NewRegistry(testLab())
	for _, name := range AllNames() {
		r, err := reg.Run(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		renderOK(t, r)
	}
	if _, err := reg.Run("table99"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestRegistryMemoizesSweeps(t *testing.T) {
	reg := NewRegistry(testLab())
	a, err := reg.Run("table2")
	if err != nil {
		t.Fatal(err)
	}
	b, err := reg.Run("table2")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("table2 recomputed")
	}
}

func TestNameLists(t *testing.T) {
	if len(PaperNames()) != 15 {
		t.Fatalf("paper experiments = %d, want 15", len(PaperNames()))
	}
	seen := map[string]bool{}
	for _, n := range AllNames() {
		if seen[n] {
			t.Fatalf("duplicate name %s", n)
		}
		seen[n] = true
	}
}

func TestScaleStream(t *testing.T) {
	l := testLab()
	r, err := ScaleStream(l)
	if err != nil {
		t.Fatal(err)
	}
	if !r.ResumedIdentical {
		t.Fatalf("checkpoint/restore diverged: %016x vs %016x", r.UninterruptedHash, r.ResumedHash)
	}
	if r.InterstJobs <= 0 {
		t.Fatal("no interstitial jobs harvested")
	}
	if r.OverallUtil <= r.NativeUtil || r.OverallUtil > 1 {
		t.Fatalf("utilizations: native %.3f overall %.3f", r.NativeUtil, r.OverallUtil)
	}
	if r.CheckpointBytes <= 0 {
		t.Fatal("empty checkpoint")
	}
	// Deterministic output: a second identical study renders identical
	// bytes (digests included).
	r2, err := ScaleStream(testLab())
	if err != nil {
		t.Fatal(err)
	}
	if renderOK(t, r) != renderOK(t, r2) {
		t.Fatal("scale-stream output not deterministic")
	}
}

func TestAblationJobWidthBreakage(t *testing.T) {
	l := testLab()
	r := AblationJobWidth(l)
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Harvest falls as jobs widen (space breakage): the 512-CPU row must
	// clearly trail the 1-CPU row.
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	if last.HarvestedCPUh > first.HarvestedCPUh*0.98 {
		t.Fatalf("no breakage penalty: %d-wide %.0f vs 1-wide %.0f CPUh", 512, last.HarvestedCPUh, first.HarvestedCPUh)
	}
	renderOK(t, r)
}

func TestUtilizationSweep(t *testing.T) {
	l := testLab()
	r := UtilizationSweep(l)
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Harvest decreases monotonically with native load; overall
	// utilization stays high throughout.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].HarvestedCPUh >= r.Rows[i-1].HarvestedCPUh {
			t.Fatalf("harvest not decreasing at row %d: %.0f then %.0f", i, r.Rows[i-1].HarvestedCPUh, r.Rows[i].HarvestedCPUh)
		}
	}
	for _, row := range r.Rows {
		if row.OverallUtil < 0.9 {
			t.Fatalf("%s: overall util %.3f — interstitial did not fill", row.Label, row.OverallUtil)
		}
	}
	renderOK(t, r)
}

func TestAblationGuard(t *testing.T) {
	l := testLab()
	r := AblationGuard(l)
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Guard off must devastate native utilization; guard on must not.
	for i := 0; i+1 < len(r.Rows); i += 2 {
		on, off := r.Rows[i], r.Rows[i+1]
		if on.NativeUtil < 0.6 {
			t.Errorf("%s: guard on native util %.3f", on.Label, on.NativeUtil)
		}
		if off.NativeUtil > on.NativeUtil-0.2 {
			t.Errorf("guard off did not starve natives: %.3f vs %.3f", off.NativeUtil, on.NativeUtil)
		}
	}
	renderOK(t, r)
}
