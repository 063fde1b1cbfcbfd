package stats

import (
	"math"
	"testing"
	"testing/quick"

	"interstitial/internal/job"
	"interstitial/internal/sim"
)

func fin(id, cpus int, start, end sim.Time, class job.Class) *job.Job {
	j := job.New(id, "u", "g", cpus, end-start, end-start, start)
	j.Class = class
	j.Start = start
	j.Finish = end
	j.State = job.Finished
	return j
}

func TestUtilizationWindow(t *testing.T) {
	jobs := []*job.Job{
		fin(1, 50, 0, 100, job.Native),  // 5000 CPU.s
		fin(2, 50, 50, 150, job.Native), // 5000, half in window [0,100)
	}
	got := Utilization(jobs, 100, 0, 100)
	if math.Abs(got-0.75) > 1e-9 {
		t.Fatalf("util = %v, want 0.75", got)
	}
	if got := Utilization(jobs, 100, 200, 300); got != 0 {
		t.Fatalf("empty window util = %v", got)
	}
	if got := Utilization(jobs, 100, 100, 100); got != 0 {
		t.Fatal("degenerate window should be 0")
	}
}

func TestUtilizationIgnoresUnstarted(t *testing.T) {
	j := job.New(1, "u", "g", 100, 50, 50, 0)
	if got := Utilization([]*job.Job{j}, 100, 0, 100); got != 0 {
		t.Fatalf("unstarted job contributed %v", got)
	}
}

func TestUtilizationByClass(t *testing.T) {
	jobs := []*job.Job{
		fin(1, 40, 0, 100, job.Native),
		fin(2, 60, 0, 100, job.Interstitial),
	}
	overall, native := UtilizationByClass(jobs, 100, 0, 100)
	if overall != 1.0 || native != 0.4 {
		t.Fatalf("overall/native = %v/%v, want 1.0/0.4", overall, native)
	}
}

func TestHourlySeries(t *testing.T) {
	jobs := []*job.Job{fin(1, 100, 0, 3600, job.Native), fin(2, 50, 3600, 10800, job.Native)}
	s := HourlySeries(jobs, 100, 10800, 3600)
	want := []float64{1.0, 0.5, 0.5}
	for i := range want {
		if math.Abs(s[i]-want[i]) > 1e-9 {
			t.Fatalf("series = %v, want %v", s, want)
		}
	}
}

func TestHourlySeriesClipsAtHorizon(t *testing.T) {
	jobs := []*job.Job{fin(1, 100, 1800, 7200, job.Native)}
	s := HourlySeries(jobs, 100, 3600, 3600)
	if len(s) != 1 || math.Abs(s[0]-0.5) > 1e-9 {
		t.Fatalf("series = %v, want [0.5]", s)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 100})
	if s.N != 5 || s.Median != 3 || s.Min != 1 || s.Max != 100 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.Mean-22) > 1e-9 {
		t.Fatalf("mean = %v, want 22", s.Mean)
	}
	if s.Std <= 0 {
		t.Fatal("zero std for spread sample")
	}
	empty := Summarize(nil)
	if empty.N != 0 || empty.Mean != 0 {
		t.Fatal("empty summary not zero")
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Summarize mutated its input")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	if got := Quantile(xs, 0.5); got != 50 {
		t.Fatalf("median = %v", got)
	}
	if got := Quantile(xs, 0); got != 0 {
		t.Fatalf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 100 {
		t.Fatalf("q1 = %v", got)
	}
	if got := Quantile(xs, 0.95); math.Abs(got-95) > 1e-9 {
		t.Fatalf("q95 = %v, want 95", got)
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Fatal("empty quantile not 0")
	}
}

func TestWaitsAndEF(t *testing.T) {
	a := job.New(1, "u", "g", 1, 100, 100, 0)
	a.Start = 50 // wait 50, EF 1.5
	b := job.New(2, "u", "g", 1, 100, 100, 0)
	ij := job.NewInterstitial(3, 1, 100, 0)
	ij.Start = 10
	jobs := []*job.Job{a, b, ij}
	w := Waits(jobs, job.Native)
	if len(w) != 1 || w[0] != 50 {
		t.Fatalf("waits = %v", w)
	}
	efs := ExpansionFactors(jobs, job.Native)
	if len(efs) != 1 || efs[0] != 1.5 {
		t.Fatalf("EFs = %v", efs)
	}
	wi := Waits(jobs, job.Interstitial)
	if len(wi) != 1 || wi[0] != 10 {
		t.Fatalf("interstitial waits = %v", wi)
	}
}

func TestLargestByCPUSeconds(t *testing.T) {
	var jobs []*job.Job
	for i := 1; i <= 100; i++ {
		jobs = append(jobs, fin(i, i, 0, 100, job.Native)) // area = i*100
	}
	top := LargestByCPUSeconds(jobs, 0.05)
	if len(top) != 5 {
		t.Fatalf("top 5%% = %d jobs, want 5", len(top))
	}
	for _, j := range top {
		if j.CPUs < 96 {
			t.Fatalf("job %d (cpus=%d) in top 5%%", j.ID, j.CPUs)
		}
	}
	// At least one element even for tiny sets.
	if got := LargestByCPUSeconds(jobs[:3], 0.05); len(got) != 1 {
		t.Fatalf("tiny set top = %d, want 1", len(got))
	}
}

func TestLog10Histogram(t *testing.T) {
	xs := []float64{0, 0.5, 5, 50, 500, 5000, 50000}
	h := Log10Histogram(xs, 6)
	// bins: [<10): {0,0.5,5}=3? No: bin0 holds [0,10) via x<1 → {0,0.5} plus 5 → log10(5)=0 → bin0.
	// So bin0 = 3, bin1 = {50}, bin2 = {500}, bin3 = {5000}, bin4 = {50000}.
	want := []float64{3.0 / 7, 1.0 / 7, 1.0 / 7, 1.0 / 7, 1.0 / 7, 0}
	for i := range want {
		if math.Abs(h[i]-want[i]) > 1e-9 {
			t.Fatalf("hist = %v, want %v", h, want)
		}
	}
	// Overflow values clamp to the last bin.
	h = Log10Histogram([]float64{1e12}, 3)
	if h[2] != 1 {
		t.Fatalf("overflow not clamped: %v", h)
	}
}

func TestFormatSeconds(t *testing.T) {
	if FormatSeconds(624) != "624" {
		t.Fatalf("got %q", FormatSeconds(624))
	}
	if FormatSeconds(4400) != "4.4k" {
		t.Fatalf("got %q", FormatSeconds(4400))
	}
	if FormatSeconds(93000) != "93.0k" {
		t.Fatalf("got %q", FormatSeconds(93000))
	}
}

// Property: histogram sums to 1 for nonempty input and utilization is in
// [0, 1] when jobs cannot oversubscribe.
func TestQuickHistogramNormalized(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		h := Log10Histogram(xs, 8)
		sum := 0.0
		for _, v := range h {
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMaintenanceExcludedFromUtilization(t *testing.T) {
	work := fin(1, 50, 0, 100, job.Native)
	outage := fin(2, 100, 100, 200, job.Native)
	outage.Class = job.Maintenance
	jobs := []*job.Job{work, outage}
	// Over [0,200): 50 CPUs x 100 s of real work on a 100-CPU machine;
	// the outage occupies everything on [100,200) but earns nothing.
	if got := Utilization(jobs, 100, 0, 200); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("util = %v, want 0.25", got)
	}
	overall, native := UtilizationByClass(jobs, 100, 0, 200)
	if overall != 0.25 || native != 0.25 {
		t.Fatalf("overall/native = %v/%v", overall, native)
	}
	s := HourlySeries(jobs, 100, 200, 100)
	if s[1] != 0 {
		t.Fatalf("outage bucket utilization = %v, want 0 (the Figure 4 dip)", s[1])
	}
}

// rec builds a started job record: submitted at submit, run from start to
// finish (a Killed one stops early), planned for runtime seconds.
func rec(id, cpus int, runtime, submit, start, finish sim.Time, state job.State, class job.Class) *job.Job {
	j := job.New(id, "u", "g", cpus, runtime, runtime, submit)
	j.Class, j.State, j.Start, j.Finish = class, state, start, finish
	return j
}

// TestImpactOf pins the native-impact rules on a 10-CPU machine over a
// 100 s horizon: what counts toward each utilization, the harvest and
// native throughput, and how the 5% largest are picked.
func TestImpactOf(t *testing.T) {
	natives := []*job.Job{
		// Jobs 2 and 1 tie at 100 CPU·s; the lower ID is the 5% largest
		// (the top 1 of 4), whatever the input order.
		rec(2, 4, 25, 0, 0, 25, job.Finished, job.Native),    // wait 0, EF 1
		rec(1, 2, 50, 0, 10, 60, job.Finished, job.Native),   // wait 10, EF 1.2
		rec(3, 1, 40, 50, 80, 120, job.Finished, job.Native), // wait 30, EF 1.75, finishes after the horizon
		// An outage drain: it holds CPUs but earns no utilization, waits
		// or throughput.
		rec(4, 10, 5, 0, 0, 5, job.Finished, job.Maintenance),
	}
	inter := []*job.Job{
		rec(5, 1, 30, 0, 0, 30, job.Finished, job.Interstitial),    // harvested: 30 CPU·s
		rec(6, 2, 30, 40, 40, 55, job.Killed, job.Interstitial),    // busy 30 CPU·s, killed: no harvest
		rec(7, 1, 30, 90, 90, 120, job.Finished, job.Interstitial), // busy 10 CPU·s, finishes after the horizon
	}
	// The three natives' samples; the maintenance job has none.
	waits, efs := Summarize([]float64{0, 10, 30}), Summarize([]float64{1, 1.2, 1.75})
	big, bigEF := Summarize([]float64{10}), Summarize([]float64{1.2})
	for _, tc := range []struct {
		name  string
		inter []*job.Job
		want  Impact
	}{
		{"co-simulated", inter, Impact{
			// Natives 100+100+20 CPU·s in the window; interstitials 30+30+10.
			OverallUtil: 0.29, NativeUtil: 0.22,
			WaitAll: waits, WaitBig: big, EFAll: efs, EFBig: bigEF,
			NativeFinished: 2, Harvested: 30,
		}},
		{"natives only", nil, Impact{
			OverallUtil: 0.22, NativeUtil: 0.22,
			WaitAll: waits, WaitBig: big, EFAll: efs, EFBig: bigEF,
			NativeFinished: 2,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := ImpactOf(natives, tc.inter, 10, 100)
			if got != tc.want {
				t.Fatalf("ImpactOf =\n  %+v\nwant\n  %+v", got, tc.want)
			}
		})
	}
}
