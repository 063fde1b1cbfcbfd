package stats

import (
	"fmt"
	"math"
	"testing"

	"interstitial/internal/job"
	"interstitial/internal/rng"
	"interstitial/internal/sim"
)

// paperScaleSample draws a lognormal sample shaped like this repo's
// runtime/wait populations (heavy right tail), at paper scale.
func paperScaleSample(n int, seed int64) []float64 {
	r := rng.New(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.LogNormal(r, 0.8, 1.5)
	}
	return out
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// TestWelfordMatchesSummarize: the one-pass moments are exact — they
// must agree with the batch path to floating-point noise.
func TestWelfordMatchesSummarize(t *testing.T) {
	xs := paperScaleSample(100_000, 1)
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	b := Summarize(xs)
	if w.N() != int64(b.N) {
		t.Fatalf("N = %d, want %d", w.N(), b.N)
	}
	if e := relErr(w.Mean(), b.Mean); e > 1e-9 {
		t.Fatalf("mean err %g (got %g want %g)", e, w.Mean(), b.Mean)
	}
	if e := relErr(w.Std(), b.Std); e > 1e-9 {
		t.Fatalf("std err %g (got %g want %g)", e, w.Std(), b.Std)
	}
	if w.Min() != b.Min || w.Max() != b.Max {
		t.Fatalf("extrema (%g,%g), want (%g,%g)", w.Min(), w.Max(), b.Min, b.Max)
	}
}

// TestP2MatchesExactQuantiles bounds the P² error on a paper-scale
// heavy-tailed sample: within 5% relative of the exact quantile, the
// bound DESIGN.md documents.
func TestP2MatchesExactQuantiles(t *testing.T) {
	xs := paperScaleSample(100_000, 2)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		p := NewP2(q)
		for _, x := range xs {
			p.Add(x)
		}
		exact := Quantile(xs, q)
		if e := relErr(p.Value(), exact); e > 0.05 {
			t.Fatalf("P2(%g) err %.3f (got %g want %g)", q, e, p.Value(), exact)
		}
	}
}

func TestP2SmallSamplesAreExact(t *testing.T) {
	p := NewP2(0.5)
	for _, x := range []float64{5, 1, 3} {
		p.Add(x)
	}
	if p.Value() != 3 {
		t.Fatalf("median of {5,1,3} = %g", p.Value())
	}
	if NewP2(0.5).Value() != 0 {
		t.Fatal("empty P2 not zero")
	}
}

// TestStreamSummaryMatchesSummarize: exact fields exactly, median
// within the P² bound.
func TestStreamSummaryMatchesSummarize(t *testing.T) {
	xs := paperScaleSample(100_000, 5)
	s := NewStreamSummary()
	for _, x := range xs {
		s.Add(x)
	}
	b := Summarize(xs)
	got := s.Summary()
	if got.N != b.N || got.Min != b.Min || got.Max != b.Max {
		t.Fatalf("exact fields differ: %+v vs %+v", got, b)
	}
	if e := relErr(got.Mean, b.Mean); e > 1e-9 {
		t.Fatalf("mean err %g", e)
	}
	if e := relErr(got.Median, b.Median); e > 0.05 {
		t.Fatalf("median err %.3f (got %g want %g)", e, got.Median, b.Median)
	}
}

// syntheticLog builds a job log with enough variety to exercise every
// Characterization field, without depending on the workload package.
func syntheticLog(n int) []*job.Job {
	r := rng.New(6)
	jobs := make([]*job.Job, n)
	at := sim.Time(0)
	for i := range jobs {
		at += sim.Time(r.Int63n(900))
		cpus := 1 << r.Int63n(8)
		rt := sim.Time(30 + r.Int63n(86400))
		j := job.New(i+1, fmt.Sprintf("u%02d", r.Int63n(17)), fmt.Sprintf("g%02d", r.Int63n(5)), int(cpus), rt, 0, at)
		j.Estimate = rt * sim.Time(1+r.Int63n(6))
		jobs[i] = j
	}
	return jobs
}

// TestStreamCharacterizerMatchesBatch: every field the batch
// Characterize computes must match exactly, except the two medians
// (P² estimates, bounded at 5%).
func TestStreamCharacterizerMatchesBatch(t *testing.T) {
	jobs := syntheticLog(20_000)
	want := Characterize(jobs, 6144)
	sc := NewStreamCharacterizer(6144)
	for _, j := range jobs {
		sc.Add(j)
	}
	if sc.N() != len(jobs) {
		t.Fatalf("N = %d", sc.N())
	}
	got := sc.Characterization()

	if got.Jobs != want.Jobs || got.Users != want.Users || got.Groups != want.Groups ||
		got.SpanDays != want.SpanDays || got.MaxCPUs != want.MaxCPUs {
		t.Fatalf("counts differ:\ngot  %+v\nwant %+v", got, want)
	}
	if len(got.SizeBuckets) != len(want.SizeBuckets) {
		t.Fatalf("bucket count %d vs %d", len(got.SizeBuckets), len(want.SizeBuckets))
	}
	for b := range want.SizeBuckets {
		if got.SizeBuckets[b] != want.SizeBuckets[b] {
			t.Fatalf("bucket %d: %d vs %d", b, got.SizeBuckets[b], want.SizeBuckets[b])
		}
	}
	if got.Dispersion != want.Dispersion {
		t.Fatalf("dispersion %g vs %g", got.Dispersion, want.Dispersion)
	}
	if e := relErr(got.OfferedLoad, want.OfferedLoad); e > 1e-12 {
		t.Fatalf("offered load err %g", e)
	}
	if e := relErr(got.EstimateOverRatio, want.EstimateOverRatio); e > 1e-12 {
		t.Fatalf("estimate ratio err %g", e)
	}
	if e := relErr(got.RuntimeH.Mean, want.RuntimeH.Mean); e > 1e-9 {
		t.Fatalf("runtime mean err %g", e)
	}
	if e := relErr(got.RuntimeH.Median, want.RuntimeH.Median); e > 0.05 {
		t.Fatalf("runtime median err %.3f", e)
	}
	if e := relErr(got.EstimateH.Median, want.EstimateH.Median); e > 0.05 {
		t.Fatalf("estimate median err %.3f", e)
	}
}

func TestEstimatorPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("P2(0)", func() { NewP2(0) })
}
