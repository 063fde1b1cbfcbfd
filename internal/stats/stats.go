// Package stats computes every metric the paper reports from simulated job
// records: windowed utilizations, wait-time summaries (median/mean, all
// jobs and the 5 % largest by CPU-seconds), expansion factors, makespan
// summaries and quantiles over replications, log10 wait histograms, and
// hourly utilization series.
package stats

import (
	"fmt"
	"math"
	"sort"

	"interstitial/internal/job"
	"interstitial/internal/sim"
)

// Utilization reports the fraction of N CPUs doing real work over
// [from, to), computed from job records (each contributes cpus x overlap).
// Jobs that never started contribute nothing; Maintenance (outage) jobs
// occupy CPUs but earn no utilization credit — outage time stays in the
// denominator, matching the paper's "including outages" accounting.
func Utilization(jobs []*job.Job, n int, from, to sim.Time) float64 {
	if to <= from || n <= 0 {
		return 0
	}
	var busy float64
	for _, j := range jobs {
		if j.Class == job.Maintenance {
			continue
		}
		busy += float64(j.CPUs) * float64(overlap(j, from, to))
	}
	return busy / (float64(n) * float64(to-from))
}

// overlap reports how many seconds of j's execution fall in [from, to).
func overlap(j *job.Job, from, to sim.Time) sim.Time {
	if j.Start < 0 {
		return 0
	}
	end := j.Finish
	if end < 0 {
		end = j.Start + j.Runtime
	}
	s, e := j.Start, end
	if s < from {
		s = from
	}
	if e > to {
		e = to
	}
	if e <= s {
		return 0
	}
	return e - s
}

// UtilizationByClass splits Utilization into (overall, native-only).
func UtilizationByClass(jobs []*job.Job, n int, from, to sim.Time) (overall, native float64) {
	var busyAll, busyNat float64
	if to <= from || n <= 0 {
		return 0, 0
	}
	for _, j := range jobs {
		if j.Class == job.Maintenance {
			continue
		}
		a := float64(j.CPUs) * float64(overlap(j, from, to))
		busyAll += a
		if j.Class == job.Native {
			busyNat += a
		}
	}
	denom := float64(n) * float64(to-from)
	return busyAll / denom, busyNat / denom
}

// HourlySeries reports utilization per bucket of the given width over
// [0, horizon) — the data behind Figure 4.
func HourlySeries(jobs []*job.Job, n int, horizon, bucket sim.Time) []float64 {
	if bucket <= 0 {
		bucket = 3600
	}
	nb := int((horizon + bucket - 1) / bucket)
	out := make([]float64, nb)
	for _, j := range jobs {
		if j.Start < 0 || j.Class == job.Maintenance {
			continue
		}
		end := j.Finish
		if end < 0 {
			end = j.Start + j.Runtime
		}
		if end > horizon {
			end = horizon
		}
		b0 := int(j.Start / bucket)
		for b := b0; b < nb; b++ {
			bs, be := sim.Time(b)*bucket, sim.Time(b+1)*bucket
			if bs >= end {
				break
			}
			out[b] += float64(j.CPUs) * float64(overlap(j, bs, be))
		}
	}
	for b := range out {
		out[b] /= float64(n) * float64(bucket)
	}
	return out
}

// Summary holds order statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Median float64
	Std    float64
	Min    float64
	Max    float64
}

// Summarize computes a Summary. An empty sample returns zeros.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var sum, sq float64
	for _, x := range s {
		sum += x
		sq += x * x
	}
	n := float64(len(s))
	mean := sum / n
	variance := sq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Summary{
		N:      len(s),
		Mean:   mean,
		Median: quantileSorted(s, 0.5),
		Std:    math.Sqrt(variance),
		Min:    s[0],
		Max:    s[len(s)-1],
	}
}

// Quantile reports the q-quantile (0..1) of xs by linear interpolation.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Waits extracts wait times (seconds) of started jobs matching the class.
func Waits(jobs []*job.Job, class job.Class) []float64 {
	var out []float64
	for _, j := range jobs {
		if j.Class != class || j.Start < 0 {
			continue
		}
		out = append(out, float64(j.Wait()))
	}
	return out
}

// ExpansionFactors extracts EF = 1 + wait/runtime for started jobs of the
// class.
func ExpansionFactors(jobs []*job.Job, class job.Class) []float64 {
	var out []float64
	for _, j := range jobs {
		if j.Class != class || j.Start < 0 {
			continue
		}
		out = append(out, j.ExpansionFactor())
	}
	return out
}

// LargestByCPUSeconds returns the top frac (e.g. 0.05) of jobs by
// CPU-seconds — the paper's "5% largest jobs" slice. Ties break on ID for
// determinism.
func LargestByCPUSeconds(jobs []*job.Job, frac float64) []*job.Job {
	s := append([]*job.Job(nil), jobs...)
	sort.Slice(s, func(i, k int) bool {
		a, b := s[i].CPUSeconds(), s[k].CPUSeconds()
		if a != b {
			return a > b
		}
		return s[i].ID < s[k].ID
	})
	n := int(float64(len(s))*frac + 0.5)
	if n < 1 && len(s) > 0 {
		n = 1
	}
	return s[:n]
}

// Impact is the native-impact summary of one co-simulation over [0,
// horizon): the measurement the paper's Tables 5–8 repeat. It holds the
// utilizations, the native waits and expansion factors for all natives
// and for the 5% largest by CPU-seconds, native throughput, and the
// interstitial harvest.
type Impact struct {
	// OverallUtil and NativeUtil are UtilizationByClass over the natives
	// and interstitial jobs together.
	OverallUtil, NativeUtil float64
	// WaitAll and EFAll summarize the natives' waits and expansion
	// factors; WaitBig and EFBig do the same for the 5% largest.
	WaitAll, WaitBig Summary
	EFAll, EFBig     Summary
	// NativeFinished counts natives finished inside the horizon: the
	// paper's throughput-preservation check.
	NativeFinished int
	// Harvested is the CPU-seconds of interstitial jobs in state Finished
	// inside the horizon. Killed runs harvest nothing.
	Harvested float64
}

// ImpactOf summarizes natives co-simulated with the interstitial jobs
// inter (nil for a native-only run) on a cpus-CPU machine over [0,
// horizon).
func ImpactOf(natives, inter []*job.Job, cpus int, horizon sim.Time) Impact {
	all := make([]*job.Job, 0, len(natives)+len(inter))
	all = append(append(all, natives...), inter...)
	big := LargestByCPUSeconds(natives, 0.05)
	imp := Impact{
		WaitAll: Summarize(Waits(natives, job.Native)),
		WaitBig: Summarize(Waits(big, job.Native)),
		EFAll:   Summarize(ExpansionFactors(natives, job.Native)),
		EFBig:   Summarize(ExpansionFactors(big, job.Native)),
	}
	imp.OverallUtil, imp.NativeUtil = UtilizationByClass(all, cpus, 0, horizon)
	for _, j := range natives {
		if j.Class == job.Native && j.Finish >= 0 && j.Finish <= horizon {
			imp.NativeFinished++
		}
	}
	for _, j := range inter {
		if j.State == job.Finished && j.Finish <= horizon {
			imp.Harvested += j.CPUSeconds()
		}
	}
	return imp
}

// Log10Histogram bins positive values by order of magnitude: bin k counts
// values in [10^k, 10^(k+1)). Values < 1 (including zeros) land in bin 0,
// matching the paper's Figures 5-6 where the (0,1] decade holds the
// no-wait mass. Returns normalized probabilities over nbins.
func Log10Histogram(xs []float64, nbins int) []float64 {
	out := make([]float64, nbins)
	if len(xs) == 0 {
		return out
	}
	for _, x := range xs {
		b := 0
		if x >= 1 {
			b = int(math.Log10(x))
			if b >= nbins {
				b = nbins - 1
			}
		}
		out[b]++
	}
	for i := range out {
		out[i] /= float64(len(xs))
	}
	return out
}

// FormatSeconds renders seconds the way the paper's tables do: "0.2k",
// "4.4k", "93k".
func FormatSeconds(s float64) string {
	if s >= 1000 {
		return fmt.Sprintf("%.1fk", s/1000)
	}
	return fmt.Sprintf("%.0f", s)
}
