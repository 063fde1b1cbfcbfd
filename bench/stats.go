package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail percentile:
// a p95 read off 40 samples rests on two of them, so the tail is lowered
// until ten samples back it.
const minBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs (the mean of the two middle values for
// an even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(xs, n=4) with its default "exclusive" method, the
// rule the benchmark's spread bounds are judged by. One sample is its own
// quartiles; none gives NaN.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// tailIndex returns the index into n ascending samples of the p-quantile
// (nearest rank), lowered so that at least minBeyond samples lie above it,
// and the percentile that index actually reports. ok is false when there
// are too few samples for any tail.
func tailIndex(n int, p float64) (idx int, got float64, ok bool) {
	if n <= minBeyond {
		return 0, 0, false
	}
	idx = int(math.Ceil(p*float64(n))) - 1
	if max := n - minBeyond - 1; idx > max {
		idx = max
	}
	if idx < 0 {
		idx = 0
	}
	return idx, float64(idx+1) / float64(n), true
}

// tail returns the p-quantile of xs under the tailIndex rule, or NaN when
// there are too few samples.
func tail(xs []float64, p float64) float64 {
	idx, _, ok := tailIndex(len(xs), p)
	if !ok {
		return math.NaN()
	}
	return sorted(xs)[idx]
}

// stat summarizes one metric over a run's samples.
type stat struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

// summarize builds the stat of samples in the given unit.
func summarize(unit string, samples []float64) stat {
	q1, _, q3 := quartiles(samples)
	return stat{Unit: unit, Median: median(samples), Q1: q1, Q3: q3, N: len(samples), Samples: samples}
}
