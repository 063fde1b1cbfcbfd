package stats

import (
	"math"
	"sort"
)

// This file holds the one-pass counterparts of the exact batch
// estimators, for million-job streamed runs where materializing the
// sample is the thing being avoided. Error model (verified by the
// differential tests in streaming_test.go):
//
//   - Welford mean/variance/min/max: exact (better conditioned than the
//     batch sum-of-squares formula; agreement to ~1e-12 relative).
//   - P² quantiles: O(1) memory, no distribution assumptions; on the
//     unimodal lognormal-ish samples this repo produces, within a few
//     percent of the exact quantile at paper scale (1e5 samples).

// Welford accumulates count/mean/variance/min/max of a stream in O(1)
// memory using Welford's recurrence. The zero value is ready to use.
type Welford struct {
	n          int64
	mean, m2   float64
	minV, maxV float64
}

// Add folds one observation in.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.minV, w.maxV = x, x
	} else {
		if x < w.minV {
			w.minV = x
		}
		if x > w.maxV {
			w.maxV = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N reports the observation count.
func (w *Welford) N() int64 { return w.n }

// Mean reports the running mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Var reports the population variance, matching Summarize's convention.
func (w *Welford) Var() float64 {
	if w.n == 0 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Std reports the population standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Min reports the smallest observation (0 when empty).
func (w *Welford) Min() float64 { return w.minV }

// Max reports the largest observation (0 when empty).
func (w *Welford) Max() float64 { return w.maxV }

// P2 estimates a single quantile of a stream in O(1) memory with the P²
// algorithm (Jain & Chlamtac, CACM 1985): five markers track the min,
// max, target quantile, and its flanking mid-quantiles; marker heights
// are nudged by a piecewise-parabolic fit as observations arrive.
type P2 struct {
	q       float64
	count   int64
	heights [5]float64
	pos     [5]int64   // actual marker positions (1-based ranks)
	want    [5]float64 // desired marker positions
	incr    [5]float64 // desired-position increments per observation
}

// NewP2 returns an estimator for the q-quantile, 0 < q < 1.
func NewP2(q float64) *P2 {
	if q <= 0 || q >= 1 {
		panic("stats: P2 quantile out of (0,1)")
	}
	p := &P2{q: q}
	p.incr = [5]float64{0, q / 2, q, (1 + q) / 2, 1}
	return p
}

// Add folds one observation in.
func (p *P2) Add(x float64) {
	if p.count < 5 {
		p.heights[p.count] = x
		p.count++
		if p.count == 5 {
			h := p.heights[:]
			sort.Float64s(h)
			for i := range p.pos {
				p.pos[i] = int64(i + 1)
			}
			p.want = [5]float64{1, 1 + 2*p.q, 1 + 4*p.q, 3 + 2*p.q, 5}
		}
		return
	}
	p.count++

	// Find the cell x falls in, updating the extremes.
	var k int
	switch {
	case x < p.heights[0]:
		p.heights[0] = x
		k = 0
	case x >= p.heights[4]:
		p.heights[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < p.heights[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		p.pos[i]++
	}
	for i := range p.want {
		p.want[i] += p.incr[i]
	}

	// Nudge the interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := p.want[i] - float64(p.pos[i])
		if (d >= 1 && p.pos[i+1]-p.pos[i] > 1) || (d <= -1 && p.pos[i-1]-p.pos[i] < -1) {
			di := int64(1)
			if d < 0 {
				di = -1
			}
			if h := p.parabolic(i, di); p.heights[i-1] < h && h < p.heights[i+1] {
				p.heights[i] = h
			} else {
				p.heights[i] = p.linear(i, di)
			}
			p.pos[i] += di
		}
	}
}

func (p *P2) parabolic(i int, d int64) float64 {
	df := float64(d)
	ni := float64(p.pos[i])
	nm := float64(p.pos[i-1])
	np := float64(p.pos[i+1])
	return p.heights[i] + df/(np-nm)*
		((ni-nm+df)*(p.heights[i+1]-p.heights[i])/(np-ni)+
			(np-ni-df)*(p.heights[i]-p.heights[i-1])/(ni-nm))
}

func (p *P2) linear(i int, d int64) float64 {
	k := i + int(d)
	return p.heights[i] + float64(d)*(p.heights[k]-p.heights[i])/float64(p.pos[k]-p.pos[i])
}

// N reports the observation count.
func (p *P2) N() int64 { return p.count }

// Value reports the current quantile estimate; with five or fewer
// observations it is the exact sample quantile.
func (p *P2) Value() float64 {
	if p.count == 0 {
		return 0
	}
	if p.count <= 5 {
		s := append([]float64(nil), p.heights[:p.count]...)
		sort.Float64s(s)
		return quantileSorted(s, p.q)
	}
	return p.heights[2]
}

// StreamSummary is the one-pass counterpart of Summarize: exact
// N/Mean/Std/Min/Max via Welford plus a P² median estimate. The zero
// value is NOT ready; use NewStreamSummary.
type StreamSummary struct {
	w   Welford
	med *P2
}

// NewStreamSummary returns an empty accumulator.
func NewStreamSummary() *StreamSummary {
	return &StreamSummary{med: NewP2(0.5)}
}

// Add folds one observation in.
func (s *StreamSummary) Add(x float64) {
	s.w.Add(x)
	s.med.Add(x)
}

// N reports the observation count.
func (s *StreamSummary) N() int64 { return s.w.N() }

// Summary renders the accumulated state in the batch Summary shape.
// Median is the P² estimate; every other field is exact.
func (s *StreamSummary) Summary() Summary {
	return Summary{
		N:      int(s.w.N()),
		Mean:   s.w.Mean(),
		Median: s.med.Value(),
		Std:    s.w.Std(),
		Min:    s.w.Min(),
		Max:    s.w.Max(),
	}
}
