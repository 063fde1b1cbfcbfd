package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The advisor-open traffic: Zipf-popular questions over 3 machines × 1000
// project sizes. The key space is larger than the server's 256-entry plan
// cache, so the popular head is answered from the cache while the tail
// pays a full sweep — both paths are measured.
//
// The mix is synthetic and unverified. No advisord request log exists to
// set the Zipf exponent, the size grid, the equal weight of the machines
// or the rates; all of them are provisional until one is recorded.
var advisorMachines = []string{"Ross", "Blue Mountain", "Blue Pacific"}

const (
	advisorSizes = 1000 // petacycle values per machine: 0.5, 0.54, ..., 40.46
	zipfS        = 1.2
	// latencyLimit is the advisor's latency objective: a request slower
	// than this, or shed, degraded or errored, misses it.
	latencyLimit = time.Second
)

// step is one offered rate of the ladder, held for dur.
type step struct {
	rps float64
	dur time.Duration
}

// ladder is the open-loop offered-load schedule, chosen from the knee
// measured on two cores. 10 and 20 rps lie below it: their tails stay
// under 100 ms and they rarely shed. 40 rps lies at or just past it: a
// pass sheds 0–20% of its requests, against the objective's 2% (see
// max_rate_rps), whenever misses fill the server's four admission slots;
// how many depends on the seed and on how fast the machine runs. The
// cache warms as the ladder climbs, so each step also sees more hits than
// the one before. The steps are short so that a run holds several passes.
var ladder = []step{{10, 1500 * time.Millisecond}, {20, 1500 * time.Millisecond}, {40, 1500 * time.Millisecond}}

// arrival is one scheduled request: when it is due (offset from the start
// of the ladder), which ladder step it belongs to, and which question it
// asks.
type arrival struct {
	at   time.Duration
	step int
	key  int
}

// keyQuery renders question k as the /plan query it asks.
func keyQuery(k int) string {
	return planQuery(advisorMachines[k%len(advisorMachines)], float64(50+4*(k/len(advisorMachines)))/100)
}

func planQuery(machine string, petacycles float64) string {
	return "/plan?machine=" + urlMachine(machine) + "&petacycles=" + strconv.FormatFloat(petacycles, 'g', -1, 64)
}

// urlMachine escapes the one character machine names need escaping.
func urlMachine(m string) string {
	b := []byte(m)
	for i := range b {
		if b[i] == ' ' {
			b[i] = '+'
		}
	}
	return string(b)
}

// schedule draws the seeded open-loop request schedule: each step offers
// exactly rate × duration requests at uniformly random instants (a Poisson
// process conditioned on its count, so the offered load does not vary with
// the seed), each asking a Zipf-popular question. A question's popularity
// rank is its key, so small projects are asked most and the cache misses
// fall on larger, costlier sweeps.
func schedule(seed int64, steps []step) []arrival {
	r := rand.New(rand.NewSource(seed))
	nkeys := advisorSizes * len(advisorMachines)
	zipf := rand.NewZipf(r, zipfS, 1, uint64(nkeys-1))
	var out []arrival
	var base time.Duration
	for si, s := range steps {
		n := int(s.rps * s.dur.Seconds())
		at := make([]time.Duration, n)
		for i := range at {
			at[i] = base + time.Duration(r.Int63n(int64(s.dur)))
		}
		sort.Slice(at, func(i, k int) bool { return at[i] < at[k] })
		for _, t := range at {
			out = append(out, arrival{at: t, step: si, key: int(zipf.Uint64())})
		}
		base += s.dur
	}
	return out
}

// outcome classes of one answered request.
const (
	outOK = iota
	outShed
	outDegraded
	outError
)

// outcome is what one scheduled request saw.
type outcome struct {
	class int
	// late is how far behind its due time the generator sent it; lat is
	// the time from its due time to its answer, so a stall that delays
	// sending is charged to the request (no coordinated omission).
	late, lat time.Duration
	text      string // plan text of an OK answer
}

// planBody is the part of a /plan answer the generator checks.
type planBody struct {
	Degraded bool   `json:"degraded"`
	Text     string `json:"text"`
}

// serve sends one GET through the handler in-process (no socket) and
// classifies the answer.
func serve(h http.Handler, query string) outcome {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, query, nil))
	switch rec.Code {
	case http.StatusOK:
		var b planBody
		if err := json.Unmarshal(rec.Body.Bytes(), &b); err != nil {
			return outcome{class: outError}
		}
		if b.Degraded {
			return outcome{class: outDegraded}
		}
		return outcome{class: outOK, text: b.Text}
	case http.StatusTooManyRequests:
		return outcome{class: outShed}
	}
	return outcome{class: outError}
}

// runOpenLoop offers the schedule to h open loop: each request is sent at
// its due time on its own goroutine, whatever earlier requests are doing,
// and timed from that due time, so a stall of the server or of the
// generator itself is charged to every request it delays. It returns once
// every request is answered.
func runOpenLoop(h http.Handler, sched []arrival, query func(key int) string) []outcome {
	outs := make([]outcome, len(sched))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, a := range sched {
		if d := a.at - time.Since(t0); d > 0 {
			time.Sleep(d)
		}
		q := query(a.key)
		late := time.Since(t0) - a.at
		wg.Add(1)
		go func(i int, a arrival) {
			defer wg.Done()
			o := serve(h, q)
			o.late, o.lat = late, time.Since(t0)-a.at
			outs[i] = o
		}(i, a)
	}
	wg.Wait()
	return outs
}

// stepResult is one ladder step's raw record, pooled across passes by the
// parent before percentiles are taken.
type stepResult struct {
	RPS float64 `json:"rps"`
	// LatMS holds every request's latency in ms; a request that missed
	// the objective by failing is recorded at its latency plus the limit,
	// so it always reads as a miss.
	LatMS    []float64 `json:"lat_ms"`
	LateMS   []float64 `json:"late_ms"`
	Offered  int       `json:"offered"`
	OK       int       `json:"ok"`
	Shed     int       `json:"shed"`
	Degraded int       `json:"degraded"`
	Errors   int       `json:"errors"`
}

// tally folds the outcomes into per-step records.
func tally(sched []arrival, outs []outcome, steps []step) []stepResult {
	res := make([]stepResult, len(steps))
	for i := range res {
		res[i].RPS = steps[i].rps
	}
	limitMS := float64(latencyLimit) / float64(time.Millisecond)
	for i, a := range sched {
		r := &res[a.step]
		o := outs[i]
		ms := float64(o.lat) / float64(time.Millisecond)
		r.Offered++
		switch o.class {
		case outOK:
			r.OK++
		case outShed:
			r.Shed++
			ms += limitMS
		case outDegraded:
			r.Degraded++
			ms += limitMS
		default:
			r.Errors++
			ms += limitMS
		}
		r.LatMS = append(r.LatMS, ms)
		r.LateMS = append(r.LateMS, float64(o.late)/float64(time.Millisecond))
	}
	return res
}

// ladderMetrics derives the open-loop metrics from step records pooled over
// a run's passes: latency median and tail at 10 and 40 rps, the failure
// fraction at 40 rps, the highest rate meeting the objective, and how late
// the generator ran.
func ladderMetrics(steps []stepResult) map[string]float64 {
	m := map[string]float64{}
	limitMS := float64(latencyLimit) / float64(time.Millisecond)
	var late []float64
	for _, s := range steps {
		late = append(late, s.LateMS...)
		p95 := tail(s.LatMS, 0.95)
		fail := float64(s.Shed+s.Degraded+s.Errors) / float64(s.Offered)
		if tag := fmt.Sprintf("r%.0f", s.RPS); s.RPS == 10 || s.RPS == 40 {
			m["lat_p50_ms."+tag] = median(s.LatMS)
			m["lat_p95_ms."+tag] = p95
			if s.RPS == 40 {
				m["fail_frac."+tag] = fail
			}
		}
		if p95 <= limitMS && fail <= 0.02 && s.RPS > m["max_rate_rps"] {
			m["max_rate_rps"] = s.RPS
		}
	}
	m["loadgen.late_ms.p99"] = tail(late, 0.99)
	m["loadgen.late_ms.max"] = sorted(late)[len(late)-1]
	return m
}

// poolSteps concatenates step records of several passes, step by step.
func poolSteps(passes [][]stepResult) []stepResult {
	var out []stepResult
	for _, steps := range passes {
		if out == nil {
			out = make([]stepResult, len(steps))
			for i := range steps {
				out[i].RPS = steps[i].RPS
			}
		}
		for i, s := range steps {
			o := &out[i]
			o.LatMS = append(o.LatMS, s.LatMS...)
			o.LateMS = append(o.LateMS, s.LateMS...)
			o.Offered += s.Offered
			o.OK += s.OK
			o.Shed += s.Shed
			o.Degraded += s.Degraded
			o.Errors += s.Errors
		}
	}
	return out
}
