package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"interstitial/internal/obs"
)

// encodeSchedule is the schedule's canonical byte form.
func encodeSchedule(a []arrival) []byte {
	buf := make([]byte, 0, len(a)*20)
	for _, x := range a {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(x.at))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(x.step))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(x.key))
	}
	return buf
}

func TestScheduleDeterministic(t *testing.T) {
	a, b := encodeSchedule(schedule(7, ladder)), encodeSchedule(schedule(7, ladder))
	if !bytes.Equal(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if bytes.Equal(a, encodeSchedule(schedule(8, ladder))) {
		t.Fatal("different seeds gave the same schedule")
	}
	s := schedule(7, ladder)
	perStep := make([]int, len(ladder))
	var end time.Duration
	for i, x := range s {
		if i > 0 && x.at < s[i-1].at {
			t.Fatalf("arrival %d at %v before %v", i, x.at, s[i-1].at)
		}
		if x.key < 0 || x.key >= advisorSizes*len(advisorMachines) {
			t.Fatalf("key %d out of range", x.key)
		}
		perStep[x.step]++
	}
	for i, st := range ladder {
		end += st.dur
		if want := int(st.rps * st.dur.Seconds()); perStep[i] != want {
			t.Errorf("step %d: %d arrivals, want %d", i, perStep[i], want)
		}
	}
	if s[len(s)-1].at >= end {
		t.Errorf("last arrival %v past the ladder's end %v", s[len(s)-1].at, end)
	}
}

// okHandler answers every request at once with a plan.
var okHandler = http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
	w.Write([]byte(`{"degraded":false,"text":"plan"}`))
})

func evenly(n int, gap time.Duration) []arrival {
	s := make([]arrival, n)
	for i := range s {
		s[i] = arrival{at: time.Duration(i) * gap, key: i}
	}
	return s
}

// TestOpenLoopTimesFromDueTime checks the generator does not hide stalls
// (coordinated omission): a request is timed from when it was due, so
// time spent queued behind a stalled server, or waiting for a stalled
// generator to send it, counts against it.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 150 * time.Millisecond
	const gap = 10 * time.Millisecond
	const slack = 5 * time.Millisecond
	sched := evenly(6, gap)

	t.Run("server", func(t *testing.T) {
		// One request at a time, and the first holds the server for the
		// stall: every later request waits until it ends.
		var mu sync.Mutex
		h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			defer mu.Unlock()
			if strings.HasSuffix(r.URL.RawQuery, "k=0") {
				time.Sleep(stall)
			}
			okHandler(w, r)
		})
		outs := runOpenLoop(h, sched, func(k int) string { return "/plan?k=" + string(rune('0'+k)) })
		for i, o := range outs {
			if o.late > 2*gap {
				t.Errorf("request %d sent %v late: the generator waited for the server", i, o.late)
			}
			if want := stall - sched[i].at - slack; o.lat < want {
				t.Errorf("request %d latency %v, want at least %v", i, o.lat, want)
			}
		}
	})

	t.Run("generator", func(t *testing.T) {
		// The generator itself stalls while preparing the first request:
		// the rest go out late, and their latency includes the wait.
		query := func(k int) string {
			if k == 0 {
				time.Sleep(stall)
			}
			return "/plan"
		}
		outs := runOpenLoop(okHandler, sched, query)
		for i, o := range outs[1:] {
			i++
			want := stall - sched[i].at - slack
			if o.late < want || o.lat < want {
				t.Errorf("request %d: late %v latency %v, want both at least %v", i, o.late, o.lat, want)
			}
		}
	})
}

// TestColdQuestionsMissTheLadder checks that no cold question is one the
// ladder can ask, so the ladder never finds a cold plan in the cache.
func TestColdQuestionsMissTheLadder(t *testing.T) {
	ladderQs := map[string]bool{}
	for k := 0; k < advisorSizes*len(advisorMachines); k++ {
		ladderQs[keyQuery(k)] = true
	}
	for seed := int64(-3); seed <= 20; seed++ {
		for i := 0; i < coldPlans; i++ {
			if q := coldQuery(seed, i); ladderQs[q] {
				t.Errorf("seed %d: cold question %d is a ladder question: %s", seed, i, q)
			}
		}
	}
}

func TestTailIndex(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		idx  int
		got  float64
		ok   bool
		desc string
	}{
		{1000, 0.95, 949, 0.95, true, "enough samples: the p95 itself"},
		{200, 0.95, 189, 0.95, true, "exactly ten beyond the p95"},
		{100, 0.95, 89, 0.90, true, "lowered to keep ten beyond"},
		{11, 0.95, 0, 1.0 / 11, true, "the smallest count with a tail"},
		{10, 0.95, 0, 0, false, "too few samples"},
		{1000, 0.99, 989, 0.99, true, "p99 with exactly ten beyond"},
	} {
		idx, got, ok := tailIndex(c.n, c.p)
		if ok != c.ok || (ok && (idx != c.idx || math.Abs(got-c.got) > 1e-12)) {
			t.Errorf("%s: tailIndex(%d, %v) = %d, %v, %v; want %d, %v, %v", c.desc, c.n, c.p, idx, got, ok, c.idx, c.got, c.ok)
		}
		if ok && c.n-idx-1 < minBeyond {
			t.Errorf("%s: only %d samples beyond", c.desc, c.n-idx-1)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the rule the spread bounds use.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, [3]float64{2, 4, 7}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestFoldTracesSumsToOne(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	shares, err := foldTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	// 1000ms of samples in total; see the canned file.
	for pkg, want := range map[string]float64{
		"profile":      0.4,  // memmove counts against its innermost program frame
		"sim":          0.2,  // the benchmark's frame below does not take it
		"gc":           0.2,  // a background mark worker and an allocation assist
		"bench":        0.05, // standard-library work under the benchmark's code
		"interstitial": 0.05, // the root package, inlined frame
		"runtime":      0.06,
		"other":        0.04, // a package the bucket list does not know
	} {
		if math.Abs(shares[pkg]-want) > 1e-9 {
			t.Errorf("share of %s = %v, want %v", pkg, shares[pkg], want)
		}
	}
}

// classHandler answers by the key in the query: ok, shed, degraded or a
// server error, in turn.
var classHandler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	switch r.URL.RawQuery[len(r.URL.RawQuery)-1] % 4 {
	case 0:
		okHandler(w, r)
	case 1:
		w.WriteHeader(http.StatusTooManyRequests)
	case 2:
		w.Write([]byte(`{"degraded":true,"text":"fallback"}`))
	default:
		w.WriteHeader(http.StatusInternalServerError)
	}
})

func TestAccountingBalances(t *testing.T) {
	sched := evenly(40, time.Millisecond)
	for i := range sched {
		sched[i].step = i % 2
	}
	steps := []step{{10, time.Second}, {40, time.Second}}
	outs := runOpenLoop(classHandler, sched, func(k int) string { return "/plan?k=" + string(rune('0'+k%4)) })
	res := tally(sched, outs, steps)
	var total stepResult
	for _, r := range res {
		if r.Offered != r.OK+r.Shed+r.Degraded+r.Errors {
			t.Errorf("step %v rps: offered %d != %d+%d+%d+%d", r.RPS, r.Offered, r.OK, r.Shed, r.Degraded, r.Errors)
		}
		total.Offered += r.Offered
		total.OK += r.OK
		total.Shed += r.Shed
		total.Degraded += r.Degraded
		total.Errors += r.Errors
	}
	if total.Offered != 40 || total.OK != 10 || total.Shed != 10 || total.Degraded != 10 || total.Errors != 10 {
		t.Fatalf("tally %+v, want 40 offered and 10 of each class", total)
	}

	// The server's books: requests, sheds and degraded answers must match
	// what the generator saw, and every request must be filed once.
	snap := func(requests, shed, degraded, hits, coalesced, admitted uint64) obs.Snapshot {
		reg := obs.NewRegistry()
		reg.Counter("advisor_requests_total", "").Add(requests)
		reg.Counter("advisor_shed_total", "").Add(shed)
		reg.Counter("advisor_degraded_total", "").Add(degraded)
		reg.Counter("advisor_cache_hits_total", "").Add(hits)
		reg.Counter("advisor_coalesced_total", "").Add(coalesced)
		reg.Counter("advisor_admitted_total", "").Add(admitted)
		return reg.Snapshot()
	}
	zero := snap(0, 0, 0, 0, 0, 0)
	if err := checkAccounting(res, zero, snap(40, 10, 10, 12, 3, 15)); err != nil {
		t.Errorf("balanced books rejected: %v", err)
	}
	if err := checkAccounting(res, zero, snap(41, 10, 10, 12, 3, 16)); err == nil {
		t.Error("a request the generator never offered went unnoticed")
	}
	if err := checkAccounting(res, zero, snap(40, 10, 10, 12, 3, 14)); err == nil {
		t.Error("an unfiled request went unnoticed")
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{90, 91, 89, 90, 92, 88, 90, 91, 89, 90}
	slower := []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}
	// Inputs that differ in cost: wide spread, but each pair shares its
	// input, so the pairs agree.
	varied := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	tracking := make([]float64, len(varied))
	for i, x := range varied {
		tracking[i] = x * 1.02
	}
	// The same values, but paired at random: the pairs disagree.
	shuffled := []float64{130, 70, 110, 60, 90, 140, 100, 120, 80, 100}
	for _, c := range []struct {
		desc       string
		base, head []float64
		better     string
		want       string
	}{
		{"ten clean wins", base, faster, "lower", verdictImproved},
		{"too few pairs to claim a gain", base[:5], faster[:5], "lower", verdictWithin},
		{"same distribution", base, base, "lower", verdictWithin},
		{"worse beyond the bound", base, slower, "lower", verdictWorse},
		{"higher is better", slower, base, "higher", verdictWorse},
		{"costly inputs, steady pairs", varied, tracking, "lower", verdictWithin},
		{"pairs spread wider than the bound", varied, shuffled, "lower", verdictUnresolved},
	} {
		if got := verdict(c.base, c.head, c.better, 0.1); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.desc, got, c.want)
		}
	}
}

// TestMetricsMatchSpec keeps the benchmark's metric catalog and workload
// list in step with BENCHMARK.json, which names them to whoever runs the
// benchmark.
func TestMetricsMatchSpec(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s struct {
		Command   []string `json:"command"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, s.Workloads[i].Name, w.name)
		}
	}
	if len(s.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark %d", len(s.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		e := s.EndToEnd[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better || e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, benchmark %+v", i, e, d)
		}
	}
	layers := perLayerMetrics()
	if len(s.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark %d", len(s.PerLayer), len(layers))
	}
	for i, d := range layers {
		if e := s.PerLayer[i]; e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %+v", i, e, d)
		}
	}
}
