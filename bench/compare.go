package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json compare needs: each end-to-end
// metric's direction and regression bound.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadSpec reads BENCHMARK.json from the working directory, the
// repository root when run through run.sh.
func loadSpec() (*spec, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// benchFile is a committed BENCH_<n>.json: several result sets of one
// commit, plus a traced run.
type benchFile struct {
	Sets []*resultSet `json:"sets"`
}

// readBenchFile returns the first two result sets of a BENCH file.
func readBenchFile(path string) (*resultSet, *resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(bf.Sets) < 2 {
		return nil, nil, fmt.Errorf("%s: want a BENCH file with two result sets", path)
	}
	return bf.Sets[0], bf.Sets[1], nil
}

// readSide reads one side of a comparison: a result set, or a
// comma-separated list of them merged into one whose samples are the
// runs' medians.
func readSide(arg string) (*resultSet, error) {
	paths := strings.Split(arg, ",")
	if len(paths) == 1 {
		return readResultSet(paths[0])
	}
	merged := &resultSet{Workloads: map[string]*workloadResult{}}
	for _, p := range paths {
		rs, err := readResultSet(p)
		if err != nil {
			return nil, err
		}
		for name, wr := range rs.Workloads {
			mw := merged.Workloads[name]
			if mw == nil {
				mw = &workloadResult{Metrics: map[string]stat{}}
				merged.Workloads[name] = mw
			}
			for k, st := range wr.Metrics {
				mw.Metrics[k] = summarize(st.Unit, append(mw.Metrics[k].Samples, st.Median))
			}
		}
	}
	return merged, nil
}

func readResultSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

// Verdicts of one metric on one workload.
const (
	verdictImproved   = "improved"
	verdictWorse      = "worse"
	verdictWithin     = "within-bound"
	verdictUnresolved = "unresolved"
)

// minPairs and winShare are the bar a gain must clear: at least ten
// base/head pairs, with head ahead in nine tenths of them.
const (
	minPairs = 10
	winShare = 0.9
)

// verdict judges head against base for one metric. better is "lower" or
// "higher"; bound is the share of base's median by which head may be
// worse. A pair is sample i of each side, and the two must share their
// inputs (see compareMain). A gain needs minPairs pairs, a win in winShare
// of them, and a median difference beyond base's quartile spread. The
// run-to-run spread is the quartile distance over the median of the pairs'
// ratios, which takes each input's own cost out; where it exceeds the
// bound, only a head that beats every base sample is resolved.
func verdict(base, head []float64, better string, bound float64) string {
	mb, mh := median(base), median(head)
	q1, _, q3 := quartiles(base)
	sign := 1.0 // positive diff = head better
	if better == "lower" {
		sign = -1
	}
	diff := sign * (mh - mb)
	pairs, wins := min(len(base), len(head)), 0
	ratios := make([]float64, pairs)
	for i := range ratios {
		if sign*(head[i]-base[i]) > 0 {
			wins++
		}
		ratios[i] = head[i] / base[i]
	}
	if pairs >= minPairs && float64(wins) >= winShare*float64(pairs) && diff > q3-q1 {
		return verdictImproved
	}
	if r1, rm, r3 := quartiles(ratios); (r3-r1)/rm > bound {
		hb, lb := sorted(head), sorted(base)
		allBetter := hb[len(hb)-1] < lb[0]
		if better == "higher" {
			allBetter = hb[0] > lb[len(lb)-1]
		}
		if !allBetter {
			return verdictUnresolved
		}
	}
	if -diff > bound*math.Abs(mb) {
		return verdictWorse
	}
	return verdictWithin
}

// compareMain is `bench compare BASE HEAD` or `bench compare BENCH_n.json`.
// BASE and HEAD are each a result set written by -o, whose samples pair up
// pass by pass (run both with the same -seed, so pass k of each solves the
// same instance), or a comma-separated list of result sets, one per run,
// whose medians pair up run by run (give the runs of a pair the same seed
// and alternate which side runs first). It prints one row per workload ×
// end-to-end metric and exits 1 if any metric got worse.
//
// A BENCH file alone compares its two baseline sets, two runs of one
// commit, and is a check of the benchmark itself: it also exits 1 if a
// metric is missing or reads as improved. An unresolved row does not fail
// it; bench/README.md says which rows the committed baseline leaves
// unresolved, and why.
func compareMain(args []string, w io.Writer) int {
	var base, head *resultSet
	var err error
	baseline := len(args) == 1
	switch len(args) {
	case 1:
		base, head, err = readBenchFile(args[0])
	case 2:
		if base, err = readSide(args[0]); err == nil {
			head, err = readSide(args[1])
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: bench compare BASE HEAD | bench compare BENCH_n.json")
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
		return 2
	}
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: BENCHMARK.json: %v\n", err)
		return 2
	}
	var names []string
	for name := range base.Workloads {
		if head.Workloads[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-14s %-14s %-5s %12s %12s %8s %6s  %s\n", "workload", "metric", "unit", "base", "head", "change", "bound", "verdict")
	fail := false
	for _, name := range names {
		bw, hw := base.Workloads[name], head.Workloads[name]
		for _, m := range sp.EndToEnd {
			bs, ok1 := bw.Metrics[m.Name]
			hs, ok2 := hw.Metrics[m.Name]
			if !ok1 || !ok2 || bs.N == 0 || hs.N == 0 {
				fail = fail || baseline
				fmt.Fprintf(w, "%-14s %-14s %-5s %12s %12s %8s %6.2f  %s\n", name, m.Name, m.Unit, "-", "-", "-", m.Bound, "missing")
				continue
			}
			v := verdict(bs.Samples, hs.Samples, m.Better, m.Bound)
			fail = fail || v == verdictWorse || (baseline && v == verdictImproved)
			fmt.Fprintf(w, "%-14s %-14s %-5s %12.6g %12.6g %+7.1f%% %6.2f  %s\n", name, m.Name, m.Unit,
				bs.Median, hs.Median, 100*(hs.Median-bs.Median)/bs.Median, m.Bound, v)
		}
	}
	if fail {
		return 1
	}
	return 0
}
