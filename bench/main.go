// Command bench is the repository's end-to-end benchmark. It runs four
// workloads against the program as a library — the paper suite, a
// 250k-job stream, a 64-shard fleet and an open-loop advisord — checks
// every output, and prints each metric with its unit as a median,
// quartiles and sample count.
//
// Usage (from the repository root; bench/run.sh builds and runs it):
//
//	bench [-workload name] [-seed N] [-reps N | -seconds S] [-trace 0|1|dir] [-o out.json]
//	bench compare base.json head.json
//	bench compare BENCH_n.json
//
// Every pass of a workload runs in a child process, which isolates heap
// and GC state and gives an exact peak RSS, and solves its own problem
// instance drawn from the seed. Passes run one at a time with two
// workers. With -seconds the parent keeps starting passes while the
// next one fits in the time budget; otherwise it runs -reps of them. With
// -trace it alternates them with one-worker passes, ends with one traced
// pass (CPU profile, spans, boundary timers) and reports the per-layer
// metrics. The last line of standard output is a JSON object: {"correct",
// "attempted", "failed", "metrics"}.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultTraceDir is where `-trace 1` writes profiles and spans; it is
// inside the build directory the repository ignores.
const defaultTraceDir = ".bench_build/trace"

// runDeadline bounds a -seconds run, children included, below the three
// minutes a run may take.
const runDeadline = 170 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	name := flag.String("workload", "", "run only this workload (default: every workload)")
	seed := flag.Int64("seed", 1, "seed the workload inputs are drawn from")
	seconds := flag.Int("seconds", 0, "measure each workload for about this many seconds (0: run -reps passes)")
	reps := flag.Int("reps", 5, "passes (pairs of passes with -trace) per workload, when -seconds is 0")
	trace := flag.String("trace", "", `per-layer run: "1" writes profiles and spans to `+defaultTraceDir+`, "0" or "" is off, anything else names the directory`)
	out := flag.String("o", "", "also write the full result set as JSON to this file")
	child := flag.String("child", "", "internal: run one pass of this kind (par or ser) in this process")
	flag.Parse()

	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
		flag.Usage()
		os.Exit(2)
	}
	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			usage("unknown workload %q", *name)
		}
		selected = []workload{w}
	}
	switch {
	case *seconds < 0:
		usage("-seconds %d is negative", *seconds)
	case *seconds == 0 && *reps < 1:
		usage("-reps %d is not positive", *reps)
	case *child != "" && *child != kindPar && *child != kindSer:
		usage("-child %q is not par or ser", *child)
	case flag.NArg() > 0:
		usage("unexpected arguments %q", flag.Args())
	}
	traceDir := *trace
	switch traceDir {
	case "0":
		traceDir = ""
	case "1":
		traceDir = defaultTraceDir
	}

	if *child != "" {
		if len(selected) != 1 {
			usage("-child needs -workload")
		}
		if err := runChild(selected[0], *seed, *child, traceDir); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if traceDir != "" {
		abs, err := filepath.Abs(traceDir)
		if err == nil {
			err = os.MkdirAll(abs, 0o755)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: trace directory: %v\n", err)
			os.Exit(1)
		}
		traceDir = abs
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}

	ctx := context.Background()
	if *seconds > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, runDeadline)
		defer cancel()
	}
	r := &runner{exe: exe, seed: *seed, reps: *reps, budget: time.Duration(*seconds) * time.Second, traceDir: traceDir}
	set := &resultSet{Seed: *seed, Reps: *reps, Seconds: *seconds, Traced: traceDir != "", Workloads: map[string]*workloadResult{}}
	if *seconds > 0 {
		set.Reps = 0
	}
	ok := true
	for _, w := range selected {
		wr := r.measure(ctx, w)
		set.Workloads[w.name] = wr
		ok = ok && wr.Correct
		writeTable(os.Stdout, w.name, wr)
	}
	if *out != "" {
		set.Env = stampEnv()
		if err := writeJSONFile(*out, set); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(set.summaryLine(traceDir != "")); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// runner spawns and schedules the passes of a run.
type runner struct {
	exe      string
	seed     int64
	reps     int
	budget   time.Duration // 0: run reps passes of each kind
	traceDir string
}

// instanceSeed is the seed of a run's k-th problem instance. Each pair of
// passes (two workers, one worker) solves its own instance, so a run's
// medians average over several instances drawn from the run's seed
// instead of resting on one; instance 0 is the seed itself.
func instanceSeed(seed int64, k int) int64 { return seed + int64(k)*1_000_003 }

// spawn runs one pass of w on the given instance as a child process and
// collects its result, set-up time and peak RSS.
func (r *runner) spawn(ctx context.Context, w workload, seed int64, kind string, traced bool) (passResult, error) {
	args := []string{"-child", kind, "-workload", w.name, "-seed", fmt.Sprint(seed)}
	if traced {
		args = append(args, "-trace", r.traceDir)
	}
	cmd := exec.CommandContext(ctx, r.exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	start := time.Now()
	err := cmd.Run()
	elapsed := time.Since(start)
	var res passResult
	if err != nil {
		return res, fmt.Errorf("%s %s pass: %w", w.name, kind, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("%s %s pass: result: %w", w.name, kind, err)
	}
	res.SetupS = float64(res.ReadyNs-start.UnixNano()) / 1e9
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.RSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	res.Elapsed = elapsed.Seconds()
	return res, nil
}

// measure runs the passes of one workload and aggregates them.
func (r *runner) measure(ctx context.Context, w workload) *workloadResult {
	// Plain runs measure two-worker passes only; a traced run alternates
	// them with one-worker passes for wall_serial_s and speedup.
	kinds := []string{kindPar}
	if r.traceDir != "" {
		kinds = []string{kindPar, kindSer}
	}
	start := time.Now()
	est := map[string]float64{}
	var passes []passResult
	var errs []string
	for i := 0; ; i++ {
		kind := kinds[i%len(kinds)]
		if r.budget == 0 {
			if i >= r.reps*len(kinds) {
				break
			}
		} else if i >= len(kinds) {
			need := est[kind]
			if r.traceDir != "" {
				need += 1.5 * est[kindPar] // room for the traced pass
			}
			if time.Since(start).Seconds()+need > r.budget.Seconds() {
				break
			}
		}
		p, err := r.spawn(ctx, w, instanceSeed(r.seed, i/len(kinds)), kind, false)
		if err != nil {
			errs = append(errs, err.Error())
			break
		}
		est[kind] = math.Max(est[kind], p.Elapsed)
		passes = append(passes, p)
	}
	var traced *passResult
	if r.traceDir != "" && len(errs) == 0 {
		p, err := r.spawn(ctx, w, r.seed, kindPar, true)
		if err != nil {
			errs = append(errs, err.Error())
		} else {
			traced = &p
		}
	}
	wr := aggregate(passes, traced)
	wr.Errors = append(errs, wr.Errors...)
	wr.Correct = len(wr.Errors) == 0
	return wr
}

// workloadResult is one workload's outcome in a run.
type workloadResult struct {
	Correct   bool            `json:"correct"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Errors    []string        `json:"errors,omitempty"`
	Metrics   map[string]stat `json:"metrics"`
	Passes    []passResult    `json:"passes"`
}

// aggregate turns a workload's passes into its metrics and verdict.
func aggregate(passes []passResult, traced *passResult) *workloadResult {
	wr := &workloadResult{Metrics: map[string]stat{}, Passes: passes}
	var par, ser []passResult
	var setups []float64
	digests := map[int64]map[string]bool{} // per instance
	all := passes
	if traced != nil {
		all = append(append([]passResult(nil), passes...), *traced)
		wr.Passes = all
	}
	for _, p := range all {
		wr.Attempted += p.Ops
		wr.Failed += p.Failed
		for _, e := range p.Errors {
			wr.Errors = append(wr.Errors, fmt.Sprintf("%s pass: %s", p.Kind, e))
		}
		if p.Digest != "" {
			if digests[p.Seed] == nil {
				digests[p.Seed] = map[string]bool{}
			}
			digests[p.Seed][p.Digest] = true
		}
		if p.Traced {
			continue
		}
		setups = append(setups, p.SetupS)
		if p.Kind == kindPar {
			par = append(par, p)
		} else {
			ser = append(ser, p)
		}
	}
	for seed, ds := range digests {
		if len(ds) > 1 {
			wr.Failed++
			wr.Errors = append(wr.Errors, fmt.Sprintf("passes on seed %d disagree on the output digest: %v", seed, keys(ds)))
		}
	}
	if len(par) == 0 {
		wr.Errors = append(wr.Errors, "no completed two-worker pass")
		return wr
	}
	m := wr.Metrics
	m["setup_s"] = summarize("s", setups)
	var work, rss []float64
	for _, p := range par {
		work = append(work, ratio(p.Work, p.WorkSecs))
		rss = append(rss, p.RSSMB)
	}
	m["wall_s"] = summarize("s", walls(par))
	m["work_per_s"] = summarize("1/s", work)
	m["peak_rss_mb"] = summarize("MB", rss)
	if len(ser) > 0 {
		m["wall_serial_s"] = summarize("s", walls(ser))
		var speedups []float64
		for k := 0; k < min(len(par), len(ser)); k++ {
			speedups = append(speedups, ser[k].Wall/par[k].Wall)
		}
		m["speedup"] = summarize("x", speedups)
	}

	layers := map[string][]float64{}
	var steps [][]stepResult
	for _, p := range par {
		for k, v := range p.Layers {
			layers[k] = append(layers[k], v)
		}
		if p.Steps != nil {
			steps = append(steps, p.Steps)
		}
	}
	if steps != nil {
		for k, v := range ladderMetrics(poolSteps(steps)) {
			layers[k] = []float64{v}
		}
		for i := range wr.Passes {
			wr.Passes[i].Steps = nil // pooled above; too bulky to keep per pass
		}
	}
	if traced != nil {
		for k, v := range traced.Layers {
			if _, untraced := layers[k]; !untraced {
				layers[k] = []float64{v}
			}
		}
		// Against the plain passes of the same instance: instances differ
		// in cost more than tracing does.
		var same []float64
		for _, p := range par {
			if p.Seed == traced.Seed {
				same = append(same, p.Wall)
			}
		}
		if len(same) > 0 {
			layers["trace_overhead"] = []float64{traced.Wall/median(same) - 1}
		}
	}
	for k, v := range layers {
		if finite := slices.DeleteFunc(v, func(x float64) bool { return math.IsNaN(x) || math.IsInf(x, 0) }); len(finite) > 0 {
			m[k] = summarize(unitOf(k), finite) // a tail with too few samples is NaN
		}
	}
	return wr
}

func walls(ps []passResult) []float64 {
	var out []float64
	for _, p := range ps {
		out = append(out, p.Wall)
	}
	return out
}

func keys(set map[string]bool) []string {
	var out []string
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// resultSet is a whole run: every measured workload plus the environment
// it ran in. `-o` writes it; `compare` reads two of them.
type resultSet struct {
	Env       *env                       `json:"env,omitempty"`
	Seed      int64                      `json:"seed"`
	Reps      int                        `json:"reps,omitempty"`
	Seconds   int                        `json:"seconds,omitempty"`
	Traced    bool                       `json:"traced,omitempty"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// summaryMetric is one metric of the last output line.
type summaryMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summaryLine is the run's last output line: every end-to-end metric, or
// with tracing every per-layer metric (0 where the workload does not
// exercise the layer). With several workloads each name is prefixed by
// its workload.
func (s *resultSet) summaryLine(perLayer bool) map[string]any {
	defs := endToEnd
	if perLayer {
		defs = perLayerMetrics()
	}
	correct := true
	attempted, failed := 0, 0
	metrics := map[string]summaryMetric{}
	for name, wr := range s.Workloads {
		correct = correct && wr.Correct
		attempted += wr.Attempted
		failed += wr.Failed
		for _, d := range defs {
			v := wr.Metrics[d.Name].Median
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			key := d.Name
			if len(s.Workloads) > 1 {
				key = name + "/" + d.Name
			}
			metrics[key] = summaryMetric{Value: v, Unit: d.Unit}
		}
	}
	return map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
}

// writeTable prints one workload's metrics, end-to-end first.
func writeTable(w io.Writer, name string, wr *workloadResult) {
	status := "correct"
	if !wr.Correct {
		status = "INCORRECT"
	}
	fmt.Fprintf(w, "== %s: %s, %d ops attempted, %d failed\n", name, status, wr.Attempted, wr.Failed)
	for _, e := range wr.Errors {
		fmt.Fprintf(w, "   error: %s\n", e)
	}
	fmt.Fprintf(w, "   %-28s %-6s %14s %14s %14s %4s\n", "metric", "unit", "median", "q1", "q3", "n")
	seen := map[string]bool{}
	row := func(k string) {
		st, ok := wr.Metrics[k]
		if !ok || seen[k] {
			return
		}
		seen[k] = true
		fmt.Fprintf(w, "   %-28s %-6s %14.6g %14.6g %14.6g %4d\n", k, st.Unit, st.Median, st.Q1, st.Q3, st.N)
	}
	for _, d := range endToEnd {
		row(d.Name)
	}
	var rest []string
	for k := range wr.Metrics {
		rest = append(rest, k)
	}
	sort.Strings(rest)
	for _, k := range rest {
		row(k)
	}
}

// env stamps a result set with what it ran on.
type env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Revision   string `json:"vcs_revision"`
	Modified   bool   `json:"vcs_modified"`
}

func stampEnv() *env {
	e := &env{GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: procs, NumCPU: runtime.NumCPU(), CPUModel: "unknown", Revision: "unknown"}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Revision = s.Value
			case "vcs.modified":
				e.Modified = s.Value == "true"
			}
		}
	}
	return e
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
