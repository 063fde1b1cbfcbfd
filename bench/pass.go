package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"interstitial/internal/span"
	"interstitial/internal/tracing"
)

// Pass kinds: a "par" pass runs the problem with two workers, a "ser" pass
// runs the same problem with one.
const (
	kindPar = "par"
	kindSer = "ser"
)

// procs is the pinned core count: both sides of every comparison run with
// the same GOMAXPROCS, whatever the host has.
var procs = min(2, runtime.NumCPU())

// passResult is what one child process reports about its pass.
type passResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"` // the instance this pass solved
	Kind     string `json:"kind"`
	Traced   bool   `json:"traced,omitempty"`
	// ReadyNs is the wall clock (Unix ns) at which set-up ended and the
	// timed phase began; the parent subtracts its spawn instant.
	ReadyNs int64 `json:"ready_unix_ns"`
	// Wall is the timed phase's wall time in seconds; for advisor-open, the
	// median cold plan's.
	Wall float64 `json:"wall_s"`
	// Work units completed in WorkSecs seconds of the timed phase.
	Work     float64 `json:"work"`
	WorkSecs float64 `json:"work_secs"`
	// Layers holds the per-layer readings of this pass.
	Layers map[string]float64 `json:"layers"`
	// Steps is the advisor ladder's raw record (par passes only).
	Steps  []stepResult `json:"steps,omitempty"`
	Digest string       `json:"digest,omitempty"`
	Ops    int          `json:"ops"`
	Failed int          `json:"failed"`
	Errors []string     `json:"errors,omitempty"`

	// Filled in by the parent.
	SetupS  float64 `json:"setup_s"`
	RSSMB   float64 `json:"rss_mb"`
	Elapsed float64 `json:"elapsed_s"`
}

// passCtx is a running pass: its inputs, the clock of its timed phase, and,
// on a traced pass, the span recorder and CPU profile.
type passCtx struct {
	workload string
	seed     int64
	kind     string
	traceDir string // non-empty on a traced pass

	rec  *span.Recorder // non-nil on a traced pass, from the start
	root *span.Active
	t0   time.Time
	gc0  runtime.MemStats
	prof *os.File
	res  *passResult
}

func (pc *passCtx) serial() bool { return pc.kind == kindSer }
func (pc *passCtx) traced() bool { return pc.traceDir != "" }

// failf records a correctness failure.
func (pc *passCtx) failf(format string, args ...any) {
	pc.res.Errors = append(pc.res.Errors, fmt.Sprintf(format, args...))
}

// begin ends set-up, which ran on procs cores, and starts the timed phase
// on the given number of cores.
func (pc *passCtx) begin(cores int) {
	runtime.GOMAXPROCS(cores)
	runtime.ReadMemStats(&pc.gc0)
	if pc.traced() {
		f, err := os.Create(filepath.Join(pc.traceDir, pc.workload+".cpu.pprof"))
		if err != nil {
			pc.failf("cpu profile: %v", err)
		} else if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			pc.failf("cpu profile: %v", err)
		} else {
			pc.prof = f
		}
		// A stream of its own keeps the root's ID clear of the program's
		// roots, which number their streams from 0 under the same seed.
		pc.root = pc.rec.Root("bench."+pc.workload, pc.seed, 1<<62, 0)
	}
	pc.res.ReadyNs = time.Now().UnixNano()
	pc.t0 = time.Now()
}

// micros is the span clock: microseconds into the timed phase.
func (pc *passCtx) micros() int64 { return time.Since(pc.t0).Microseconds() }

// span opens a benchmark span around one call into the program (nil, and
// free, on an untraced pass).
func (pc *passCtx) span(name string, index uint64) *span.Active {
	return pc.root.Child(name, index, pc.micros())
}

// end closes the timed phase and returns its wall time.
func (pc *passCtx) end() time.Duration {
	wall := time.Since(pc.t0)
	pc.root.End(pc.micros())
	if pc.prof != nil {
		pprof.StopCPUProfile()
		if err := pc.prof.Close(); err != nil {
			pc.failf("cpu profile: %v", err)
		}
	}
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	runtime.GOMAXPROCS(procs)
	pc.res.Layers["gc.cycles"] = float64(gc1.NumGC - pc.gc0.NumGC)
	pc.res.Layers["gc.pause_ms"] = float64(gc1.PauseTotalNs-pc.gc0.PauseTotalNs) / 1e6
	return wall
}

// finishTrace folds the traced pass's CPU profile into cpu_share.* and
// writes its spans as JSONL, checked with the same validator as
// `tracescope -check`.
func (pc *passCtx) finishTrace() {
	if pc.prof != nil {
		shares, err := cpuShares(pc.prof.Name())
		if err != nil {
			pc.failf("cpu profile: %v", err)
		}
		for pkg, s := range shares {
			pc.res.Layers["cpu_share."+pkg] = s
		}
	}
	path := filepath.Join(pc.traceDir, pc.workload+".spans.jsonl")
	if err := writeSpans(path, pc.rec.Spans()); err != nil {
		pc.failf("spans: %v", err)
	}
}

func writeSpans(path string, spans []span.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracing.WriteSpansJSONL(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	f, err = os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, _, err = tracing.ReadJSONLAll(f)
	return err
}

// runChild runs one pass of w in this process and prints its result as a
// JSON line on stdout.
func runChild(w workload, seed int64, kind, traceDir string) error {
	runtime.GOMAXPROCS(procs)
	res := &passResult{Workload: w.name, Seed: seed, Kind: kind, Traced: traceDir != "", Layers: map[string]float64{}}
	pc := &passCtx{workload: w.name, seed: seed, kind: kind, traceDir: traceDir, res: res}
	if pc.traced() {
		pc.rec = span.NewRecorder()
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				pc.failf("panic: %v", r)
			}
		}()
		w.pass(pc)
	}()
	if pc.traced() {
		pc.finishTrace()
	}
	if len(res.Errors) > 0 && res.Failed == 0 {
		res.Failed = 1 // a wrong output fails at least the operation that made it
	}
	for k, v := range res.Layers {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			delete(res.Layers, k) // too few samples for this reading
		}
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}
