// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-seed N] [-scale F] [-reps N] [-samples N] [-workers N]
//	            [-fleet N] [-route policy] [-timeout D] [-csv dir]
//	            [-metrics] [-manifest file] [-pprof addr]
//	            [-trace file [-trace-sample N]]
//	            [names...]
//
// Experiments run concurrently on a worker pool bounded by -workers
// (default: GOMAXPROCS); output is rendered in evaluation order and is
// byte-identical for every worker count.
//
// -metrics dumps the observability layer to stderr after the run: a
// per-experiment wall-time/cell-count table and the full metric registry
// (kernel event counts, backfill fills, singleflight hits, pool
// occupancy) in Prometheus text format. -pprof serves net/http/pprof
// and the registry in Prometheus text at /metrics on the given address
// for profiling or scraping a long run, e.g. `-pprof localhost:6060`.
// Both are observation-only: the rendered tables on stdout are
// byte-identical with or without them.
//
// -trace records one trace of the run and writes it to one JSONL file on
// exit: every scheduler decision of every simulation of a job log the
// run performs (each baseline and continual run and every experiment's
// scenarios; federation shards record only the fleet's route and steal
// events, and scale-stream's streamed runs are not traced), and the
// run's span tree — the run, each experiment, every fan-out cell, the
// shared sweeps, and (for the federation study) each fleet's epochs and
// shard advances. The file holds the run and event lines, then the span
// lines: the schema cmd/tracescope validates and reports on.
// -trace-sample N bounds memory on long runs by keeping the first N/2
// and last ~N/2 events per run; use it for "extensions", which records
// 84 runs at -scale 0.05. Span IDs derive from the seed and all instants
// are logical or simulated time, so the file is byte-identical at any
// -workers. All of it is observation-only: stdout stays byte-identical.
//
// -manifest writes the run's provenance record as JSON: seed, scale,
// workers, config knobs, experiment list, the FNV-1a digest of the
// rendered tables, the toolchain version, and the final metrics
// snapshot — everything needed to reproduce and verify the output.
//
// -timeout bounds the whole run: when it expires, in-flight simulations
// abort cooperatively (within ~4096 kernel events), completed tables are
// still rendered, and the abandoned experiments are listed on stderr.
// Invalid flags (negative seed, nonpositive scale, unknown experiment
// names, ...) are rejected up front with exit status 2. -scale above 1
// grows the synthetic logs past paper size — mainly for the streaming
// scale-stream study, which stays O(active jobs) in memory at any scale;
// paper tables are only meaningful at -scale 1.
//
// With no names, every paper experiment runs in evaluation order. Use
// "ablations" for all beyond-the-paper studies, "extensions" for every
// extension including the methodology checks, or any names from:
//
//	table1 table2 table3 theoryfit figure2 table4 figure3 table5 table6
//	figure4 figure4-outages figure5 figure6 table7 table8ross table8limited
//	ablation-{estimates,backfill,burstiness,joblength,jobwidth,capsweep,preemption,
//	prediction} utilization-sweep validate-sampling seed-robustness correlations
//	scale-stream federation
//
// The federation study routes one interstitial stream across a fleet of
// simulated machines. -fleet restricts it to one fleet size and -route to
// one routing policy (random, round-robin, least-loaded, locality[:spread=N],
// work-stealing[:batch=N,victim=max|random]); by default it sweeps the
// whole policy x fleet-size grid. Its output is byte-identical at any
// -workers and ends each row with the retirement digest CI compares.
package main

import (
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"strings"
	"time"

	"interstitial/internal/experiments"
	"interstitial/internal/federation"
	"interstitial/internal/span"
	"interstitial/internal/tracing"
)

// usageError rejects bad flags before any work starts: message, usage,
// exit 2 (the conventional flag-error status).
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func main() {
	seed := flag.Int64("seed", 1, "random seed for all experiments")
	scale := flag.Float64("scale", 1.0, "workload scale: <1 shrinks, 1.0 = paper scale, >1 grows (streaming-scale runs)")
	reps := flag.Int("reps", 0, "random project starts per cell (default 20)")
	samples := flag.Int("samples", 0, "short-term windows sampled from continual runs (default 500)")
	workers := flag.Int("workers", 0, "parallelism across and within experiments (default GOMAXPROCS)")
	fleet := flag.Int("fleet", 0, "federation experiment: fleet size in machines (default: the size grid)")
	route := flag.String("route", "", "federation experiment: routing policy (default: every policy)")
	csvDir := flag.String("csv", "", "also write each experiment's data points as <dir>/<name>.csv")
	metrics := flag.Bool("metrics", false, "dump the metric registry and per-experiment timing to stderr after the run")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and /metrics on this address (e.g. localhost:6060)")
	timeout := flag.Duration("timeout", 0, "abort the run after this long, keeping completed tables (0 = no limit)")
	tracePath := flag.String("trace", "", "record every scheduler decision and the span tree, and write them to this file as JSONL")
	traceSample := flag.Int("trace-sample", 0, "max events kept per traced run, head/tail sampled (0 = keep all)")
	manifestPath := flag.String("manifest", "", "write the run's provenance manifest (seed, config, output digest, metrics) as JSON to this file")
	list := flag.Bool("list", false, "print the valid experiment names and exit")
	flag.Parse()
	switch {
	case *seed < 0:
		usageError("-seed %d is negative", *seed)
	case *scale <= 0:
		usageError("-scale %g is not positive", *scale)
	case *reps < 0:
		usageError("-reps %d is negative", *reps)
	case *samples < 0:
		usageError("-samples %d is negative", *samples)
	case *workers < 0:
		usageError("-workers %d is negative", *workers)
	case *fleet < 0:
		usageError("-fleet %d is negative", *fleet)
	case *timeout < 0:
		usageError("-timeout %v is negative", *timeout)
	case *traceSample < 0:
		usageError("-trace-sample %d is negative", *traceSample)
	case *traceSample > 0 && *tracePath == "":
		usageError("-trace-sample without -trace")
	}
	if *route != "" {
		if _, err := federation.ParsePolicy(*route); err != nil {
			usageError("-route: %v", err)
		}
	}
	if *list {
		for _, n := range experiments.AllNames() {
			fmt.Println(n)
		}
		return
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opts := experiments.Options{Seed: *seed, Scale: *scale, Reps: *reps, Samples: *samples,
		Workers: *workers, FleetSize: *fleet, Route: *route, Ctx: ctx}
	lab := experiments.NewLab(opts)
	reg := experiments.NewRegistry(lab)
	var collector *tracing.Collector
	var spanRec *span.Recorder
	if *tracePath != "" {
		collector = tracing.NewCollector(*traceSample)
		lab.SetTracing(collector)
		spanRec = span.NewRecorder()
		lab.SetSpans(spanRec)
	}

	if *pprofAddr != "" {
		// The default mux already has pprof (import above); /metrics
		// serves the live registry in Prometheus text format for scrapers.
		http.Handle("/metrics", lab.Metrics().Handler())
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: pprof server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "experiments: pprof+metrics on http://%s/debug/pprof http://%s/metrics\n",
			*pprofAddr, *pprofAddr)
	}

	names := flag.Args()
	switch {
	case len(names) == 0:
		names = experiments.PaperNames()
	case len(names) == 1 && names[0] == "ablations":
		names = nil
		for _, n := range experiments.ExtensionNames() {
			if strings.HasPrefix(n, "ablation-") {
				names = append(names, n)
			}
		}
	case len(names) == 1 && names[0] == "extensions":
		names = experiments.ExtensionNames()
	}

	valid := make(map[string]bool)
	for _, n := range experiments.AllNames() {
		valid[n] = true
	}
	for i, name := range names {
		names[i] = strings.ToLower(name)
		if !valid[names[i]] {
			usageError("unknown experiment %q (see -list)", name)
		}
	}
	// Compute every experiment concurrently (shared artifacts coalesce in
	// the Lab), then render in evaluation order so the output stream is
	// identical to a serial run.
	t0 := time.Now()
	results, report, err := reg.RunAll(names)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	// The manifest's digest folds exactly the reproducible output bytes:
	// the rendered tables and their name markers, not the wall-time line.
	digest := fnv.New64a()
	var out io.Writer = os.Stdout
	if *manifestPath != "" {
		out = io.MultiWriter(os.Stdout, digest)
	}
	for i, name := range names {
		if results[i] == nil {
			continue // failed or unfinished: accounted for in the report
		}
		if err := results[i].Render(out); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: rendering %s: %v\n", name, err)
			os.Exit(1)
		}
		if *csvDir != "" {
			if err := writeCSV(*csvDir, name, results[i]); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: csv %s: %v\n", name, err)
				os.Exit(1)
			}
		}
		fmt.Fprintf(out, "  [%s]\n\n", name)
	}
	fmt.Printf("  [%d/%d experiments in %.1fs]\n", len(report.Completed), len(names), time.Since(t0).Seconds())
	if !report.OK() {
		fmt.Fprintln(os.Stderr, "experiments: "+report.String())
		defer os.Exit(1)
	}

	if *metrics {
		fmt.Fprintf(os.Stderr, "\n=== experiment timing (elapsed %.1fs) ===\n", time.Since(t0).Seconds())
		if err := lab.Timings().WriteTable(os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: timing table: %v\n", err)
		}
		fmt.Fprintln(os.Stderr, "\n=== metrics ===")
		if err := lab.Metrics().Snapshot().WriteText(os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: metrics dump: %v\n", err)
		}
	}
	if *tracePath != "" {
		if err := writeFileWith(*tracePath, func(w io.Writer) error {
			return tracing.WriteJSONL(w, collector, spanRec.Spans())
		}); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: trace: %v\n", err)
			os.Exit(1)
		}
		emitted, dropped := collector.Totals()
		fmt.Fprintf(os.Stderr, "experiments: trace: %d runs, %d events emitted (%d dropped), %d spans -> %s\n",
			len(collector.Runs()), emitted, dropped, spanRec.Len(), *tracePath)
	}
	if *manifestPath != "" {
		o := lab.Options()
		m := span.NewManifest(o.Seed, o.Scale)
		m.Workers = o.Workers
		m.Set("reps", o.Reps).Set("samples", o.Samples)
		if o.FleetSize > 0 {
			m.Set("fleet", o.FleetSize)
		}
		if o.Route != "" {
			m.Set("route", o.Route)
		}
		m.Experiments = names
		m.SetDigest(digest.Sum64())
		snap := lab.Metrics().Snapshot()
		m.Metrics = &snap
		if err := writeFileWith(*manifestPath, m.WriteJSON); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: manifest: %v\n", err)
			os.Exit(1)
		}
	}
}

// writeFileWith creates path and streams write into it, reporting the
// first error including the final close (a full disk fails the close).
func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeCSV dumps an experiment's data points when it supports CSV export.
func writeCSV(dir, name string, r experiments.Renderer) error {
	c, ok := r.(experiments.CSVer)
	if !ok {
		return nil
	}
	f, err := os.Create(dir + "/" + name + ".csv")
	if err != nil {
		return err
	}
	if err := c.CSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
