package main

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

// cpuPackages are the buckets a CPU profile folds into: every package of
// the program, the program's root package, the benchmark's own code,
// garbage collection, and the rest of the Go runtime and standard library.
var cpuPackages = []string{
	"advisor", "core", "engine", "experiments", "fairshare", "faults",
	"federation", "job", "machine", "obs", "predict", "profile", "retry",
	"rng", "sched", "sim", "span", "stats", "testbed", "theory", "trace",
	"tracing", "workload", "interstitial", "other", "bench", "gc", "runtime",
}

// sampleBucket attributes one stack (innermost frame first) to a bucket:
// gc when a GC worker or allocation assist is on it, else the innermost
// frame of the program (so runtime.memmove under profile.split counts
// against profile) or of the benchmark, else runtime.
func sampleBucket(frames []string) string {
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gcBgMarkWorker") || strings.HasPrefix(f, "runtime.gcAssistAlloc") {
			return "gc"
		}
	}
	for _, f := range frames {
		switch {
		case strings.HasPrefix(f, "interstitial/internal/"):
			pkg, _, _ := strings.Cut(strings.TrimPrefix(f, "interstitial/internal/"), ".")
			for _, p := range cpuPackages {
				if p == pkg {
					return pkg
				}
			}
			return "other"
		case strings.HasPrefix(f, "interstitial."):
			return "interstitial"
		case strings.HasPrefix(f, "main."):
			return "bench"
		}
	}
	return "runtime"
}

// foldTraces reads `go tool pprof -traces` output and returns each
// bucket's share of the sampled CPU time. The shares sum to 1.
func foldTraces(r io.Reader) (map[string]float64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	byBucket := map[string]time.Duration{}
	var total time.Duration
	var cur time.Duration
	var frames []string
	flush := func() {
		if len(frames) > 0 {
			b := sampleBucket(frames)
			byBucket[b] += cur
			total += cur
		}
		frames = frames[:0]
	}
	inTraces := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inTraces = true
			continue
		}
		if !inTraces || strings.TrimSpace(line) == "" {
			continue
		}
		// A trace opens with "<value> <innermost frame>"; each further
		// line is one caller frame.
		fields := strings.Fields(line)
		if len(frames) == 0 {
			var err error
			if len(fields) >= 2 {
				cur, err = time.ParseDuration(fields[0])
			}
			if len(fields) < 2 || err != nil {
				return nil, fmt.Errorf("pprof traces: bad sample line %q", line)
			}
			frames = append(frames, fields[1])
			continue
		}
		frames = append(frames, fields[0])
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	if total == 0 {
		return nil, fmt.Errorf("pprof traces: no samples")
	}
	shares := make(map[string]float64, len(cpuPackages))
	for _, p := range cpuPackages {
		shares[p] = float64(byBucket[p]) / float64(total)
	}
	return shares, nil
}

// cpuShares folds the CPU profile at path through `go tool pprof -traces`.
func cpuShares(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	shares, ferr := foldTraces(out)
	_, _ = io.Copy(io.Discard, out) // drain so pprof can exit
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return shares, ferr
}
