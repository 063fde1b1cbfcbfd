// Command advisor turns the paper's Section 5 guidelines into a planning
// tool: given a machine and a project's total work, it sweeps the job
// shape (CPUs/job × job length), scores each shape on expected makespan
// (omniscient packing over a calibrated log), breakage, and worst-case
// native delay, and recommends a configuration.
//
// Usage:
//
//	advisor -machine "Blue Mountain" -petacycles 10 [-seed 1] [-scale 0.25]
//	        [-cap 10] [-timeout D] [-json] [-manifest file]
//
// The CLI is a thin client of internal/advisor — the same planning core
// cmd/advisord serves — so it prints the plan text advisord serves for
// the same canonical request, byte for byte (pinned by test).
//
// Invalid flags (unknown machine, non-positive petacycles or scale, ...)
// are rejected up front with exit status 2, matching cmd/experiments.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"interstitial/internal/advisor"
	"interstitial/internal/span"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable streams and status (tested directly).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("advisor", flag.ContinueOnError)
	fs.SetOutput(stderr)
	machine := fs.String("machine", "Blue Mountain", `machine: "Ross", "Blue Mountain", or "Blue Pacific"`)
	petaCycles := fs.Float64("petacycles", 10, "project size in peta-cycles (1e15 ticks)")
	seed := fs.Int64("seed", advisor.DefaultSeed, "seed for the calibrated planning log")
	scale := fs.Float64("scale", advisor.DefaultScale, "planning-log scale in (0, 1] (smaller = faster, noisier)")
	capN := fs.Int("cap", advisor.DefaultCap, "ranked candidates listed (max 24)")
	timeout := fs.Duration("timeout", 0, "abort planning after this long (0 = no limit)")
	jsonOut := fs.Bool("json", false, "print the full plan as JSON instead of the table")
	manifestPath := fs.String("manifest", "", "write the plan's provenance manifest (JSON) to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	usageError := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "advisor: "+format+"\n", a...)
		fs.Usage()
		return 2
	}
	if *timeout < 0 {
		return usageError("-timeout %v is negative", *timeout)
	}
	// Zero means "default" to Request.Canonicalize; on the command line an
	// explicit 0 is a mistake, so reject it before canonicalization.
	if *scale <= 0 || *scale > 1 {
		return usageError("-scale %g outside (0, 1]", *scale)
	}
	if *capN < 1 || *capN > advisor.MaxCap {
		return usageError("-cap %d outside [1, %d]", *capN, advisor.MaxCap)
	}
	req := advisor.Request{
		Machine: *machine, PetaCycles: *petaCycles,
		Cap: *capN, Seed: *seed, Scale: *scale,
	}
	req.Canonicalize()
	if err := req.Validate(); err != nil {
		return usageError("%v", err)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	plan, err := advisor.NewCore(advisor.CoreConfig{Ctx: ctx}).Plan(req)
	if err != nil {
		fmt.Fprintf(stderr, "advisor: %v\n", err)
		return 1
	}
	if *manifestPath != "" {
		if err := writeManifest(*manifestPath, advisor.PlanManifest(plan)); err != nil {
			fmt.Fprintf(stderr, "advisor: %v\n", err)
			return 1
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(plan); err != nil {
			fmt.Fprintf(stderr, "advisor: %v\n", err)
			return 1
		}
		return 0
	}
	fmt.Fprint(stdout, plan.Text)
	return 0
}

// writeManifest dumps the plan's provenance record as indented JSON.
func writeManifest(path string, m *span.Manifest) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
