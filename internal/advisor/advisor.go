// Package advisor is the capacity-planning core behind cmd/advisor and
// cmd/advisord: it turns the paper's Section 5 guidelines ("what job
// shape should I submit on this machine?") into a ranked shape
// recommendation, and wraps that core in a hardened HTTP service with a
// bounded work queue, request coalescing, result caching, graceful
// degradation, and a clean drain path (see server.go and DESIGN.md §14).
//
// The planning pipeline per canonical request (machine, petacycles, cap,
// seed, scale):
//
//  1. Baseline: the calibrated native log + native-only run for
//     (machine, seed, scale), memoized in the Core's bounded flight — the
//     same LRU-plus-singleflight kind the server keeps plans in — so
//     concurrent questions on one baseline coalesce onto one simulation.
//  2. Sweep: the shape grid (CPUs/job × job length) is packed into one
//     tiled free timeline of the baseline (core.PackProject, as
//     PlanOmniscient does per shape) and scored on makespan with a soft
//     worst-case native-delay penalty.
//  3. Render: the ranked table in the CLI's exact byte format, so the
//     one-shot CLI and the service answer identically (pinned by test).
//
// Everything is deterministic in the canonical request: no wall clocks,
// no scheduling-order dependence, same bytes at any GOMAXPROCS.
package advisor

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"text/tabwriter"

	"interstitial"
	"interstitial/internal/core"
	"interstitial/internal/job"
	"interstitial/internal/testbed"
)

// ErrInfeasible reports a project no candidate shape can serve (every
// swept shape is bigger than the machine's spare pool).
var ErrInfeasible = errors.New("advisor: no feasible job shape for this machine")

// PlanError is a panic converted at the planning boundary — the advisor's
// CellError: the service returns it as a typed 500 instead of crashing,
// and the stack survives for the log.
type PlanError struct {
	// Key is the canonical request whose plan panicked.
	Key string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack at recovery.
	Stack []byte
}

// Error summarizes without the stack (which can be huge).
func (e *PlanError) Error() string {
	return fmt.Sprintf("advisor: plan %s panicked: %v", e.Key, e.Value)
}

// Candidate is one scored job shape.
type Candidate struct {
	CPUs              int     `json:"cpus"`
	Sec1GHz           float64 `json:"sec_1ghz"`
	Jobs              int     `json:"jobs"`
	MakespanH         float64 `json:"makespan_h"`
	Breakage          float64 `json:"breakage"`
	WorstNativeDelayS int64   `json:"worst_native_delay_s"`
	Score             float64 `json:"score"`
}

// Plan is the advisor's answer: machine context, the ranked candidate
// shapes, and the CLI-format text render. Degraded plans were computed on
// a smaller fallback log because the full sweep exceeded its budget; they
// are marked, never cached, and re-askable.
type Plan struct {
	Request        Request     `json:"request"` // canonical form
	MachineCPUs    int         `json:"machine_cpus"`
	ClockGHz       float64     `json:"clock_ghz"`
	NativeUtil     float64     `json:"native_util"`
	IdealMakespanH float64     `json:"ideal_makespan_h"`
	Candidates     []Candidate `json:"candidates"`
	Degraded       bool        `json:"degraded"`
	Text           string      `json:"text"`
}

// Best returns the top-ranked candidate.
func (p *Plan) Best() Candidate { return p.Candidates[0] }

// sweepCPUs × sweepSecs is the candidate shape grid (the paper's Table 5
// axes): job widths in CPUs and job lengths in seconds at 1 GHz.
var (
	sweepCPUs = []int{1, 4, 8, 16, 32, 64}
	sweepSecs = []float64{60, 120, 480, 960}
)

// Core computes plans. It memoizes native baselines (calibrated log +
// native-only run) per (machine, seed, scale) in a bounded flight, so
// concurrent requests for one baseline share one simulation and later
// ones read it without any. Core methods are safe for concurrent use.
type Core struct {
	ctx       context.Context
	baselines *flight[baselineKey, *baseline]
	computes  atomic.Int32 // baseline computes (tests)
}

const (
	// maxBaselines bounds the memoized baselines: 8 (seed, scale) pairs
	// of the three machines.
	maxBaselines = 24
	// degradedScale is the fallback planning-log scale for over-budget
	// requests: a sub-100ms plan.
	degradedScale = 0.02
)

type baselineKey struct {
	machine string
	seed    int64
	scale   float64
}

// baseline is the planning input every sweep of one key reads: the scaled
// system, its native log after a native-only run (records carry start and
// finish times), and the achieved native utilization. Sweeps only read it.
type baseline struct {
	sys  testbed.System
	ran  []*job.Job
	util float64
}

// CoreConfig tunes a Core. The zero value is usable.
type CoreConfig struct {
	// Ctx bounds every full-sweep baseline compute (default: background).
	// Cancel it only when the Core is spent — after a server drain, or at
	// CLI exit: a compute it stops fails every request waiting on that
	// baseline. Per-request deadlines do NOT belong here; they reach only
	// PlanDegraded, whose baseline no other request shares.
	Ctx context.Context
}

// NewCore builds a planning core.
func NewCore(cfg CoreConfig) *Core {
	if cfg.Ctx == nil {
		cfg.Ctx = context.Background()
	}
	return &Core{
		ctx:       cfg.Ctx,
		baselines: newFlight[baselineKey, *baseline](maxBaselines),
	}
}

// Plan answers the canonical request with a full sweep on the memoized
// baseline, computed under the Core's lifetime context (see
// CoreConfig.Ctx) when absent. The request must be canonicalized and
// validated.
func (c *Core) Plan(req Request) (*Plan, error) {
	k := baselineKey{machine: req.Machine, seed: req.Seed, scale: req.Scale}
	b, ok := c.baselines.get(k)
	if !ok {
		pending, owner := c.baselines.join(k)
		if owner {
			c.fill(k, pending, req)
		}
		<-pending.done
		if pending.err != nil {
			return nil, pending.err
		}
		b = pending.v
	}
	return sweep(b, req, false)
}

// fill computes the baseline an owner joined and settles it: a success is
// kept; a failure, or a panic converted to a *PlanError, is handed to the
// waiters and dropped, so the next request computes it again.
func (c *Core) fill(k baselineKey, pending *call[*baseline], req Request) {
	var b *baseline
	var err error
	defer func() {
		if v := recover(); v != nil {
			err = &PlanError{Key: req.Key(), Value: v, Stack: debug.Stack()}
		}
		c.baselines.settle(k, pending, b, err, err == nil)
	}()
	c.computes.Add(1)
	b, err = computeBaseline(c.ctx, k.machine, k.seed, k.scale)
}

// PlanDegraded computes the cheap fallback plan on a degradedScale log,
// directly under ctx — this is where a per-request deadline propagates
// into the simulation stack (CalibratedLogCtx / RunNative abort within
// ~4096 kernel events of cancellation). Its baseline is neither kept nor
// shared, so an expiring request fails only itself.
func (c *Core) PlanDegraded(ctx context.Context, req Request) (*Plan, error) {
	b, err := computeBaseline(ctx, req.Machine, req.Seed, degradedScale)
	if err != nil {
		return nil, err
	}
	return sweep(b, req, true)
}

// computeBaseline calibrates the machine's native log at (seed, scale) and
// runs it alone under ctx. The run goes on a clone, whose records are
// allocated back to back in log order for the sweep to walk: sweeping the
// generated log itself benchmarked slower (BenchmarkAdvisorSweep).
func computeBaseline(ctx context.Context, machine string, seed int64, scale float64) (*baseline, error) {
	m, err := interstitial.MachineByName(machine)
	if err != nil {
		return nil, err
	}
	sys := m.Scaled(scale)
	log, err := sys.CalibratedLogCtx(ctx, seed, 0.015)
	if err != nil {
		return nil, err
	}
	ran := job.CloneAll(log)
	_, util, err := sys.RunNative(ctx, ran, nil)
	if err != nil {
		return nil, err
	}
	return &baseline{sys: sys, ran: ran, util: util}, nil
}

// sweep scores the shape grid against a ran baseline log and assembles
// the plan. Deterministic: the grid is walked in fixed order, ties in
// score break on makespan, then width, then length.
func sweep(b *baseline, req Request, degraded bool) (*Plan, error) {
	sys := b.sys
	start := sys.Workload.Duration() / 8
	// Every shape packs the same project size from the same start, so one
	// tiled timeline (what PlanOmniscient builds per call) serves the whole
	// grid; packing only reads it.
	horizon := sys.Workload.Duration()
	copies := core.TimelineCopies(horizon, start, interstitial.TheoreticalMakespan(sys, req.PetaCycles))
	free, err := core.FreeTimeline(b.ran, sys.Workload.Machine.CPUs, horizon, copies)
	if err != nil {
		return nil, fmt.Errorf("advisor: free timeline of %s: %w", req.Machine, err)
	}
	var cands []Candidate
	for _, cpus := range sweepCPUs {
		for _, sec := range sweepSecs {
			k := int(req.PetaCycles*1e15/(float64(cpus)*sec*1e9) + 0.5)
			if k < 1 {
				continue
			}
			p := interstitial.ProjectSpec{PetaCycles: req.PetaCycles, KJobs: k, CPUsPerJob: cpus}
			res, err := core.PackProject(free, p.JobSpecFor(sys.Workload.Machine.ClockGHz), start, k)
			if err != nil {
				continue // job bigger than the machine's spare pool
			}
			c := Candidate{
				CPUs: cpus, Sec1GHz: sec, Jobs: k,
				MakespanH:         res.Makespan.HoursF(),
				Breakage:          interstitial.Breakage(sys, cpus),
				WorstNativeDelayS: int64(sys.Seconds1GHz(sec)),
			}
			// Score: makespan dominates; native delay is a soft penalty (an
			// hour of worst-case native delay weighs like 20% extra makespan
			// on a 100h project).
			c.Score = c.MakespanH * (1 + float64(c.WorstNativeDelayS)/3600*0.2)
			cands = append(cands, c)
		}
	}
	if len(cands) == 0 {
		return nil, ErrInfeasible
	}
	sort.SliceStable(cands, func(i, k int) bool {
		a, b := cands[i], cands[k]
		if a.Score != b.Score {
			return a.Score < b.Score
		}
		if a.MakespanH != b.MakespanH {
			return a.MakespanH < b.MakespanH
		}
		if a.CPUs != b.CPUs {
			return a.CPUs < b.CPUs
		}
		return a.Sec1GHz < b.Sec1GHz
	})
	if len(cands) > req.Cap {
		cands = cands[:req.Cap]
	}
	p := &Plan{
		Request:        req,
		MachineCPUs:    sys.Workload.Machine.CPUs,
		ClockGHz:       sys.Workload.Machine.ClockGHz,
		NativeUtil:     b.util,
		IdealMakespanH: interstitial.TheoreticalMakespan(sys, req.PetaCycles) / 3600,
		Candidates:     cands,
		Degraded:       degraded,
	}
	var sb strings.Builder
	if err := renderText(&sb, p); err != nil {
		return nil, err
	}
	p.Text = sb.String()
	return p, nil
}

// renderText writes the plan in the CLI's exact output format. The
// service embeds this render in its JSON response, so the text a daemon
// serves and the bytes `advisor` prints are identical for the same
// canonical request.
func renderText(w io.Writer, p *Plan) error {
	fmt.Fprintf(w, "Machine %s: %d CPUs @ %.3f GHz, native utilization %.3f\n",
		p.Request.Machine, p.MachineCPUs, p.ClockGHz, p.NativeUtil)
	fmt.Fprintf(w, "Project: %.1f peta-cycles; ideal makespan %.1f h at constant utilization\n",
		p.Request.PetaCycles, p.IdealMakespanH)
	if p.Degraded {
		fmt.Fprintln(w, "NOTE: degraded plan — the full sweep exceeded its budget; ranked on a reduced fallback log")
	}
	fmt.Fprintln(w)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "rank\tCPUs/job\tsec@1GHz\tjobs\tmakespan (h)\tbreakage\tworst native delay (s)")
	for i, c := range p.Candidates {
		fmt.Fprintf(tw, "%d\t%d\t%.0f\t%d\t%.1f\t%.3f\t%d\n",
			i+1, c.CPUs, c.Sec1GHz, c.Jobs, c.MakespanH, c.Breakage, c.WorstNativeDelayS)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	best := p.Best()
	fmt.Fprintf(w, "\nRecommendation: %d CPUs/job × %.0f s@1GHz (%d jobs).\n", best.CPUs, best.Sec1GHz, best.Jobs)
	fmt.Fprintln(w, "Paper guidelines applied: keep jobs small relative to the machine's")
	fmt.Fprintln(w, "spare pool (low breakage) and short (bounded native delay); at equal")
	fmt.Fprintln(w, "makespan the advisor prefers the shorter, narrower shape.")
	return nil
}

// RenderText writes the plan's canonical text form to w (the Text field
// holds the same bytes; this re-renders for writers that stream).
func RenderText(w io.Writer, p *Plan) error { return renderText(w, p) }
