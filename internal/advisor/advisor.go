// Package advisor is the capacity-planning core behind cmd/advisor and
// cmd/advisord: it turns the paper's Section 5 guidelines ("what job
// shape should I submit on this machine?") into a ranked shape
// recommendation, and wraps that core in a hardened multi-tenant HTTP
// service with admission control, request coalescing, result caching,
// graceful degradation, and a clean drain path (see server.go and
// DESIGN.md §14).
//
// The planning pipeline per canonical request (machine, petacycles, cap,
// seed, scale):
//
//  1. Baseline: the calibrated native log + native-only run for
//     (machine, seed, scale), memoized through an experiments.Lab — the
//     same per-key singleflight artifact store the paper harness uses, so
//     concurrent identical questions coalesce onto one simulation.
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
	"container/list"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"

	"interstitial"
	"interstitial/internal/core"
	"interstitial/internal/experiments"
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

// Core computes plans. It keeps an LRU-bounded set of experiments.Labs,
// one per (seed, scale), so the expensive baseline artifacts (calibrated
// log + native run) are memoized with the harness's per-key singleflight:
// concurrent requests for the same (machine, seed, scale) coalesce onto
// one simulation, and different machines under one lab compute in
// parallel. Core methods are safe for concurrent use.
type Core struct {
	ctx           context.Context
	degradedScale float64

	mu      sync.Mutex
	labs    map[labKey]*list.Element // value: *labEntry
	labLRU  *list.List               // front = most recent
	maxLabs int
}

type labKey struct {
	seed  int64
	scale float64
}

type labEntry struct {
	key labKey
	lab *experiments.Lab
}

// CoreConfig tunes a Core. The zero value is usable.
type CoreConfig struct {
	// Ctx bounds every full-sweep simulation (default: background). Labs
	// bind it at creation, so cancel it only when the Core is spent —
	// after a server drain, or at CLI exit. Per-request deadlines do NOT
	// belong here: a cancelled lab context poisons memoized artifacts.
	Ctx context.Context
	// MaxLabs bounds the distinct (seed, scale) labs kept (default 8).
	MaxLabs int
	// DegradedScale is the fallback planning-log scale for over-budget
	// requests (default 0.02: a sub-100ms plan).
	DegradedScale float64
}

// NewCore builds a planning core.
func NewCore(cfg CoreConfig) *Core {
	if cfg.Ctx == nil {
		cfg.Ctx = context.Background()
	}
	if cfg.MaxLabs <= 0 {
		cfg.MaxLabs = 8
	}
	if cfg.DegradedScale <= 0 || cfg.DegradedScale > 1 {
		cfg.DegradedScale = 0.02
	}
	return &Core{
		ctx:           cfg.Ctx,
		degradedScale: cfg.DegradedScale,
		labs:          make(map[labKey]*list.Element),
		labLRU:        list.New(),
		maxLabs:       cfg.MaxLabs,
	}
}

// lab returns (creating if needed) the memoizing lab for (seed, scale),
// bumping it to the front of the LRU and evicting the coldest lab past
// the bound. Workers is pinned to 1: the advisor never fans out inside a
// lab, and cross-request parallelism is the server's admission queue.
func (c *Core) lab(seed int64, scale float64) *experiments.Lab {
	k := labKey{seed: seed, scale: scale}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.labs[k]; ok {
		c.labLRU.MoveToFront(el)
		return el.Value.(*labEntry).lab
	}
	lab := experiments.NewLab(experiments.Options{Seed: seed, Scale: scale, Workers: 1, Ctx: c.ctx})
	el := c.labLRU.PushFront(&labEntry{key: k, lab: lab})
	c.labs[k] = el
	for c.labLRU.Len() > c.maxLabs {
		old := c.labLRU.Back()
		c.labLRU.Remove(old)
		delete(c.labs, old.Value.(*labEntry).key)
	}
	return lab
}

// Plan answers the canonical request with a full sweep on the memoized
// baseline. It runs under the Core's lifetime context (see CoreConfig.Ctx)
// and converts any panic below it — including a poisoned lab artifact —
// into a *PlanError. The request must be canonicalized and validated.
func (c *Core) Plan(req Request) (p *Plan, err error) {
	defer func() {
		if v := recover(); v != nil {
			if e := asErr(v); e != nil && (errors.Is(e, context.Canceled) || errors.Is(e, context.DeadlineExceeded)) {
				err = e
				return
			}
			err = &PlanError{Key: req.Key(), Value: v, Stack: debug.Stack()}
		}
	}()
	sys, ran, util := c.lab(req.Seed, req.Scale).NativeBaseline(req.Machine)
	return sweep(sys, ran, util, req, false)
}

// asErr converts a recovered value to an error (nil when it isn't one).
func asErr(v any) error {
	if e, ok := v.(error); ok {
		return e
	}
	return nil
}

// PlanDegraded computes the cheap fallback plan on a degradedScale log,
// directly under ctx — this is where a per-request deadline propagates
// into the simulation stack (CalibratedLogCtx / RunNative abort within
// ~4096 kernel events of cancellation). It bypasses the labs entirely so
// an expiring request can never poison a shared memoized artifact.
func (c *Core) PlanDegraded(ctx context.Context, req Request) (*Plan, error) {
	sys, err := experiments.ScaledSystem(req.Machine, c.degradedScale)
	if err != nil {
		return nil, err
	}
	log, err := sys.CalibratedLogCtx(ctx, req.Seed, 0.015)
	if err != nil {
		return nil, err
	}
	ran := job.CloneAll(log)
	_, util, err := sys.RunNative(ctx, ran, nil)
	if err != nil {
		return nil, err
	}
	return sweep(sys, ran, util, req, true)
}

// sweep scores the shape grid against a ran baseline log and assembles
// the plan. Deterministic: the grid is walked in fixed order, ties in
// score break on makespan, then width, then length.
func sweep(sys testbed.System, ran []*job.Job, utilNat float64, req Request, degraded bool) (*Plan, error) {
	start := sys.Workload.Duration() / 8
	// Every shape packs the same project size from the same start, so one
	// tiled timeline (what PlanOmniscient builds per call) serves the whole
	// grid; packing only reads it.
	horizon := sys.Workload.Duration()
	copies := core.TimelineCopies(horizon, start, interstitial.TheoreticalMakespan(sys, req.PetaCycles))
	free, err := core.FreeTimeline(ran, sys.Workload.Machine.CPUs, horizon, copies)
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
		NativeUtil:     utilNat,
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
// service embeds this render in its JSON response, so `advisor` run
// locally and `advisor -server` against a daemon print identical bytes
// for the same canonical request.
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
