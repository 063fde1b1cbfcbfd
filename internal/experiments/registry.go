package experiments

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"interstitial/internal/obs"
	"interstitial/internal/span"
)

// Registry resolves experiment names to runners, caching the shared
// Table 2 / Table 4 sweeps that several experiments derive from. It backs
// cmd/experiments and is usable directly by library consumers. Run and
// RunAll are safe for concurrent use: the shared sweeps are singleflight,
// so e.g. table3 and figure2 requested in parallel share one Table 2
// computation.
type Registry struct {
	lab *Lab

	// spanRoot is the current RunAll's root span, read by the shared-sweep
	// memos so their brackets attach to the run that triggered them. Nil
	// outside a spanned RunAll.
	spanRoot atomic.Pointer[span.Active]

	t2 memo[table2Out]
	t4 memo[*Table4Result]

	mu     sync.Mutex
	custom map[string]func(*Lab) (Renderer, error)
}

// NewRegistry wraps a lab.
func NewRegistry(l *Lab) *Registry { return &Registry{lab: l} }

// Register installs a custom experiment under name, overriding a built-in
// of the same name. The runner executes under the same fault boundary as
// built-ins: its panics become CellErrors in the RunReport, and its cells
// (via the lab view it receives) attribute to name. Chaos tests use this
// to inject failing experiments; it is also the extension point for
// out-of-tree studies.
func (g *Registry) Register(name string, run func(*Lab) (Renderer, error)) {
	g.mu.Lock()
	if g.custom == nil {
		g.custom = make(map[string]func(*Lab) (Renderer, error))
	}
	g.custom[name] = run
	g.mu.Unlock()
}

// PaperNames lists the paper's experiments in evaluation order.
func PaperNames() []string {
	return []string{"table1", "table2", "table3", "theoryfit", "figure2", "table4",
		"figure3", "table5", "table6", "figure4", "figure5", "figure6",
		"table7", "table8ross", "table8limited"}
}

// ExtensionNames lists the beyond-the-paper studies.
func ExtensionNames() []string {
	return []string{"ablation-estimates", "ablation-backfill", "ablation-burstiness",
		"ablation-joblength", "ablation-jobwidth", "ablation-guard", "ablation-capsweep",
		"ablation-preemption", "ablation-prediction", "utilization-sweep",
		"validate-sampling", "seed-robustness", "correlations",
		"figure4-outages", "scale-stream", "federation"}
}

// AllNames lists every runnable experiment, sorted.
func AllNames() []string {
	names := append(PaperNames(), ExtensionNames()...)
	sort.Strings(names)
	return names
}

// table2Out is the memoized Table 2 sweep's result.
type table2Out struct {
	res *Table2Result
	err error
}

// table2 memoizes the omniscient sweep (singleflight). A panicking sweep
// poisons the memo: the panic re-raises to the computing caller and every
// waiter, so each dependent experiment reports the same failure instead of
// consuming a half-built result.
func (g *Registry) table2() (*Table2Result, error) {
	out, _ := g.t2.get(g.lab.pool, func() table2Out {
		sp := g.spanRoot.Load().Child("shared.table2", 0, 0)
		res, err := Table2(g.lab.withCells("", nil, sp))
		sp.End(0)
		return table2Out{res, err}
	})
	return out.res, out.err
}

// table4 memoizes the fallible short-term sweep (singleflight), poisoned
// on panic like table2.
func (g *Registry) table4() *Table4Result {
	res, _ := g.t4.get(g.lab.pool, func() *Table4Result {
		sp := g.spanRoot.Load().Child("shared.table4", 0, 0)
		res := Table4(g.lab.withCells("", nil, sp))
		sp.End(0)
		return res
	})
	return res
}

// Run executes one experiment by name.
func (g *Registry) Run(name string) (Renderer, error) { return g.runOn(g.lab, name) }

// runOn executes one experiment against a specific lab view, so RunAll can
// attribute each experiment's fan-out cells to it. The memoized Table 2 /
// Table 4 sweeps deliberately run on the root lab: they are shared by
// several experiments, and attributing them to whichever requester won the
// singleflight race would make the timing report depend on scheduling.
// Their cells appear in the report's "(shared)" row instead.
func (g *Registry) runOn(l *Lab, name string) (Renderer, error) {
	g.mu.Lock()
	custom := g.custom[name]
	g.mu.Unlock()
	if custom != nil {
		return custom(l)
	}
	switch name {
	case "table1":
		return Table1(l), nil
	case "table2":
		return g.table2()
	case "table3":
		t2, err := g.table2()
		if err != nil {
			return nil, err
		}
		return Table3(l, t2), nil
	case "theoryfit":
		t2, err := g.table2()
		if err != nil {
			return nil, err
		}
		return TheoryFit(t2)
	case "figure2":
		t2, err := g.table2()
		if err != nil {
			return nil, err
		}
		return Figure2(t2), nil
	case "table4":
		return g.table4(), nil
	case "figure3":
		return Figure3(l, g.table4()), nil
	case "table5":
		return Table5(l), nil
	case "table6":
		return Table6(l), nil
	case "table7":
		return Table7(l), nil
	case "table8ross":
		return Table8Ross(l), nil
	case "table8limited":
		return Table8Limited(l), nil
	case "figure4":
		return Figure4(l), nil
	case "figure4-outages":
		return Figure4Outages(l), nil
	case "figure5":
		return Figure5(l), nil
	case "figure6":
		return Figure6(l), nil
	case "validate-sampling":
		return ValidateSampling(l), nil
	case "correlations":
		return Correlations(l), nil
	case "seed-robustness":
		return SeedRobustness(l, 5), nil
	case "ablation-estimates":
		return AblationEstimates(l), nil
	case "ablation-backfill":
		return AblationBackfill(l), nil
	case "ablation-burstiness":
		return AblationBurstiness(l), nil
	case "ablation-joblength":
		return AblationJobLength(l), nil
	case "ablation-jobwidth":
		return AblationJobWidth(l), nil
	case "ablation-guard":
		return AblationGuard(l), nil
	case "utilization-sweep":
		return UtilizationSweep(l), nil
	case "ablation-prediction":
		return AblationPrediction(l), nil
	case "ablation-preemption":
		return AblationPreemption(l), nil
	case "ablation-capsweep":
		return AblationCapSweep(l), nil
	case "scale-stream":
		return ScaleStream(l)
	case "federation":
		return Federation(l)
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (valid: %v)", name, AllNames())
}

// RunAll executes the named experiments concurrently on the lab's worker
// pool and returns their results in the given order, plus a RunReport of
// how the run degraded. Experiments that share artifacts (the Lab's
// baselines and continual runs, the registry's Table 2 / Table 4 sweeps)
// coalesce on them instead of recomputing.
//
// RunAll never crashes on an experiment panic: every body and every work
// cell runs behind a recovering boundary that converts the panic into a
// typed CellError, the other experiments keep running, and the completed
// tables are returned alongside report.Failed — graceful degradation with
// partial results. If the lab's context is cancelled, in-flight
// simulations abort within ~4096 kernel events, queued work is skipped,
// and report.Unfinished lists every experiment without a result. The
// returned error is the first hard (non-panic, non-cancel) error in name
// order; nil slots in the result slice correspond to report entries.
//
// RunAll also fills the lab's timing report: each experiment's wall time,
// the work cells its own fan-outs produced, and its outcome, recorded in
// evaluation order after the barrier, plus a "(shared)" row for cells
// spent in the memoized cross-experiment sweeps. Timing is observation
// only — results and rendered bytes are identical whether the report is
// read or not.
func (g *Registry) RunAll(names []string) ([]Renderer, *RunReport, error) {
	out := make([]Renderer, len(names))
	errs := make([]error, len(names))
	walls := make([]time.Duration, len(names))
	cells := make([]obs.Counter, len(names))
	before := g.lab.met.cells.Load()
	// Bracket the run and each experiment. Root IDs derive from (Seed,
	// RunAll ordinal) and all instants are logical zeros, so the span
	// tree is byte-identical at any worker count. Nil recorder: every
	// handle below is nil and the whole layer costs nothing.
	var root *span.Active
	expSpans := make([]*span.Active, len(names))
	if g.lab.spans != nil {
		root = g.lab.spans.Root("experiments", g.lab.opts.Seed, g.lab.runSeq.Add(1)-1, 0)
		for i, name := range names {
			expSpans[i] = root.Child(name, uint64(i), 0)
		}
		g.spanRoot.Store(root)
		defer g.spanRoot.Store(nil)
	}
	g.lab.pool.forEach(len(names), func(i int) {
		t0 := time.Now()
		func() {
			defer func() {
				r := recover()
				if r == nil {
					return
				}
				if isCancel(r) {
					errs[i] = r.(error)
					return
				}
				ce, converted := r.(*CellError)
				if !converted {
					// The body itself paniced (outside any fan-out, so
					// no cell boundary saw it yet): convert here.
					ce = toCellError(names[i], -1, r)
					g.lab.met.cellsFailed.Inc()
				}
				g.lab.sink.add(ce)
				errs[i] = ce
			}()
			out[i], errs[i] = g.runOn(g.lab.withCells(names[i], &cells[i], expSpans[i]), names[i])
		}()
		walls[i] = time.Since(t0)
	})

	report := &RunReport{Failed: g.lab.sink.drain()}
	var firstErr error
	var attributed uint64
	for i, name := range names {
		status := "ok"
		switch {
		case errs[i] == nil:
			report.Completed = append(report.Completed, name)
		case isCancel(errs[i]):
			report.Unfinished = append(report.Unfinished, name)
			report.Err = g.lab.ctx.Err()
			status = "unfinished"
		default:
			if _, ok := errs[i].(*CellError); ok {
				status = "failed"
			} else {
				status = "error"
				if firstErr == nil {
					firstErr = errs[i]
				}
			}
		}
		g.lab.met.timings.Record(name, walls[i], cells[i].Load(), status)
		attributed += cells[i].Load()
		expSpans[i].Attr("cells", int64(cells[i].Load())).Str("status", status).End(0)
	}
	if total := g.lab.met.cells.Load() - before; total > attributed {
		g.lab.met.timings.Record("(shared)", 0, total-attributed, "")
	}
	root.Attr("experiments", int64(len(names))).End(0)
	g.lab.foldTrace()
	return out, report, firstErr
}
