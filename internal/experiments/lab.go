// Package experiments regenerates every table and figure in the paper's
// evaluation (Section 4). Each experiment is a function from Options to a
// typed result that knows how to render itself in the paper's row format.
//
// Experiments share a Lab, which memoizes the expensive artifacts: the
// calibrated native logs, the native-only baseline runs, and the continual
// interstitial runs that several tables slice differently. The Lab computes
// distinct artifacts concurrently (per-key singleflight) and every
// experiment fans its independent replications out over a worker pool
// shared across the whole Lab, bounded by Options.Workers. Output is
// deterministic at any worker count: same Options ⇒ same bytes.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"interstitial/internal/core"
	"interstitial/internal/engine"
	"interstitial/internal/job"
	"interstitial/internal/obs"
	"interstitial/internal/sim"
	"interstitial/internal/span"
	"interstitial/internal/stats"
	"interstitial/internal/testbed"
	"interstitial/internal/tracing"
)

// Options control experiment scale and reproducibility.
type Options struct {
	// Seed drives all randomness.
	Seed int64
	// Scale resizes the logs (days and job count): values in (0,1) shrink
	// them for fast test and benchmark runs, 1.0 reproduces the
	// paper-scale runs, and values above 1 grow them for streaming-scale
	// stress runs (a scale-5 Blue Mountain log is ~1M jobs). Paper tables
	// are only meaningful at 1.0; project specs never grow above paper
	// size.
	Scale float64
	// Reps overrides the number of random project starts (paper: 20).
	// Zero means the experiment default.
	Reps int
	// Samples overrides the number of short-term windows sampled from a
	// continual run (paper: 500). Zero means the default.
	Samples int
	// Workers bounds the harness's parallelism (shared across every
	// experiment run against the same Lab). Zero means GOMAXPROCS. The
	// rendered output is byte-for-byte identical for every Workers value:
	// all randomness is derived from (Seed, replication index), never from
	// scheduling order.
	Workers int
	// FleetSize restricts the federation experiment to one fleet size
	// (number of simulated machines). Zero runs the default size grid.
	FleetSize int
	// Route restricts the federation experiment to one routing policy
	// (a federation.ParsePolicy string). Empty runs every policy.
	Route string
	// Ctx, when non-nil, bounds every simulation the lab runs: once it is
	// cancelled, in-flight simulations abort cooperatively (within ~4096
	// kernel events), queued cells are skipped, and RunAll reports the
	// unfinished experiments. A lab whose context has been cancelled is
	// spent — its memoized artifacts may be poisoned with the cancellation
	// — so build a fresh Lab per run. A context that never cancels leaves
	// every result byte-identical to a context-free run.
	Ctx context.Context
}

// DefaultOptions runs at paper scale.
func DefaultOptions() Options { return Options{Seed: 1, Scale: 1} }

func (o Options) normalized() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Reps <= 0 {
		o.Reps = 20
	}
	if o.Samples <= 0 {
		o.Samples = 500
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Ctx == nil {
		o.Ctx = context.Background()
	}
	return o
}

// scaledProject shrinks a project spec, preserving the per-job spec (CPUs
// and seconds@1GHz) while reducing the job count.
func (o Options) scaledProject(p core.ProjectSpec) core.ProjectSpec {
	if o.Scale >= 1 {
		return p
	}
	k := int(float64(p.KJobs) * o.Scale)
	if k < 10 {
		k = 10
	}
	p.PetaCycles *= float64(k) / float64(p.KJobs)
	p.KJobs = k
	return p
}

// baseline bundles a system's calibrated log and its native-only run.
type baseline struct {
	sys     testbed.System
	log     []*job.Job // pristine, unsimulated
	ran     []*job.Job // the same jobs after the native-only run
	utilNat float64
}

// continualKey identifies a memoized continual interstitial run.
type continualKey struct {
	system  string
	cpus    int
	runtime sim.Time
	cap     int // UtilCap in percent; 0 = uncapped
}

// continualRun is a finished continual-interstitial simulation. Every
// interstitial job in it has spec's CPUs and runtime and starts the moment
// it is submitted, so the run keeps only their start instants, in start
// order; records rebuilds the records from them.
type continualRun struct {
	natives []*job.Job
	spec    core.JobSpec
	starts  []sim.Time
}

// Lab memoizes expensive shared artifacts across experiments. Lab methods
// are safe for concurrent use, with per-key singleflight: the artifact map
// lock is held only to resolve a key to its memo, and the memo computes
// the artifact (see memo: a waiter lends its pool slot, and a compute that
// panics poisons the key). Distinct artifacts — different systems, job
// specs, utilization caps — therefore compute fully concurrently, while
// duplicate requests for the same key coalesce onto a single computation.
// Precompute fans out a table's whole working set ahead of rendering.
//
// A Lab is a light handle over a shared core: the registry hands each
// experiment a derived view (withCells) so work-cell counts attribute to
// the experiment that fanned them out while all artifacts, the pool, and
// the metrics stay shared.
//
// Determinism contract: for a given Options (Workers excluded), every
// artifact and every rendered table is byte-for-byte identical at any
// worker count. All randomness is derived from (Seed, replication index),
// and parallel loops write results into pre-indexed slices, so scheduling
// order can never leak into output. Metrics are observation-only and never
// feed back into simulation or rendering (tested).
type Lab struct {
	*labCore

	// cells, when non-nil, additionally attributes this view's fan-out
	// cells to one experiment (see Registry.RunAll).
	cells *obs.Counter
	// name labels this view's experiment for CellError attribution;
	// empty on the root lab, whose failures belong to "(shared)".
	name string
	// sp, when non-nil, is the experiment span this view's fan-outs
	// bracket their cells under; fanSeq numbers the view's fan-out calls
	// so cell span IDs stay deterministic at any worker count.
	sp     *span.Active
	fanSeq *atomic.Uint64
}

// labCore is the shared state behind every view of a Lab.
type labCore struct {
	opts Options
	ctx  context.Context
	pool *pool
	met  *labMetrics
	sink faultSink

	// trace, when non-nil, collects a decision trace from every simulation
	// the lab runs (SetTracing). Reads race-free because it is set once,
	// before any artifact computes.
	trace *tracing.Collector
	// spans, when non-nil, records run/experiment/cell spans (SetSpans).
	// Set-once like trace; runSeq numbers the root spans RunAll mints.
	spans  *span.Recorder
	runSeq atomic.Uint64

	mu        sync.Mutex // guards the maps, never held while computing
	baselines map[string]*memo[*baseline]
	continual map[continualKey]*memo[*continualRun]
	// traceFolded* remember the collector totals already folded into the
	// metrics registry, so repeated folds (one per RunAll) add only deltas.
	traceFoldedEmitted uint64
	traceFoldedDropped uint64

	// Computation counters (test hooks): they count actual artifact
	// computations, not cache hits, so tests can assert singleflight.
	baselineComputes  atomic.Int32
	continualComputes atomic.Int32
}

// NewLab builds a lab for the options.
func NewLab(o Options) *Lab {
	o = o.normalized()
	met := newLabMetrics()
	return &Lab{labCore: &labCore{
		opts:      o,
		ctx:       o.Ctx,
		pool:      newPool(o.Workers, met),
		met:       met,
		baselines: make(map[string]*memo[*baseline]),
		continual: make(map[continualKey]*memo[*continualRun]),
	}}
}

// withCells derives a view of the lab whose fanout calls also count into
// c, whose failures are attributed to the named experiment, and whose
// fan-out cells are bracketed under sp (nil disables both). The view
// shares every artifact, the pool, and the metrics registry.
func (l *Lab) withCells(name string, c *obs.Counter, sp *span.Active) *Lab {
	return &Lab{labCore: l.labCore, cells: c, name: name, sp: sp, fanSeq: &atomic.Uint64{}}
}

// owner is the experiment name failures on this view attribute to.
func (l *Lab) owner() string {
	if l.name == "" {
		return "(shared)"
	}
	return l.name
}

// Metrics returns the lab's metrics registry for reporting (snapshot,
// text dump, /metrics).
func (l *Lab) Metrics() *obs.Registry { return l.met.reg }

// SetTracing installs a trace collector: every simulation of a job log
// the lab runs from now on records its scheduler decisions into its own
// tracer, except federation shards (only the fleet's route and steal
// events) and scale-stream's streamed runs (untraced). Call it once, on a
// fresh Lab, before any experiment runs — artifacts computed earlier stay
// untraced (their memo already resolved). A nil collector (the default)
// disables tracing. Tracing is observation only: rendered tables are
// byte-identical with it on or off.
func (l *Lab) SetTracing(c *tracing.Collector) { l.trace = c }

// Trace returns the installed collector (nil when tracing is off).
func (l *Lab) Trace() *tracing.Collector { return l.trace }

// SetSpans installs a span recorder: Registry.RunAll brackets the run,
// each experiment, every fan-out cell, and the shared sweeps; the
// federation experiment threads each cell's span into its fleet. Same
// contract as SetTracing — set once, on a fresh Lab, before anything
// runs; nil (the default) disables spans at zero cost. Spans are
// observation only: all instants are logical (0) or simulated time and
// all IDs derive from (Seed, run/fanout/cell indexes), so the recorded
// tree — like the tables — is byte-identical at any worker count.
func (l *Lab) SetSpans(r *span.Recorder) { l.spans = r }

// Spans returns the installed span recorder (nil when disabled).
func (l *Lab) Spans() *span.Recorder { return l.spans }

// scenarioTracer registers a decision tracer for one ad-hoc scenario
// simulation, labeled "<experiment>/<label>". Labels must be unique
// within an experiment (the collector panics on duplicates — they are
// code, not input). Nil when tracing is off.
func (l *Lab) scenarioTracer(label string, sys testbed.System) *tracing.Tracer {
	if l.trace == nil {
		return nil
	}
	return l.trace.Tracer(l.owner()+"/"+label, sys.Workload.Machine.Name, sys.Workload.Machine.CPUs)
}

// foldTrace adds the collector totals not yet folded into the metrics
// registry. Called after every RunAll barrier; delta-based so repeated
// folds never double-count.
func (l *labCore) foldTrace() {
	if l.trace == nil {
		return
	}
	emitted, dropped := l.trace.Totals()
	l.mu.Lock()
	de, dd := emitted-l.traceFoldedEmitted, dropped-l.traceFoldedDropped
	l.traceFoldedEmitted, l.traceFoldedDropped = emitted, dropped
	l.mu.Unlock()
	l.met.traceEmitted.Add(de)
	l.met.traceDropped.Add(dd)
}

// Timings returns the per-experiment timing report, filled by
// Registry.RunAll.
func (l *Lab) Timings() *obs.Timings { return l.met.timings }

// fanout runs fn(i) for i in [0, n) on the lab's worker pool, counting the
// n work cells globally and, on an experiment view, to that experiment.
// Every experiment-level parallel loop goes through here. Each cell runs
// behind the fault boundary: a panic inside one cell is converted to a
// CellError (recorded in the lab's fault sink) instead of crashing the
// process, the remaining cells still run, and after the barrier the first
// failure — or the context's cancellation — is re-raised to abort the
// experiment body, whose own boundary in RunAll reports it.
func (l *Lab) fanout(n int, fn func(i int)) {
	l.fanoutSpanned(n, func(i int, _ *span.Active) { fn(i) })
}

// fanoutSpanned is fanout for bodies that want their cell's span (the
// federation experiment threads it into the fleet as Config.Span). Each
// cell is bracketed by a "cell" span whose ID derives from (experiment
// span, fan-out ordinal, cell index) — deterministic at any worker
// count because the ordinal is taken on the experiment goroutine, before
// the fan-out parallelizes. Cell instants are logical zeros: wall
// clocks would break the byte-identical-across-workers contract.
func (l *Lab) fanoutSpanned(n int, fn func(i int, cs *span.Active)) {
	if n > 0 {
		l.met.cells.Add(uint64(n))
		if l.cells != nil {
			l.cells.Add(uint64(n))
		}
	}
	var ordinal uint64
	if l.sp != nil && l.fanSeq != nil {
		ordinal = l.fanSeq.Add(1) - 1
	}
	l.shieldedForEach(n, func(i int) {
		cs := l.sp.Child("cell", ordinal<<32|uint64(i), 0)
		cs.Attr("fanout", int64(ordinal)).Attr("cell", int64(i))
		defer cs.End(0)
		fn(i, cs)
	})
}

// shieldedForEach is pool.forEach behind the cell fault boundary; see
// fanout. It must be used for every fan-out whose cells can panic, because
// a bare panic on a pool helper goroutine would kill the process.
func (l *Lab) shieldedForEach(n int, fn func(i int)) {
	var firstFail atomic.Pointer[CellError]
	var cancelled atomic.Bool
	l.pool.forEach(n, func(i int) {
		if l.ctx.Err() != nil {
			// Cancelled: skip the cell entirely. Already-running cells
			// abort themselves through their simulators' kernels.
			cancelled.Store(true)
			return
		}
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			if isCancel(r) {
				cancelled.Store(true)
				return
			}
			ce := toCellError(l.owner(), i, r)
			l.sink.add(ce)
			l.met.cellsFailed.Inc()
			firstFail.CompareAndSwap(nil, ce)
		}()
		fn(i)
	})
	if ce := firstFail.Load(); ce != nil {
		panic(ce)
	}
	if cancelled.Load() {
		panic(l.ctx.Err())
	}
}

// run is how the lab simulates a job log: testbed.System.Run under the
// lab's context, recording into tr (nil when tracing is off), then
// observeSim. Experiment controllers are valid by construction, so an
// attach error is a harness bug; it panics for the cell boundary to
// classify, as does an interrupted run's cancellation.
func (l *labCore) run(sys testbed.System, jobs []*job.Job, tr *tracing.Tracer, attach ...func(*engine.Simulator) error) {
	sm, err := sys.Run(l.ctx, jobs, tr, attach...)
	if err != nil {
		panic(err)
	}
	l.observeSim(sm)
}

// observeSim folds a finished simulator's kernel and scheduler counters
// into the lab's metrics. Call it once per completed run; it reads the
// simulator from the calling goroutine, so call it where the run finished.
// A run the context interrupted has no usable results: observeSim aborts
// the computation by panicking with the cancellation, which the cell
// boundary classifies as "unfinished" rather than "failed".
func (l *labCore) observeSim(sm *engine.Simulator) {
	if sm.Interrupted() {
		panic(l.ctx.Err())
	}
	st := sm.Stats()
	m := l.met
	m.simEvents.Add(st.Kernel.Executed)
	m.simScheduled.Add(st.Kernel.Scheduled)
	m.simDrained.Add(st.Kernel.Drained)
	m.simFreeHits.Add(st.Kernel.FreeListHits)
	m.simFreeMisses.Add(st.Kernel.FreeListMisses)
	m.simHeapHighWater.Observe(int64(st.Kernel.HeapHighWater))
	m.engSubmitted.Add(st.Submitted)
	m.engDispatched.Add(st.Dispatched)
	m.engBackfilled.Add(st.Backfilled)
	m.engDirectStarts.Add(st.DirectStarts)
	m.engKills.Add(st.Kills)
	m.engPasses.Add(st.Passes)
	m.simRuns.Inc()
	m.simRunEvents.Observe(float64(st.Kernel.Executed))
}

// Options returns the normalized options.
func (l *labCore) Options() Options { return l.opts }

// System returns the (possibly scaled) testbed system by name.
func (l *labCore) System(name string) testbed.System {
	for _, s := range testbed.All() {
		if s.Name == name {
			return s.Scaled(l.opts.Scale)
		}
	}
	panic(fmt.Sprintf("experiments: unknown system %q", name))
}

// Baseline returns the memoized calibrated log + native-only run for a
// system. Concurrent callers for the same system coalesce onto one
// computation; different systems compute in parallel.
func (l *labCore) Baseline(name string) *baseline {
	b, computed := memoFor(&l.mu, l.baselines, name).get(l.pool, func() *baseline {
		l.baselineComputes.Add(1)
		l.met.baselineComputes.Inc()
		sys := l.System(name)
		log, err := sys.CalibratedLogCtx(l.ctx, l.opts.Seed, 0.015)
		if err != nil {
			panic(err) // cancellation: classified by the cell boundary
		}
		ran := job.CloneAll(log)
		// Only the final native run is traced; calibration's internal
		// sims are throwaway searches, not decisions anyone audits.
		l.run(sys, ran, l.trace.Tracer("baseline/"+name, name, sys.Workload.Machine.CPUs))
		util := stats.Utilization(ran, sys.Workload.Machine.CPUs, 0, sys.Workload.Duration())
		return &baseline{sys: sys, log: log, ran: ran, utilNat: util}
	})
	if !computed {
		l.met.baselineHits.Inc()
	}
	return b
}

// Continual returns the memoized continual-interstitial run for a system
// and job spec, with an optional utilization cap (in percent). Per-key
// singleflight, like Baseline.
func (l *labCore) Continual(name string, spec core.JobSpec, capPct int) *continualRun {
	key := continualKey{system: name, cpus: spec.CPUs, runtime: spec.Runtime, cap: capPct}
	r, computed := memoFor(&l.mu, l.continual, key).get(l.pool, func() *continualRun {
		l.continualComputes.Add(1)
		l.met.continualComputes.Inc()
		b := l.Baseline(name)
		ctrl := core.NewController(spec)
		if capPct > 0 {
			ctrl.UtilCap = float64(capPct) / 100
		}
		label := fmt.Sprintf("continual/%s/%dcpu-%ds-cap%02d", name, spec.CPUs, spec.Runtime, capPct)
		return l.continualOn(b.sys, b.log, l.trace.Tracer(label, name, b.sys.Workload.Machine.CPUs), ctrl)
	})
	if !computed {
		l.met.continualHits.Inc()
	}
	return r
}

// ScaledSystem returns the named testbed system resized by scale under
// the harness's scaling rules (job-count floor, long-runtime-tail clamp)
// — the same transform a Lab with Options.Scale applies — so runs built
// outside a Lab shape workloads identically to the memoized path. Unknown names return an error rather than the Lab's panic: here
// the name is input, not code.
func ScaledSystem(name string, scale float64) (testbed.System, error) {
	for _, s := range testbed.All() {
		if s.Name == name {
			return s.Scaled(Options{Scale: scale}.normalized().Scale), nil
		}
	}
	return testbed.System{}, fmt.Errorf("experiments: unknown system %q", name)
}

// Key names a precomputable Lab artifact: a system's baseline when Spec is
// zero, otherwise the continual run for (System, Spec, CapPct).
type Key struct {
	System string
	Spec   core.JobSpec
	CapPct int
}

// BaselineKey is the warmup key for a system's calibrated log + native run.
func BaselineKey(system string) Key { return Key{System: system} }

// ContinualKey is the warmup key for a continual run.
func ContinualKey(system string, spec core.JobSpec, capPct int) Key {
	return Key{System: system, Spec: spec, CapPct: capPct}
}

// Precompute fans the artifacts for the given keys out across the lab's
// worker pool and returns when all are resolved. Tables call it with their
// whole working set before rendering, so independent baselines and
// continual runs overlap instead of materializing one-by-one on first use.
// Precomputing a key that is already resolved (or concurrently resolving)
// is free. Like fanout, the warmup cells run behind the fault boundary:
// an artifact whose compute panics poisons its memo slot and the failure
// re-surfaces here (and at every later use).
func (l *Lab) Precompute(keys ...Key) {
	l.shieldedForEach(len(keys), func(i int) {
		k := keys[i]
		if k.Spec.CPUs == 0 {
			l.Baseline(k.System)
			return
		}
		l.Continual(k.System, k.Spec, k.CapPct)
	})
}

// continualOn co-simulates log on sys with ctrl, a continual controller,
// recording into tr (nil when tracing is off). It stops ctrl's submissions
// at the log's horizon and keeps only the natives and the interstitial
// start instants (see keepStarts). Every non-preemptive continual run in
// the lab, memo or ablation scenario, takes this one path. ctrl must not
// preempt: a killed record never retires, and its continuation runs
// shorter than ctrl.Spec.
func (l *labCore) continualOn(sys testbed.System, log []*job.Job, tr *tracing.Tracer, ctrl *core.Controller) *continualRun {
	if ctrl.Preempt != nil {
		panic("experiments: a preemptive controller's runs cannot be kept as start instants")
	}
	run := &continualRun{natives: job.CloneAll(log), spec: ctrl.Spec}
	ctrl.StopAt = sys.Workload.Duration()
	ctrl.DiscardRecords = true
	l.run(sys, run.natives, tr, ctrl.Attach, run.keepStarts(ctrl))
	return run
}

// keepStarts is the attach function that records a continual run. Its
// retire hook keeps each interstitial job's start instant and hands the
// record straight back to ctrl for reuse; natives stay in r.natives. Jobs
// of one runtime retire in start order, so starts comes out sorted. The
// finish trace event that follows the hook reads only the record's ID,
// CPUs and runtime, which Recycle leaves alone.
func (r *continualRun) keepStarts(ctrl *core.Controller) func(*engine.Simulator) error {
	return func(sm *engine.Simulator) error {
		sm.SetRetire(func(j *job.Job) {
			if j.Class != job.Interstitial {
				return
			}
			if j.Finish != j.Start+r.spec.Runtime {
				panic(fmt.Sprintf("experiments: continual job %d ran [%d, %d), not %d s", j.ID, j.Start, j.Finish, r.spec.Runtime))
			}
			r.starts = append(r.starts, j.Start)
			ctrl.Recycle(j)
		})
		return nil
	}
}

// records appends to dst the run's interstitial records, rebuilt from its
// starts in one slab: each is Finished, with the spec's CPUs and runtime,
// submitted and started at its start instant. The simulation's job IDs
// are not kept. The records are for a summary to read and drop; the run
// holds only the starts.
func (r *continualRun) records(dst []*job.Job) []*job.Job {
	slab := make([]job.Job, len(r.starts))
	dst = slices.Grow(dst, len(r.starts))
	for i, s := range r.starts {
		j := &slab[i]
		j.ResetInterstitial(0, r.spec.CPUs, r.spec.Runtime, s)
		j.Start, j.Finish, j.State = s, s+r.spec.Runtime, job.Finished
		dst = append(dst, j)
	}
	return dst
}

// randomStarts draws n project start times uniformly over the first frac
// of the horizon.
func randomStarts(r *rand.Rand, n int, horizon sim.Time, frac float64) []sim.Time {
	out := make([]sim.Time, n)
	for i := range out {
		out[i] = sim.Time(r.Float64() * frac * float64(horizon))
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// Renderer is implemented by all experiment results.
type Renderer interface {
	// Render writes the paper-style table or figure to w.
	Render(w io.Writer) error
}
