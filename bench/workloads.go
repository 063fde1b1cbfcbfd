package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"interstitial/internal/core"
	"interstitial/internal/engine"
	"interstitial/internal/experiments"
	"interstitial/internal/federation"
	"interstitial/internal/job"
	"interstitial/internal/sched"
	"interstitial/internal/testbed"
	jobs "interstitial/internal/workload"
)

// workload is one set of inputs the benchmark runs. pass runs one pass of
// it — set-up, then the timed phase — in the calling child process.
type workload struct {
	name string
	pass func(*passCtx)
}

// workloads in the order a full run measures them. Each stresses different
// layers; README.md says why each was chosen and what it should and should
// not move.
var workloads = []workload{
	{"paper-suite", paperPass},    // calibration, omniscient packing, the lab's memo and pool
	{"stream-250k", streamPass},   // kernel, scheduling passes, the stream generator
	{"fleet-64", fleetPass},       // controller, direct starts, the barrier and merge
	{"advisor-open", advisorPass}, // cache, coalescing, admission, cold sweeps
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Reference outputs per seed, recorded at the commit that defined the
// benchmark. A pass whose seed has an entry must reproduce it exactly;
// every pass is also checked against its twin of the other worker count.
var (
	// paperDigests is the FNV-1a digest of the rendered tables, as
	// `experiments -scale 0.1 -seed N -manifest` reports it.
	paperDigests = map[int64]string{1: "627ad266bc72d2b1", 2: "7907ac519ff75c85"}
	// streamRefs is the retirement digest and native count of stream-250k.
	streamRefs = map[int64]struct {
		digest  string
		natives int
	}{1: {"8115394b98ff0d6c", 248416}, 2: {"8580932b13842eea", 248416}}
	// fleetDigests is fleet-64's retirement digest.
	fleetDigests = map[int64]string{1: "2d10dae9c7714e8b", 2: "b9b85626d88ee252"}
)

// checkRef compares a pass output with its recorded reference, if any.
func checkRef(pc *passCtx, what, got string, refs map[int64]string) {
	if want, ok := refs[pc.seed]; ok && got != want {
		pc.failf("%s %s != reference %s for seed %d", what, got, want, pc.seed)
	}
}

// paperScale sizes the paper suite so that a pair of passes takes a few
// seconds and a run holds several pairs.
const paperScale = 0.1

// paperPass runs the paper's 15 experiments through Registry.RunAll and
// renders them, timing both: the user's time to the tables.
func paperPass(pc *passCtx) {
	workers := 2
	if pc.serial() {
		workers = 1
	}
	lab := experiments.NewLab(experiments.Options{Seed: pc.seed, Scale: paperScale, Workers: workers})
	reg := experiments.NewRegistry(lab)
	lab.SetSpans(pc.rec)
	names := experiments.PaperNames()
	pc.begin(procs)
	sp := pc.span("experiments.RunAll", 0)
	results, report, err := reg.RunAll(names)
	sp.End(pc.micros())
	sp = pc.span("render", 0)
	digest := fnv.New64a()
	for i, name := range names {
		if results[i] == nil {
			continue
		}
		if err := results[i].Render(digest); err != nil {
			pc.failf("render %s: %v", name, err)
		}
		fmt.Fprintf(digest, "  [%s]\n\n", name)
	}
	sp.End(pc.micros())
	wall := pc.end()

	res := pc.res
	res.Wall = wall.Seconds()
	res.Ops = len(names)
	res.Failed = len(names) - len(report.Completed)
	if err != nil || !report.OK() {
		pc.failf("RunAll: %v; %s", err, report)
	}
	res.Digest = fmt.Sprintf("%016x", digest.Sum64())
	checkRef(pc, "tables digest", res.Digest, paperDigests)

	snap := lab.Metrics().Snapshot()
	get := func(name string) float64 {
		m, _ := snap.Get(name)
		return m.Value
	}
	res.Work, res.WorkSecs = get("exp_cells_total"), wall.Seconds()
	l := res.Layers
	l["sim.events"] = get("sim_events_dispatched_total")
	l["sim.heap_hw"] = get("sim_heap_high_water")
	l["sim.freelist_miss_ratio"] = ratio(get("sim_freelist_misses_total"), get("sim_freelist_misses_total")+get("sim_freelist_hits_total"))
	l["engine.passes"] = get("engine_passes_total")
	l["engine.backfill_ratio"] = ratio(get("engine_backfill_fills_total"), get("engine_dispatches_total"))
	l["engine.direct_starts"] = get("engine_interstitial_starts_total")
	l["lab.baseline_hit_ratio"] = ratio(get("lab_baseline_hits_total"), get("lab_baseline_hits_total")+get("lab_baseline_computes_total"))
	l["lab.continual_hit_ratio"] = ratio(get("lab_continual_hits_total"), get("lab_continual_hits_total")+get("lab_continual_computes_total"))
	l["lab.pool_peak"] = get("pool_workers_peak")
	for _, row := range lab.Timings().Rows() {
		switch row.Name {
		case "table2", "table4", "table8limited":
			l["exp."+row.Name+"_s"] = row.Wall.Seconds()
		}
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// simLayers records a simulator's counters; heap high water is the
// largest over the simulators summed.
func simLayers(l map[string]float64, sims []*engine.Simulator) {
	var st engine.Stats
	for _, sm := range sims {
		s := sm.Stats()
		st.Dispatched += s.Dispatched
		st.Backfilled += s.Backfilled
		st.DirectStarts += s.DirectStarts
		st.Passes += s.Passes
		st.PassesElided += s.PassesElided
		st.Kernel.Executed += s.Kernel.Executed
		st.Kernel.Scheduled += s.Kernel.Scheduled
		st.Kernel.FreeListMisses += s.Kernel.FreeListMisses
		st.Kernel.SpanJumps += s.Kernel.SpanJumps
		st.Kernel.HeapHighWater = max(st.Kernel.HeapHighWater, s.Kernel.HeapHighWater)
	}
	l["sim.events"] = float64(st.Kernel.Executed)
	l["sim.span_jumps"] = float64(st.Kernel.SpanJumps)
	l["sim.heap_hw"] = float64(st.Kernel.HeapHighWater)
	l["sim.freelist_miss_ratio"] = ratio(float64(st.Kernel.FreeListMisses), float64(st.Kernel.Scheduled))
	l["engine.passes"] = float64(st.Passes)
	l["engine.passes_elided_ratio"] = ratio(float64(st.PassesElided), float64(st.Passes+st.PassesElided))
	l["engine.backfill_ratio"] = ratio(float64(st.Backfilled), float64(st.Dispatched))
	l["engine.direct_starts"] = float64(st.DirectStarts)
}

// timedSource times every pull from a job source.
type timedSource struct {
	src engine.JobSource
	d   time.Duration
}

func (t *timedSource) Next() (*job.Job, bool) {
	t0 := time.Now()
	j, ok := t.src.Next()
	t.d += time.Since(t0)
	return j, ok
}

// ctrlTimer times every call of a simulator's AfterPass hook, where the
// interstitial controller runs.
type ctrlTimer struct {
	d     time.Duration
	calls int64
}

func (c *ctrlTimer) wrap(sm *engine.Simulator) {
	inner := sm.AfterPass
	sm.AfterPass = func(s *engine.Simulator, res sched.PassResult) {
		t0 := time.Now()
		inner(s, res)
		c.d += time.Since(t0)
		c.calls++
	}
}

// streamGrowth grows Blue Mountain in days and jobs for stream-250k: a
// quarter of BenchmarkMillionJobStream's 128x, so that a 30 s run holds a
// dozen passes, each on its own instance, and its median rests on them.
const streamGrowth = 32

// streamPass is BenchmarkMillionJobStream's problem at a quarter of its
// length: Blue Mountain grown streamGrowth times in days and jobs (~248k
// natives at the paper's density) under LSF with a 1024-CPU × 1 h continual
// controller, fed from the O(1)-memory stream and retired into a digest.
func streamPass(pc *passCtx) {
	p := jobs.BlueMountain()
	p.Days *= streamGrowth
	p.Jobs *= streamGrowth
	st, err := jobs.NewStream(p, pc.seed)
	if err != nil {
		pc.failf("NewStream: %v", err)
		return
	}
	sm := engine.New(p.Machine, sched.NewLSF())
	digest := federation.NewDigest()
	var natives, retired int
	sm.SetRetire(func(j *job.Job) {
		digest.Fold(0, j)
		retired++
		if j.Class == job.Native {
			natives++
		}
	})
	ctrl := core.NewController(core.JobSpec{CPUs: 1024, Runtime: 3600})
	ctrl.StopAt = p.Duration()
	ctrl.DiscardRecords = true
	if err := ctrl.Attach(sm); err != nil {
		pc.failf("Attach: %v", err)
		return
	}
	var src engine.JobSource = st
	var ts *timedSource
	var ct ctrlTimer
	if pc.traced() {
		ts = &timedSource{src: st}
		src = ts
		ct.wrap(sm)
	}
	sm.SubmitStream(src, 4096)
	// The simulation is single-threaded, so every pass times it on one
	// core. A second core only hosts GC marking, and with it the pass times
	// followed the load of a shared 2-vCPU host: ten 30 s runs spread 0.12
	// on two cores against 0.08 on one.
	pc.begin(1)
	sp := pc.span("engine.Run", 0)
	sm.Run()
	sp.End(pc.micros())
	wall := pc.end()

	res := pc.res
	res.Wall = wall.Seconds()
	res.Ops = 1
	res.Work, res.WorkSecs = float64(retired), wall.Seconds()
	res.Digest = fmt.Sprintf("%016x", uint64(digest))
	if natives != st.Total() {
		pc.failf("retired %d natives, streamed %d", natives, st.Total())
	}
	if err := sm.CheckInvariants(); err != nil {
		pc.failf("invariants: %v", err)
	}
	if ref, ok := streamRefs[pc.seed]; ok && (res.Digest != ref.digest || natives != ref.natives) {
		pc.failf("digest %s natives %d != reference %s %d for seed %d", res.Digest, natives, ref.digest, ref.natives, pc.seed)
	}
	simLayers(res.Layers, []*engine.Simulator{sm})
	if ts != nil {
		l := res.Layers
		l["workload.next_s"] = ts.d.Seconds()
		l["core.ctrl_s"] = ct.d.Seconds()
		l["core.ctrl_calls"] = float64(ct.calls)
		l["engine.self_s"] = (wall - ts.d - ct.d).Seconds()
	}
}

// fleetPass runs 64 shards cycling the three testbeds at scale 0.25 with
// work-stealing routing at 30% demand: ParallelRunner(2) on a par pass,
// serial on a ser pass, with identical retirement digests.
func fleetPass(pc *passCtx) {
	const shards = 64
	all := testbed.All()
	machines := make([]federation.Machine, shards)
	for i := range machines {
		sys, err := experiments.ScaledSystem(all[i%len(all)].Name, 0.25)
		if err != nil {
			pc.failf("ScaledSystem: %v", err)
			return
		}
		machines[i] = federation.Machine{Profile: sys.Workload, NewPolicy: sys.NewPolicy}
	}
	pol, err := federation.ParsePolicy("work-stealing:batch=4,victim=max")
	if err != nil {
		pc.failf("ParsePolicy: %v", err)
		return
	}
	runner := federation.ParallelRunner(2)
	if pc.serial() {
		runner = nil
	}
	var ft *fleetTimer
	if pc.traced() {
		ft = &fleetTimer{pc: pc, inner: runner, ctrl: make([]ctrlTimer, shards)}
		runner = ft.run
	}
	fl, err := federation.New(federation.Config{
		Machines: machines,
		Policy:   pol,
		Unit:     federation.UnitSpec{CPUs: 16, Seconds1GHz: 300},
		Demand:   0.3,
		Seed:     pc.seed,
		Runner:   runner,
	})
	if err != nil {
		pc.failf("federation.New: %v", err)
		return
	}
	sims := make([]*engine.Simulator, shards)
	for i := range sims {
		sims[i] = fl.Sim(i)
		if ft != nil {
			ft.ctrl[i].wrap(sims[i])
		}
	}
	pc.begin(procs)
	sp := pc.span("federation.Run", 0)
	err = fl.Run()
	sp.End(pc.micros())
	wall := pc.end()

	res := pc.res
	st := fl.Stats()
	res.Wall = wall.Seconds()
	res.Ops = 1
	res.Work, res.WorkSecs = float64(st.NativeDone+st.InterstDone), wall.Seconds()
	res.Digest = fmt.Sprintf("%016x", fl.Digest())
	if err != nil {
		pc.failf("Run: %v", err)
	}
	if st.NativeDone == 0 || st.InterstDone == 0 || st.Units == 0 {
		pc.failf("vacuous fleet run: %d natives, %d interstitial jobs, %d units", st.NativeDone, st.InterstDone, st.Units)
	}
	checkRef(pc, "fleet digest", res.Digest, fleetDigests)
	l := res.Layers
	simLayers(l, sims)
	l["fed.barriers"] = float64(st.Barriers)
	l["fed.units"] = float64(st.Units)
	l["fed.steals"] = float64(st.Steals)
	if ft != nil {
		var ctrl time.Duration
		var calls int64
		for i := range ft.ctrl {
			ctrl += ft.ctrl[i].d
			calls += ft.ctrl[i].calls
		}
		l["core.ctrl_s"] = ctrl.Seconds()
		l["core.ctrl_calls"] = float64(calls)
		l["engine.self_s"] = (ft.shardTime - ctrl).Seconds()
		l["fed.advance_s"] = ft.advance.Seconds()
		l["fed.barrier_s"] = (wall - ft.advance).Seconds()
		l["fed.skew"] = ratio(ft.skewSum, float64(ft.epochs))
	}
}

// fleetTimer wraps a fleet's Runner: it times each barrier-to-barrier
// advance, every shard within it, and brackets both with spans.
type fleetTimer struct {
	pc    *passCtx
	inner func(n int, fn func(i int))
	ctrl  []ctrlTimer // per shard: each is touched only by its shard's advance

	epochs    int
	advance   time.Duration
	shardTime time.Duration
	skewSum   float64
}

func (ft *fleetTimer) run(n int, fn func(i int)) {
	ep := ft.pc.span("federation.Runner", uint64(ft.epochs))
	durs := make([]time.Duration, n)
	t0 := time.Now()
	timed := func(i int) {
		sp := ep.Child("shard", uint64(i), ft.pc.micros())
		s := time.Now()
		fn(i)
		durs[i] = time.Since(s)
		sp.End(ft.pc.micros())
	}
	if ft.inner == nil {
		for i := 0; i < n; i++ {
			timed(i)
		}
	} else {
		ft.inner(n, timed)
	}
	ft.advance += time.Since(t0)
	ep.End(ft.pc.micros())
	var sum, hi time.Duration
	for _, d := range durs {
		sum += d
		hi = max(hi, d)
	}
	ft.shardTime += sum
	ft.skewSum += float64(hi) / (float64(sum) / float64(n))
	ft.epochs++
}
