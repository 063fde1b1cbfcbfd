// Package federation simulates a fleet of machines serving one
// interstitial stream. Each machine is a shard — its own engine, queueing
// policy, native workload stream, and RNG stream — and a global router
// grants interstitial work units to shards under a pluggable routing
// policy (random, round-robin, least-loaded, locality-aware,
// work-stealing).
//
// Shards advance in parallel between deterministic epoch barriers, one
// simulated hour apart. At a barrier the fleet (single-threaded) merges
// every shard's retired records in shard-index order, snapshots a routing
// View, and applies the next epoch's grants and steals as entitlement
// deltas on each shard's metered controller — the ddtxn coordinator
// shape: partitioned state, all cross-shard reads and writes at the merge
// step. Work units are fungible
// (the paper's interstitial jobs are identical), so routing k units to a
// shard is raising its controller's Limit by k, and stealing moves that
// entitlement between shards; shard-local admission stays the exact
// Figure 1 algorithm.
//
// Determinism contract: the retirement stream — and therefore Digest —
// is byte-identical for any Runner (any worker count, any shard execution
// order). Shard state is touched only by its own goroutine between
// barriers and only by the fleet goroutine at barriers; the router RNG is
// consumed only at barriers, in shard/unit order; per-shard randomness
// comes from rng.DeriveSeed streams. Records retire through the engine's
// SetRetire path and leave the fleet at the next merge, the last holder of
// every record: it drops the natives and hands each interstitial record
// back to its shard's controller for reuse. So a 100+ machine fleet holds
// O(active jobs + one epoch's retirements) in memory.
package federation

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"interstitial/internal/core"
	"interstitial/internal/engine"
	"interstitial/internal/job"
	"interstitial/internal/rng"
	"interstitial/internal/sched"
	"interstitial/internal/sim"
	"interstitial/internal/span"
	"interstitial/internal/stats"
	"interstitial/internal/tracing"
	"interstitial/internal/workload"
)

// Machine is one fleet member: a native workload profile (which embeds
// the hardware config) plus the machine's queueing policy. Its native
// workload stream derives from the fleet seed and its shard index.
type Machine struct {
	Profile   workload.Profile
	NewPolicy func() sched.Policy
}

// epochLen is the barrier interval in simulated seconds.
const epochLen sim.Time = 3600

// UnitSpec describes the identical interstitial work units the fleet
// routes, in the paper's machine-neutral normalization.
type UnitSpec struct {
	CPUs        int
	Seconds1GHz float64
}

// JobSpec converts the unit into a concrete job spec on a machine of the
// given clock rate (same rounding as testbed.Seconds1GHz).
func (u UnitSpec) JobSpec(clockGHz float64) core.JobSpec {
	return core.JobSpec{CPUs: u.CPUs, Runtime: sim.Time(u.Seconds1GHz/clockGHz + 0.5)}
}

// Config assembles a fleet.
type Config struct {
	// Machines are the shards, in fleet order. Must be non-empty.
	Machines []Machine
	// Policy routes work units to shards; nil defaults to round-robin.
	// Ignored in saturate mode (Demand <= 0).
	Policy Policy
	// Unit is the interstitial work unit being routed.
	Unit UnitSpec
	// Demand is the offered interstitial load as a fraction of the
	// fleet's total capacity: each epoch the router grants
	// Demand * capacity / unitCost fresh units (fractions carry over).
	// Demand <= 0 selects saturate mode: every shard runs an unmetered
	// continual controller and no routing happens — each machine
	// independently soaks up its own spare cycles, the paper's
	// single-machine model replicated N times.
	Demand float64
	// Seed drives the router RNG and the derived per-shard streams.
	Seed int64
	// Runner executes fn(0..n-1), possibly in parallel; nil runs
	// serially. The runner must establish happens-before between the
	// caller and every fn call (any WaitGroup/channel-based pool does).
	// Output is byte-identical for every runner.
	Runner func(n int, fn func(i int))
	// Tracer, when set, records every routing decision (KindRoute) and
	// steal (KindSteal); it is used only at barriers.
	Tracer *tracing.Tracer
	// Span, when set, is the parent under which Run brackets each epoch
	// barrier (fed.epoch), per-shard advance (fed.shard, with the kernel
	// events it executed), and the final drain (fed.drain). Route and
	// steal decisions are Tracer events, not spans. All span instants
	// are simulated seconds and all IDs derive from the parent, so the
	// span tree is byte-identical for any Runner. Nil costs nothing.
	Span *span.Active
	// Ctx, when non-nil, aborts the fleet cooperatively mid-epoch.
	Ctx context.Context
}

// shard is one machine under simulation plus its merge-side bookkeeping.
// Between barriers it is owned by exactly one runner goroutine; at
// barriers, by the fleet goroutine.
type shard struct {
	idx     int
	name    string
	sm      *engine.Simulator
	ctrl    *core.Controller
	horizon sim.Time
	clock   float64
	cpus    int

	// buf collects the epoch's retired records (engine retire hook, shard
	// goroutine); the fleet drains it at the merge barrier.
	buf []*job.Job
	// grants is the FIFO of grant instants for unit-latency tracking:
	// pushed per granted unit, moved tail-first on steals, popped per
	// interstitial retirement.
	grants grantFIFO
	// wake marks the shard for a barrier-instant pass: route sets it when
	// the shard's entitlement grows.
	wake bool

	st ShardStats
}

// ShardStats is one shard's share of the fleet outcome.
type ShardStats struct {
	Machine string
	CPUs    int
	// Granted counts fresh units routed here; StolenIn/StolenOut the
	// entitlement moved by barrier steals.
	Granted   int64
	StolenIn  int64
	StolenOut int64
	// Done and CPU-second splits, from the retirement stream.
	NativeDone        int64
	InterstDone       int64
	NativeCPUSeconds  float64
	InterstCPUSeconds float64
	// Utilization over the shard's whole run window [0, Now].
	Utilization float64
	NativeUtil  float64
}

// Stats is the fleet-level outcome.
type Stats struct {
	Barriers    int64
	Units       int64 // fresh units granted
	Steals      int64 // steal operations applied
	StolenUnits int64
	Migrations  int64 // locality-policy home moves
	NativeDone  int64
	InterstDone int64
	Shards      []ShardStats
}

// Fleet is a configured federation run. Build with New, drive with Run,
// then read Digest/Stats/UnitLatency/NativeWait.
type Fleet struct {
	cfg     Config
	ctx     context.Context
	pol     Policy
	shards  []*shard
	r       *rand.Rand // router RNG; consumed only at barriers
	horizon sim.Time
	metered bool

	view    View
	carry   float64
	unitSeq int64

	digest  Digest64
	waits   stats.Welford // native queue waits, seconds
	unitLat stats.Welford // grant-to-retire unit latency, seconds
	stats   Stats
	ran     bool
}

// New validates the configuration and builds every shard: engine, metered
// controller, native stream. An empty fleet is an error, not a degenerate
// success — a router with nowhere to route is a misconfiguration the
// caller must see.
func New(cfg Config) (*Fleet, error) {
	if len(cfg.Machines) == 0 {
		return nil, fmt.Errorf("federation: empty fleet (no machines)")
	}
	if cfg.Unit.CPUs < 1 || cfg.Unit.Seconds1GHz <= 0 {
		return nil, fmt.Errorf("federation: invalid unit spec %+v", cfg.Unit)
	}
	if cfg.Ctx == nil {
		cfg.Ctx = context.Background()
	}
	metered := cfg.Demand > 0
	pol := cfg.Policy
	if pol == nil {
		pol = &roundRobin{}
	}
	f := &Fleet{
		cfg:     cfg,
		ctx:     cfg.Ctx,
		pol:     pol,
		metered: metered,
		r:       rng.New(rng.DeriveSeed(cfg.Seed, 1<<33)),
		digest:  NewDigest(),
	}
	for i, m := range cfg.Machines {
		p := m.Profile
		horizon := p.Duration()
		src, err := workload.NewStream(p, rng.DeriveSeed(cfg.Seed, uint64(i)))
		if err != nil {
			return nil, fmt.Errorf("federation: shard %d (%s): %w", i, p.Machine.Name, err)
		}
		sm := engine.New(p.Machine, m.NewPolicy())
		sm.SetContext(cfg.Ctx)
		sh := &shard{
			idx: i, name: p.Machine.Name, sm: sm,
			horizon: horizon, clock: p.Machine.ClockGHz, cpus: p.Machine.CPUs,
			st: ShardStats{Machine: p.Machine.Name, CPUs: p.Machine.CPUs},
		}
		sm.SetRetire(func(j *job.Job) { sh.buf = append(sh.buf, j) })
		ctrl := core.NewController(cfg.Unit.JobSpec(p.Machine.ClockGHz))
		ctrl.StopAt = horizon
		ctrl.DiscardRecords = true
		ctrl.Metered = metered
		if err := ctrl.Attach(sm); err != nil {
			return nil, fmt.Errorf("federation: shard %d (%s): %w", i, p.Machine.Name, err)
		}
		sh.ctrl = ctrl
		sm.SubmitStream(src, 0)
		f.shards = append(f.shards, sh)
		if horizon > f.horizon {
			f.horizon = horizon
		}
	}
	return f, nil
}

// NumShards reports the fleet size.
func (f *Fleet) NumShards() int { return len(f.shards) }

// Sim exposes shard i's simulator for post-run observation (stats
// folding). Do not drive it while the fleet runs.
func (f *Fleet) Sim(i int) *engine.Simulator { return f.shards[i].sm }

// Run drives the fleet to completion: epoch barriers over [0, horizon),
// then a drain to the last event. It returns the context's error if the
// run was interrupted (results are then partial and must be discarded).
func (f *Fleet) Run() error {
	if f.ran {
		return fmt.Errorf("federation: fleet already ran")
	}
	f.ran = true
	var epoch uint64
	var last sim.Time
	for t := sim.Time(0); t < f.horizon; t += epochLen {
		ep := f.cfg.Span.Child("fed.epoch", epoch, int64(t)).Attr("epoch", int64(epoch))
		if f.metered {
			f.refreshView(t)
			f.route(t)
		}
		f.advanceTo(t, t+epochLen, ep)
		if err := f.interrupted(); err != nil {
			return err
		}
		f.merge()
		f.stats.Barriers++
		ep.End(int64(t + epochLen))
		epoch++
		last = t + epochLen
	}
	dr := f.cfg.Span.Child("fed.drain", epoch, int64(last))
	f.drainSpanned(last, dr)
	if err := f.interrupted(); err != nil {
		return err
	}
	f.merge()
	f.finish()
	if dr != nil {
		end := last
		for _, sh := range f.shards {
			if now := sh.sm.Now(); now > end {
				end = now
			}
		}
		dr.End(int64(end))
	}
	return nil
}

// runEach applies fn to every shard, on the configured Runner when one is
// set. The runner's completion barrier is the epoch barrier.
func (f *Fleet) runEach(fn func(sh *shard)) {
	if f.cfg.Runner == nil {
		for _, sh := range f.shards {
			fn(sh)
		}
		return
	}
	f.cfg.Runner(len(f.shards), func(i int) { fn(f.shards[i]) })
}

// advanceTo runs every shard to the barrier, bracketing each advance
// with a fed.shard span recording how many kernel events the shard
// executed this epoch — the per-epoch critical-path signal tracescope
// reports. Child IDs derive from (ep, shard index), and instants
// are the barrier bounds, so concurrent runners record identical spans.
func (f *Fleet) advanceTo(from, to sim.Time, ep *span.Active) {
	f.runEach(func(sh *shard) {
		cs := ep.Child("fed.shard", uint64(sh.idx), int64(from))
		var before uint64
		if cs != nil {
			before = sh.sm.Stats().Kernel.Executed
		}
		sh.sm.RunUntil(to)
		if cs != nil {
			cs.Attr("shard", int64(sh.idx)).
				Attr("events", int64(sh.sm.Stats().Kernel.Executed-before)).
				End(int64(to))
		}
	})
}

// drainSpanned runs every shard to its last event, each under a
// fed.shard span ending at the shard's own final clock.
func (f *Fleet) drainSpanned(from sim.Time, dr *span.Active) {
	f.runEach(func(sh *shard) {
		cs := dr.Child("fed.shard", uint64(sh.idx), int64(from))
		var before uint64
		if cs != nil {
			before = sh.sm.Stats().Kernel.Executed
		}
		sh.sm.Run()
		if cs != nil {
			cs.Attr("shard", int64(sh.idx)).
				Attr("events", int64(sh.sm.Stats().Kernel.Executed-before)).
				End(int64(sh.sm.Now()))
		}
	})
}

func (f *Fleet) interrupted() error {
	for _, sh := range f.shards {
		if sh.sm.Interrupted() {
			return f.ctx.Err()
		}
	}
	return nil
}

// merge folds every shard's epoch retirements into the fleet accumulators
// in shard-index order — the single-threaded coordinator step that makes
// the fleet-level retirement stream independent of shard execution order.
// Nothing else holds a retired record, so each interstitial record goes
// back to its shard's controller once folded (core.Controller.Recycle).
func (f *Fleet) merge() {
	for _, sh := range f.shards {
		for _, j := range sh.buf {
			f.digest.Fold(sh.idx, j)
			switch j.Class {
			case job.Native:
				sh.st.NativeDone++
				f.stats.NativeDone++
				sh.st.NativeCPUSeconds += float64(j.CPUs) * float64(j.Runtime)
				f.waits.Add(float64(j.Start - j.Submit))
			case job.Interstitial:
				sh.st.InterstDone++
				f.stats.InterstDone++
				sh.st.InterstCPUSeconds += float64(j.CPUs) * float64(j.Runtime)
				if t, ok := sh.grants.pop(); ok {
					f.unitLat.Add(float64(j.Finish - t))
				}
				sh.ctrl.Recycle(j)
			}
		}
		for i := range sh.buf {
			sh.buf[i] = nil
		}
		sh.buf = sh.buf[:0]
	}
}

// grantFIFO holds grant instants, oldest first, as runs of grants made
// at one instant. A barrier grants each shard its units at one instant,
// so a shard's backlog of thousands of unstarted units takes as many runs
// as barriers it spans, where one entry per unit kept ~1.55M instants
// (12 MB) live at the end of a 64-shard fleet run. runs[head:] are live;
// the popped runs' storage is reused once they pass half the slice, as
// profile.Pack's FIFO does.
type grantFIFO struct {
	runs []grantRun
	head int
}

// grantRun is n grants made at instant at.
type grantRun struct {
	at sim.Time
	n  int
}

// push appends n grants made at t.
func (q *grantFIFO) push(t sim.Time, n int) {
	if k := len(q.runs); k > q.head && q.runs[k-1].at == t {
		q.runs[k-1].n += n
		return
	}
	q.runs = append(q.runs, grantRun{at: t, n: n})
}

// pop takes the oldest grant instant off the FIFO.
func (q *grantFIFO) pop() (sim.Time, bool) {
	if q.head == len(q.runs) {
		return 0, false
	}
	r := &q.runs[q.head]
	t := r.at
	if r.n--; r.n == 0 {
		q.head++
		if q.head > len(q.runs)/2 {
			q.runs, q.head = q.runs[:copy(q.runs, q.runs[q.head:])], 0
		}
	}
	return t, true
}

// moveNewest moves the newest m grants (all of them, if fewer) to the
// tail of to, oldest of them first.
func (q *grantFIFO) moveNewest(m int, to *grantFIFO) {
	i := len(q.runs)
	for i > q.head && m > 0 {
		i--
		m -= q.runs[i].n
	}
	keep := max(-m, 0) // the oldest grants of run i stay
	for k := i; k < len(q.runs); k++ {
		n := q.runs[k].n
		if k == i {
			n -= keep
		}
		to.push(q.runs[k].at, n)
	}
	if keep > 0 {
		q.runs[i].n = keep
		i++
	}
	q.runs = q.runs[:i]
}

// refreshView rebuilds the routing view over the shards whose submission
// window is still open at t.
func (f *Fleet) refreshView(t sim.Time) {
	f.view.UnitCPUs = f.cfg.Unit.CPUs
	f.view.Shards = f.view.Shards[:0]
	for _, sh := range f.shards {
		if t >= sh.horizon {
			continue
		}
		m := sh.sm.Machine()
		f.view.Shards = append(f.view.Shards, ShardView{
			Index: sh.idx, CPUs: sh.cpus, Free: m.Free(), Busy: m.Busy(),
			ClockGHz: sh.clock, Backlog: sh.ctrl.Remaining(),
		})
	}
}

// route first applies the policy's steals — rebalancing entitlement
// left queued from the previous epoch — and then grants the epoch's
// fresh work units shard-by-shard under the policy, all as entitlement
// deltas on the shards' metered controllers. Steals must precede the
// grants: a barrier's fresh grants touch every routable shard, so a
// post-grant view would never show the idle (zero-backlog) shards that
// stealing exists to feed. Every decision happens here, on the fleet
// goroutine, in a fixed order — the router RNG never races.
func (f *Fleet) route(t sim.Time) {
	if len(f.view.Shards) == 0 {
		return
	}
	viewPos := make(map[int]int, len(f.view.Shards))
	for i, s := range f.view.Shards {
		viewPos[s.Index] = i
	}
	if st, ok := f.pol.(Stealer); ok {
		for _, s := range st.Steals(&f.view, f.r) {
			if s.From == s.To || s.Units <= 0 || s.From < 0 || s.From >= len(f.shards) || s.To < 0 || s.To >= len(f.shards) {
				continue // self-steals and malformed moves are dropped
			}
			from, to := f.shards[s.From], f.shards[s.To]
			units := s.Units
			if r := from.ctrl.Remaining(); units > r {
				units = r
			}
			if units <= 0 {
				continue
			}
			from.ctrl.Limit -= units
			to.ctrl.Limit += units
			from.st.StolenOut += int64(units)
			to.st.StolenIn += int64(units)
			f.stats.Steals++
			f.stats.StolenUnits += int64(units)
			to.wake = true
			// Keep the view consistent for the grant loop that follows.
			if i, ok := viewPos[s.From]; ok {
				f.view.Shards[i].Backlog -= units
			}
			if i, ok := viewPos[s.To]; ok {
				f.view.Shards[i].Backlog += units
			}
			// The moved entitlement's latency clock moves with it: the
			// victim's most recent grants become the thief's newest.
			from.grants.moveNewest(units, &to.grants)
			if f.cfg.Tracer != nil {
				f.cfg.Tracer.Emit(t, tracing.KindSteal, tracing.ReasonStolen,
					s.From, units, tracing.NoBusy, int64(s.To))
			}
		}
	}
	// Fresh units this epoch: offered demand over the routable capacity,
	// in 1-GHz CPU-seconds, with the fractional remainder carried.
	unitCost := float64(f.cfg.Unit.CPUs) * f.cfg.Unit.Seconds1GHz
	capacity := 0.0
	for _, s := range f.view.Shards {
		capacity += float64(s.CPUs) * s.ClockGHz * float64(epochLen)
	}
	unitsF := f.carry + f.cfg.Demand*capacity/unitCost
	n := int(unitsF)
	f.carry = unitsF - float64(n)

	mc, _ := f.pol.(migrationCounter)
	for u := 0; u < n; u++ {
		var migBefore int64
		if mc != nil {
			migBefore = mc.Migrations()
		}
		p := f.pol.Pick(&f.view, f.r)
		if p < 0 || p >= len(f.view.Shards) {
			panic(fmt.Sprintf("federation: policy %s picked %d of %d shards", f.pol.Name(), p, len(f.view.Shards)))
		}
		f.view.Shards[p].Backlog++
		sh := f.shards[f.view.Shards[p].Index]
		sh.ctrl.Limit++
		sh.st.Granted++
		sh.grants.push(t, 1)
		f.stats.Units++
		f.unitSeq++
		sh.wake = true
		if f.cfg.Tracer != nil {
			reason := tracing.ReasonRouted
			if mc != nil && mc.Migrations() > migBefore {
				reason = tracing.ReasonMigrated
			}
			f.cfg.Tracer.Emit(t, tracing.KindRoute, reason,
				int(f.unitSeq), f.cfg.Unit.CPUs, f.view.Shards[p].Busy, int64(sh.idx))
		}
	}
	// Wake every shard whose entitlement grew: an event at t in the
	// submit phase (marking scheduler state dirty) followed by a pass
	// request, so the admission pass actually runs at the barrier instant
	// instead of being elided or deferred to the next native event.
	for _, sh := range f.shards {
		if !sh.wake {
			continue
		}
		sh.wake = false
		at := t
		sh.sm.ScheduleAt(at, func(s *engine.Simulator) { s.RequestPassAt(at) })
	}
}

// finish fills the per-shard outcome (utilization splits) and the
// policy's migration total after the drain.
func (f *Fleet) finish() {
	f.stats.Shards = make([]ShardStats, len(f.shards))
	for i, sh := range f.shards {
		nat, inter := sh.sm.Machine().CPUSeconds()
		if now := sh.sm.Now(); now > 0 {
			capacity := float64(sh.cpus) * float64(now)
			sh.st.NativeUtil = nat / capacity
			sh.st.Utilization = (nat + inter) / capacity
		}
		f.stats.Shards[i] = sh.st
	}
	if mc, ok := f.pol.(migrationCounter); ok {
		f.stats.Migrations = mc.Migrations()
	}
}

// Stats reports the fleet outcome; call after Run.
func (f *Fleet) Stats() Stats { return f.stats }

// Digest reports the FNV-1a fold over every retired record (all shards,
// merge order). Two fleet runs with equal digests produced identical
// simulated histories.
func (f *Fleet) Digest() uint64 { return uint64(f.digest) }

// UnitLatency summarizes grant-to-retirement latency of the routed work
// units, in seconds.
func (f *Fleet) UnitLatency() stats.Welford { return f.unitLat }

// NativeWait summarizes native queue waits across the fleet, in seconds.
func (f *Fleet) NativeWait() stats.Welford { return f.waits }

// Utilization reports the fleet-wide overall and native utilization:
// CPU-seconds served over capacity, capacity-weighted across shards.
func (f *Fleet) Utilization() (overall, native float64) {
	var nat, inter, capacity float64
	for _, sh := range f.shards {
		n, i := sh.sm.Machine().CPUSeconds()
		nat += n
		inter += i
		capacity += float64(sh.cpus) * float64(sh.sm.Now())
	}
	if capacity == 0 {
		return 0, 0
	}
	return (nat + inter) / capacity, nat / capacity
}

// ParallelRunner returns a Config.Runner executing up to workers shard
// advances concurrently; workers <= 1 returns nil (serial). The barrier
// WaitGroup provides the happens-before edges Config.Runner requires.
func ParallelRunner(workers int) func(n int, fn func(i int)) {
	if workers <= 1 {
		return nil
	}
	return func(n int, fn func(i int)) {
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				fn(i)
			}(i)
		}
		wg.Wait()
	}
}

// Digest64 is a running FNV-1a fold over retired job records, the
// federation analogue of the scale-stream digest: shard index plus the
// record's full field set, in merge order.
type Digest64 uint64

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// NewDigest returns the FNV-1a offset basis.
func NewDigest() Digest64 { return fnvOffset64 }

// Fold mixes one retired record into the digest.
func (d *Digest64) Fold(shard int, j *job.Job) {
	d.fold(uint64(shard), uint64(int64(j.ID)), uint64(j.CPUs), uint64(int64(j.Submit)),
		uint64(int64(j.Start)), uint64(int64(j.Finish)), uint64(int64(j.Runtime)),
		uint64(int64(j.Estimate)), uint64(j.Class), uint64(j.State))
}

// fnvPow64[k] is fnvPrime64^k: folding k zero bytes. Xoring a zero byte
// leaves the hash as it is, so a run of them is k multiplies by the prime.
var fnvPow64 = func() (p [9]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * fnvPrime64
	}
	return p
}()

// fold mixes each word's 8 bytes, least significant first, exactly as
// byte-wise FNV-1a would, but folds the run of zero high bytes that most
// fields have (small counts, times, enums) as one multiply.
func (d *Digest64) fold(ws ...uint64) {
	h := uint64(*d)
	for _, w := range ws {
		n := 0
		for ; w != 0; n++ {
			h ^= w & 0xff
			h *= fnvPrime64
			w >>= 8
		}
		h *= fnvPow64[8-n]
	}
	*d = Digest64(h)
}
