package experiments

import (
	"interstitial/internal/obs"
)

// labMetrics is the harness's metric inventory: one registry per Lab,
// registered once at NewLab so every increment on the hot path is a bare
// atomic on a pre-resolved pointer. Counter semantics:
//
//   - sim_* fold per-run kernel counters in at each simulation's end
//     (observeSim); they cost the kernel nothing per event.
//   - engine_* are the scheduler-level counters (observeSim, same flush).
//   - lab_* count artifact computations vs. singleflight cache hits.
//   - exp_cells_total counts fan-out work cells (one replication task on
//     the worker pool); pool_* track pool traffic and occupancy.
type labMetrics struct {
	reg *obs.Registry

	simEvents        *obs.Counter
	simScheduled     *obs.Counter
	simDrained       *obs.Counter
	simFreeHits      *obs.Counter
	simFreeMisses    *obs.Counter
	simHeapHighWater *obs.MaxGauge
	simRuns          *obs.Counter
	simRunEvents     *obs.Histogram

	engSubmitted    *obs.Counter
	engDispatched   *obs.Counter
	engBackfilled   *obs.Counter
	engDirectStarts *obs.Counter
	engKills        *obs.Counter
	engPasses       *obs.Counter

	baselineComputes  *obs.Counter
	baselineHits      *obs.Counter
	continualComputes *obs.Counter
	continualHits     *obs.Counter

	cells       *obs.Counter
	cellsFailed *obs.Counter
	poolTasks   *obs.Counter
	poolActive  *obs.Gauge
	poolPeak    *obs.MaxGauge
	poolHelpers *obs.Counter
	poolWaits   *obs.Counter

	traceEmitted *obs.Counter
	traceDropped *obs.Counter

	fedUnits      *obs.Counter
	fedSteals     *obs.Counter
	fedMigrations *obs.Counter
	fedShardUtil  *obs.Histogram

	timings *obs.Timings
}

func newLabMetrics() *labMetrics {
	reg := obs.NewRegistry()
	return &labMetrics{
		reg: reg,

		simEvents:        reg.Counter("sim_events_dispatched_total", "kernel events fired across all simulations"),
		simScheduled:     reg.Counter("sim_events_scheduled_total", "kernel events scheduled across all simulations"),
		simDrained:       reg.Counter("sim_events_cancelled_total", "cancelled events drained without firing"),
		simFreeHits:      reg.Counter("sim_freelist_hits_total", "event schedulings served from the item free list"),
		simFreeMisses:    reg.Counter("sim_freelist_misses_total", "event schedulings that allocated a new item"),
		simHeapHighWater: reg.MaxGauge("sim_heap_high_water", "largest pending-event set held by any kernel"),
		simRuns:          reg.Counter("sim_runs_total", "completed simulation runs folded into these metrics"),
		simRunEvents: reg.Histogram("sim_run_events", "events executed per simulation run",
			[]float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8}),

		engSubmitted:    reg.Counter("engine_submissions_total", "native jobs submitted to simulators"),
		engDispatched:   reg.Counter("engine_dispatches_total", "native jobs started by scheduling passes"),
		engBackfilled:   reg.Counter("engine_backfill_fills_total", "native dispatches that jumped the queue (backfill)"),
		engDirectStarts: reg.Counter("engine_interstitial_starts_total", "interstitial jobs placed by StartDirect"),
		engKills:        reg.Counter("engine_interstitial_kills_total", "running interstitial jobs preempted (killed)"),
		engPasses:       reg.Counter("engine_passes_total", "scheduling passes executed"),

		baselineComputes:  reg.Counter("lab_baseline_computes_total", "baseline artifacts actually computed"),
		baselineHits:      reg.Counter("lab_baseline_hits_total", "baseline requests served by singleflight memo"),
		continualComputes: reg.Counter("lab_continual_computes_total", "continual runs actually computed"),
		continualHits:     reg.Counter("lab_continual_hits_total", "continual requests served by singleflight memo"),

		cells:       reg.Counter("exp_cells_total", "experiment work cells fanned onto the pool"),
		cellsFailed: reg.Counter("exp_cells_failed_total", "work cells (or experiment bodies) whose panic was converted to a CellError"),
		poolTasks:   reg.Counter("pool_tasks_total", "tasks executed by the worker pool"),
		poolActive:  reg.Gauge("pool_workers_active", "helper goroutines alive"),
		poolPeak:    reg.MaxGauge("pool_workers_peak", "most goroutines in the pool at once: one calling goroutine plus the helpers alive (at most Workers, plus one per goroutine blocked in a pool wait)"),
		poolHelpers: reg.Counter("pool_helpers_total", "helper goroutines started"),
		poolWaits:   reg.Counter("pool_waits_total", "fan-out joins and memo waits that blocked, lending their slot to a helper"),

		traceEmitted: reg.Counter("trace_events_emitted_total", "scheduler decision events emitted by tracing"),
		traceDropped: reg.Counter("trace_events_dropped_total", "emitted trace events discarded by the sample budget"),

		fedUnits:      reg.Counter("fed_units_routed_total", "interstitial work units routed to federation shards"),
		fedSteals:     reg.Counter("fed_units_stolen_total", "routed units moved between shards by work stealing"),
		fedMigrations: reg.Counter("fed_migrations_total", "home-shard moves made by the locality routing policy"),
		fedShardUtil: reg.Histogram("fed_shard_utilization", "per-shard overall utilization across federated runs",
			[]float64{0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0}),

		timings: &obs.Timings{},
	}
}
