package experiments

import (
	"fmt"

	"interstitial/internal/core"
	"interstitial/internal/rng"
	"interstitial/internal/testbed"
	"interstitial/internal/workload"
)

// This file implements intra-cell sharding: splitting one big simulation
// into per-machine shards that run concurrently on the lab's worker pool.
//
// The paper's experiments have no cross-machine interaction (machines
// interact only through federation's explicit barriers), so a scenario
// over K machines is embarrassingly parallel per machine. The contract
// that keeps it deterministic is the same one the lab applies across
// cells, pushed one level down:
//
//   - each shard draws randomness from its own stream, seeded by
//     rng.DeriveSeed(Seed, shard) — a pure function of the pair, so shard
//     3's workload is the same whether it runs first, last, or alone;
//   - every shard writes into its own pre-indexed result slot (no shared
//     accumulators, no append under lock);
//   - the merge walks the slots in shard-index order, so float summation
//     order — and therefore every low bit of the merged row — is fixed.
//
// Rendered output is byte-identical at any -workers value; the scheduler
// only decides when each slot is filled, never what it holds.

// IntraCellShards simulates one continual interstitial scenario sharded
// across `shards` independent Blue Mountain-class machines: every shard
// generates its own native log from stream (Seed, shard) and co-simulates
// the paper's 32-CPU x 120s@1GHz continual filler against it. Rows hold
// one line per shard in shard order plus a final machine-weighted merge —
// the fleet-level view of the same run.
func IntraCellShards(l *Lab, shards int) *AblationResult {
	o := l.Options()
	res := &AblationResult{
		Title: fmt.Sprintf("Intra-cell sharding: one scenario across %d machine shards (Blue Mountain hardware)", shards),
		Note:  "per-shard DeriveSeed streams, pool-parallel, shard-order merge: byte-identical at any -workers",
	}
	rows := make([]ablationRow, shards)
	l.fanout(shards, func(s int) {
		sys := testbed.BlueMountain().Scaled(o.Scale)
		log := workload.MustGenerate(sys.Workload, rng.DeriveSeed(o.Seed, uint64(s)))
		spec := core.JobSpec{CPUs: 32, Runtime: sys.Seconds1GHz(120)}
		rows[s], _ = runScenario(l, fmt.Sprintf("shard %d", s), sys, log, spec, 0, nil)
	})
	res.Rows = append(rows, mergeShardRows(rows))
	return res
}

// mergeShardRows folds per-shard rows into the fleet aggregate: counts and
// harvested work add, utilizations and waits average evenly (the shards
// are identical hardware). Iterating the slice in index order keeps the
// float sums deterministic.
func mergeShardRows(rows []ablationRow) ablationRow {
	m := ablationRow{Label: fmt.Sprintf("merged (%d shards)", len(rows))}
	for _, r := range rows {
		m.InterstitialJobs += r.InterstitialJobs
		m.HarvestedCPUh += r.HarvestedCPUh
		m.OverallUtil += r.OverallUtil
		m.NativeUtil += r.NativeUtil
		m.NativeMedianWait += r.NativeMedianWait
		m.NativeMeanWait += r.NativeMeanWait
		m.BigMedianWait += r.BigMedianWait
	}
	n := float64(len(rows))
	m.OverallUtil /= n
	m.NativeUtil /= n
	m.NativeMedianWait /= n
	m.NativeMeanWait /= n
	m.BigMedianWait /= n
	return m
}
