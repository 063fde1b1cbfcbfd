package experiments

import (
	"bytes"
	"strings"
	"testing"

	"interstitial/internal/tracing"
)

// tracedRun runs one experiment on a fresh traced lab, each run keeping
// at most sampleCap events (0: all), and returns the JSONL export.
func tracedRun(t *testing.T, name string, scale float64, sampleCap, workers int) []byte {
	t.Helper()
	l := NewLab(Options{Seed: 1, Scale: scale, Reps: 2, Samples: 40, Workers: workers})
	col := tracing.NewCollector(sampleCap)
	l.SetTracing(col)
	if _, err := NewRegistry(l).Run(name); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tracing.WriteJSONL(&buf, col, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceDeterministicAcrossWorkers: the headline determinism
// guarantee — two identical traced runs produce byte-identical JSONL at
// any worker count, because run labels are unique, per-run events carry
// kernel time and sequence, and export sorts by label. Table 2 traces
// packing runs; seed-robustness repeats the same scenarios once per
// seed, so its labels must tell the seeds apart. Its ten full continual
// runs are sampled to bound memory; each run line still carries the
// run's full emitted count.
func TestTraceDeterministicAcrossWorkers(t *testing.T) {
	for _, tc := range []struct {
		name      string
		scale     float64
		sampleCap int
	}{
		{"table2", 0.05, 0},
		{"seed-robustness", 0.03, 4096},
	} {
		name := tc.name
		t.Run(name, func(t *testing.T) {
			serial := tracedRun(t, name, tc.scale, tc.sampleCap, 1)
			parallel := tracedRun(t, name, tc.scale, tc.sampleCap, 8)
			if !bytes.Equal(serial, parallel) {
				sl, pl := strings.Split(string(serial), "\n"), strings.Split(string(parallel), "\n")
				for i := range sl {
					if i >= len(pl) || sl[i] != pl[i] {
						t.Fatalf("trace differs between Workers=1 and Workers=8 at line %d:\n  serial:   %s\n  parallel: %s",
							i+1, sl[i], pl[min(i, len(pl)-1)])
					}
				}
				t.Fatalf("trace differs between Workers=1 and Workers=8: %d vs %d lines", len(sl), len(pl))
			}
			// The export must also pass its own schema validator.
			runs, _, err := tracing.ReadJSONLAll(bytes.NewReader(serial))
			if err != nil {
				t.Fatalf("traced %s export fails schema validation: %v", name, err)
			}
			if len(runs) == 0 {
				t.Fatalf("traced %s produced no runs", name)
			}
		})
	}
}

// TestEveryLabRunTraced: with tracing on, every simulation of a job log
// an experiment performs records into its own run, so the trace can
// explain any number in any table. Skipped: the Table 2 family, whose
// traced runs are packings, not simulations; federation, whose shards
// record only the fleet's route/steal events; and scale-stream, whose
// runs are streamed.
func TestEveryLabRunTraced(t *testing.T) {
	skip := map[string]bool{"table2": true, "table3": true, "theoryfit": true, "figure2": true,
		"federation": true, "scale-stream": true}
	for _, name := range AllNames() {
		if skip[name] {
			continue
		}
		t.Run(name, func(t *testing.T) {
			l := NewLab(Options{Seed: 1, Scale: 0.03, Reps: 3, Samples: 50, Workers: 2})
			col := tracing.NewCollector(64) // runs are counted, not read
			l.SetTracing(col)
			if _, err := NewRegistry(l).Run(name); err != nil {
				t.Fatal(err)
			}
			sims := l.met.simRuns.Load()
			if sims == 0 {
				t.Fatal("no simulations ran")
			}
			if traced := uint64(len(col.Runs())); traced != sims {
				t.Fatalf("sim_runs_total = %d, but %d runs were traced", sims, traced)
			}
		})
	}
}

// TestTraceCountersFold: collector totals fold into the lab's metric
// registry exactly once per fold, as deltas.
func TestTraceCountersFold(t *testing.T) {
	l := NewLab(Options{Seed: 1, Scale: 0.05, Reps: 2, Samples: 40})
	col := tracing.NewCollector(0)
	l.SetTracing(col)
	l.Baseline("Ross")
	l.foldTrace()
	emitted, _ := col.Totals()
	if emitted == 0 {
		t.Fatal("traced baseline emitted no events")
	}
	if got := l.met.traceEmitted.Load(); got != emitted {
		t.Fatalf("trace_events_emitted_total = %d, want %d", got, emitted)
	}
	l.foldTrace() // second fold with no new events must not double-count
	if got := l.met.traceEmitted.Load(); got != emitted {
		t.Fatalf("second fold double-counted: %d, want %d", got, emitted)
	}
}

// TestScenarioTracerRecordsKills: ad-hoc scenario simulations (the
// preemption ablation) register per-variant tracers too, so kill
// decisions and their victim ages reach the trace.
func TestScenarioTracerRecordsKills(t *testing.T) {
	l := NewLab(Options{Seed: 1, Scale: 0.05, Reps: 2, Samples: 40, Workers: 8})
	col := tracing.NewCollector(0)
	l.SetTracing(col)
	AblationPreemption(l)
	kills := 0
	for _, tr := range col.Runs() {
		for _, e := range tr.Events() {
			if e.Kind == tracing.KindKill {
				kills++
				if e.Aux < 0 {
					t.Fatalf("kill event with negative victim age: %+v", e)
				}
			}
		}
	}
	if kills == 0 {
		t.Fatal("traced preemption ablation recorded no kill decisions")
	}
}

// TestUntracedLabHandsOutNilTracers: with no collector installed, the
// lab's tracing surface is nil end to end — the disabled fast path.
func TestUntracedLabHandsOutNilTracers(t *testing.T) {
	l := testLab()
	if l.Trace() != nil {
		t.Fatal("fresh lab has a trace collector")
	}
	l.Baseline("Ross") // must run untraced without incident
	l.foldTrace()      // no-op on a nil collector
	if got := l.met.traceEmitted.Load(); got != 0 {
		t.Fatalf("untraced lab folded %d events", got)
	}
}
