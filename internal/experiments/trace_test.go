package experiments

import (
	"bytes"
	"strings"
	"testing"

	"interstitial/internal/tracing"
)

// tracedTable2 runs the shared omniscient sweep on a traced lab and
// returns the JSONL export.
func tracedTable2(t *testing.T, workers int) []byte {
	t.Helper()
	l := NewLab(Options{Seed: 1, Scale: 0.05, Reps: 2, Samples: 40, Workers: workers})
	col := tracing.NewCollector(0)
	l.SetTracing(col)
	if _, err := Table2(l); err != nil {
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
// kernel time and sequence, and export sorts by label.
func TestTraceDeterministicAcrossWorkers(t *testing.T) {
	serial := tracedTable2(t, 1)
	parallel := tracedTable2(t, 8)
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
		t.Fatalf("traced Table 2 export fails schema validation: %v", err)
	}
	if len(runs) == 0 {
		t.Fatal("traced Table 2 produced no runs")
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
