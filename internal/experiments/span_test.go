package experiments

import (
	"bytes"
	"strings"
	"testing"

	"interstitial/internal/span"
	"interstitial/internal/tracing"
)

// spannedFederation runs the federation experiment through the registry
// and returns the rendered table plus, when rec is non-nil, the one-file
// trace of the run: its decision events, then its spans.
func spannedFederation(t *testing.T, workers int, rec *span.Recorder) ([]byte, string) {
	t.Helper()
	l := NewLab(Options{Seed: 1, Scale: 0.02, Reps: 2, Samples: 40, Workers: workers,
		FleetSize: 2, Route: "work-stealing:batch=2,victim=max"})
	var col *tracing.Collector
	if rec != nil {
		col = tracing.NewCollector(0)
	}
	l.SetTracing(col)
	l.SetSpans(rec)
	out, rep, err := NewRegistry(l).RunAll([]string{"federation"})
	if err != nil || len(rep.Failed) > 0 {
		t.Fatalf("RunAll: err=%v failed=%v", err, rep.Failed)
	}
	var rendered bytes.Buffer
	if err := out[0].Render(&rendered); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tracing.WriteJSONL(&buf, col, rec.Spans()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), rendered.String()
}

// TestSpanDeterministicAcrossWorkers is the one-file acceptance gate,
// the sibling of TestTraceDeterministicAcrossWorkers: the trace of
// events and spans for a fixed seed is byte-identical at Workers 1, 4,
// and 8 and across repeat runs, and validates against the schema. Each
// route and steal is recorded once, as an event, never as a span.
func TestSpanDeterministicAcrossWorkers(t *testing.T) {
	ref, _ := spannedFederation(t, 1, span.NewRecorder())
	if len(ref) == 0 {
		t.Fatal("no spans recorded")
	}
	for name, workers := range map[string]int{"workers=4": 4, "workers=8": 8, "repeat": 1} {
		got, _ := spannedFederation(t, workers, span.NewRecorder())
		if !bytes.Equal(got, ref) {
			gl, rl := strings.Split(string(got), "\n"), strings.Split(string(ref), "\n")
			for i := range rl {
				if i >= len(gl) || gl[i] != rl[i] {
					t.Fatalf("%s: trace differs at line %d:\n  ref: %s\n  got: %s",
						name, i+1, rl[i], gl[min(i, len(gl)-1)])
				}
			}
			t.Fatalf("%s: trace differs: %d vs %d lines", name, len(rl), len(gl))
		}
	}
	runs, spans, err := tracing.ReadJSONLAll(bytes.NewReader(ref))
	if err != nil {
		t.Fatalf("trace fails schema validation: %v", err)
	}
	byKind := map[tracing.Kind]int{}
	for _, r := range runs {
		for _, e := range r.Events {
			byKind[e.Kind]++
		}
	}
	if byKind[tracing.KindRoute] == 0 || byKind[tracing.KindSteal] == 0 {
		t.Errorf("trace holds %d route and %d steal events, want both", byKind[tracing.KindRoute], byKind[tracing.KindSteal])
	}
	byName := map[string]int{}
	for _, s := range spans {
		byName[s.Name]++
	}
	for _, name := range []string{"experiments", "federation", "cell", "fed.epoch", "fed.shard"} {
		if byName[name] == 0 {
			t.Errorf("no %q spans recorded: %v", name, byName)
		}
	}
	if byName["fed.route"]+byName["fed.steal"] > 0 {
		t.Errorf("routes or steals recorded as spans: %v", byName)
	}
}

// TestSpansDoNotPerturbOutput: the rendered table is byte-identical with
// span recording on or off — spans are observation only.
func TestSpansDoNotPerturbOutput(t *testing.T) {
	_, plain := spannedFederation(t, 4, nil)
	_, spanned := spannedFederation(t, 4, span.NewRecorder())
	if plain != spanned {
		t.Fatalf("rendered output differs with spans enabled:\n--- off ---\n%s\n--- on ---\n%s", plain, spanned)
	}
}

// TestSharedSweepSpans: an experiment that pulls in the memoized Table 2
// sweep gets the sweep bracketed under a shared.table2 span attached to
// the run root, with the sweep's cells as its children.
func TestSharedSweepSpans(t *testing.T) {
	l := NewLab(Options{Seed: 1, Scale: 0.02, Reps: 2, Samples: 40, Workers: 4})
	rec := span.NewRecorder()
	l.SetSpans(rec)
	if _, rep, err := NewRegistry(l).RunAll([]string{"table3"}); err != nil || len(rep.Failed) > 0 {
		t.Fatalf("RunAll: err=%v failed=%v", err, rep.Failed)
	}
	var shared *span.Span
	var root *span.Span
	spans := rec.Spans()
	for i := range spans {
		switch spans[i].Name {
		case "shared.table2":
			shared = &spans[i]
		case "experiments":
			root = &spans[i]
		}
	}
	if shared == nil || root == nil {
		t.Fatal("missing shared.table2 or experiments root span")
	}
	if shared.Parent != root.ID {
		t.Fatalf("shared.table2 parent %s is not the run root %s", shared.Parent, root.ID)
	}
	cells := 0
	for i := range spans {
		if spans[i].Name == "cell" && spans[i].Parent == shared.ID {
			cells++
		}
	}
	if cells == 0 {
		t.Fatal("shared sweep recorded no cell spans")
	}
}
