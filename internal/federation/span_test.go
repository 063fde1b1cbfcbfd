package federation_test

import (
	"bytes"
	"testing"

	"interstitial/internal/federation"
	"interstitial/internal/span"
	"interstitial/internal/tracing"
)

// runSpannedFleet runs a small work-stealing fleet with span recording
// and returns the exported span JSONL.
func runSpannedFleet(t *testing.T, runner func(int, func(int))) []byte {
	t.Helper()
	pol, err := federation.ParsePolicy("work-stealing:batch=2,victim=max")
	if err != nil {
		t.Fatal(err)
	}
	rec := span.NewRecorder()
	root := rec.Root("fed", 7, 0, 0)
	tr := tracing.NewCollector(0).Tracer("fleet", "fleet", 0)
	fl, err := federation.New(federation.Config{
		Machines: tinyFleet(8, 0.01),
		Policy:   pol,
		Unit:     federation.UnitSpec{CPUs: 16, Seconds1GHz: 300},
		Demand:   0.3,
		Seed:     7,
		Runner:   runner,
		Tracer:   tr,
		Span:     root,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fl.Run(); err != nil {
		t.Fatal(err)
	}
	root.End(0)
	var buf bytes.Buffer
	if err := tracing.WriteSpansJSONL(&buf, rec.Spans()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFleetSpansDeterministicAcrossRunners is the span half of the
// federation acceptance gate: the exported span JSONL is byte-identical
// at workers 1/4/8, under reversed shard order, and across repeat runs —
// and it validates against the schema (every parent present, every
// epoch/shard/drain span well-formed). Routes and steals are tracer
// events only, never spans.
func TestFleetSpansDeterministicAcrossRunners(t *testing.T) {
	ref := runSpannedFleet(t, nil)
	if len(ref) == 0 {
		t.Fatal("no spans recorded")
	}
	_, spans, err := tracing.ReadJSONLAll(bytes.NewReader(ref))
	if err != nil {
		t.Fatalf("span JSONL fails validation: %v", err)
	}
	byName := map[string]int{}
	for _, s := range spans {
		byName[s.Name]++
	}
	for _, name := range []string{"fed", "fed.epoch", "fed.shard", "fed.drain"} {
		if byName[name] == 0 {
			t.Errorf("no %s spans in %v", name, byName)
		}
	}
	if len(byName) != 4 {
		t.Errorf("span names %v, want only fed, fed.epoch, fed.shard and fed.drain", byName)
	}
	for name, r := range map[string]func(int, func(int)){
		"workers=4": federation.ParallelRunner(4),
		"workers=8": federation.ParallelRunner(8),
		"reversed":  reverseRunner,
		"repeat":    nil,
	} {
		if got := runSpannedFleet(t, r); !bytes.Equal(got, ref) {
			t.Errorf("%s: span JSONL differs from serial run", name)
		}
	}
}
