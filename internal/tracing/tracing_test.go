package tracing

import (
	"bytes"
	"strings"
	"testing"

	"interstitial/internal/sim"
)

// TestNilTracerInert: the disabled path is a nil pointer whose every
// method is a safe no-op — the contract every instrumentation site
// relies on.
func TestNilTracerInert(t *testing.T) {
	var tr *Tracer
	tr.Emit(1, KindStart, ReasonHeadOfQueue, 1, 2, 3, 4)
	tr.RunBegin(0)
	tr.RunEnd(10, 5)
	if tr.Emitted() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatalf("nil tracer not inert: emitted=%d dropped=%d events=%v",
			tr.Emitted(), tr.Dropped(), tr.Events())
	}
	if tr.Run() != "" || tr.Machine() != "" || tr.CPUs() != 0 {
		t.Fatal("nil tracer identity not zero")
	}
	var c *Collector
	if c.Tracer("x", "m", 4) != nil {
		t.Fatal("nil collector handed out a non-nil tracer")
	}
	if c.Runs() != nil {
		t.Fatal("nil collector reported runs")
	}
}

// TestKindReasonRoundTrip: every kind and reason survives String →
// Parse, and unknown names are rejected — the schema validator depends
// on both directions.
func TestKindReasonRoundTrip(t *testing.T) {
	for k := Kind(1); k < kindCount; k++ {
		got, ok := ParseKind(k.String())
		if !ok || got != k {
			t.Errorf("ParseKind(%q) = %v,%v want %v", k.String(), got, ok, k)
		}
	}
	for r := Reason(0); r < reasonCount; r++ {
		got, ok := ParseReason(r.String())
		if !ok || got != r {
			t.Errorf("ParseReason(%q) = %v,%v want %v", r.String(), got, ok, r)
		}
	}
	if _, ok := ParseKind("bogus"); ok {
		t.Error("ParseKind accepted bogus")
	}
	if _, ok := ParseReason("bogus"); ok {
		t.Error("ParseReason accepted bogus")
	}
}

// TestUnboundedKeepsAll: with no sample budget every event survives in
// emission order with consecutive sequence numbers.
func TestUnboundedKeepsAll(t *testing.T) {
	tr := newTracer("r", "m", 8, 0)
	for i := 0; i < 100; i++ {
		tr.Emit(sim.Time(i), KindFinish, ReasonNone, i, 1, 2, 0)
	}
	if tr.Emitted() != 100 || tr.Dropped() != 0 {
		t.Fatalf("emitted/dropped = %d/%d, want 100/0", tr.Emitted(), tr.Dropped())
	}
	events := tr.Events()
	if len(events) != 100 {
		t.Fatalf("kept %d events, want 100", len(events))
	}
	for i, e := range events {
		if e.Seq != uint64(i+1) || e.At != sim.Time(i) {
			t.Fatalf("event %d = seq %d at %d", i, e.Seq, int64(e.At))
		}
	}
}

// TestHeadTailSampling: a budget of 10 over 100 emissions keeps the
// first 5 verbatim and a ring over the last 5, counts the middle 90 as
// dropped, and unrolls the ring oldest-first.
func TestHeadTailSampling(t *testing.T) {
	tr := newTracer("r", "m", 8, 10)
	for i := 1; i <= 100; i++ {
		tr.Emit(sim.Time(i), KindFinish, ReasonNone, i, 1, 2, 0)
	}
	if tr.Emitted() != 100 || tr.Dropped() != 90 {
		t.Fatalf("emitted/dropped = %d/%d, want 100/90", tr.Emitted(), tr.Dropped())
	}
	events := tr.Events()
	var seqs []uint64
	for _, e := range events {
		seqs = append(seqs, e.Seq)
	}
	want := []uint64{1, 2, 3, 4, 5, 96, 97, 98, 99, 100}
	if len(seqs) != len(want) {
		t.Fatalf("kept %v, want %v", seqs, want)
	}
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("kept %v, want %v", seqs, want)
		}
	}
	// The invariant the JSONL validator enforces on every run.
	if uint64(len(events))+tr.Dropped() != tr.Emitted() {
		t.Fatal("kept + dropped != emitted")
	}
}

// TestCollectorDuplicateLabelPanics: run labels are the deterministic
// export order, so reusing one is a programming error.
func TestCollectorDuplicateLabelPanics(t *testing.T) {
	c := NewCollector(0)
	c.Tracer("a", "m", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate run label did not panic")
		}
	}()
	c.Tracer("a", "m", 1)
}

// TestCollectorRunsSorted: export order is label order, not
// registration order.
func TestCollectorRunsSorted(t *testing.T) {
	c := NewCollector(0)
	c.Tracer("b", "", 0).Emit(0, KindFinish, ReasonNone, 1, 1, NoBusy, 0)
	c.Tracer("a", "", 0)
	c.Tracer("c", "", 0)
	var got []string
	for _, tr := range c.Runs() {
		got = append(got, tr.Run())
	}
	if strings.Join(got, ",") != "a,b,c" {
		t.Fatalf("runs = %v, want [a b c]", got)
	}
	if e, d := c.Totals(); e != 1 || d != 0 {
		t.Fatalf("totals = %d,%d want 1,0", e, d)
	}
}

// testCollector builds a two-run collector exercising most of the event
// taxonomy: a machine run with a full job lifecycle (submit, start,
// backfill, spawn, kill, a maintenance drain's start and restore,
// finishes) and a machineless pack run.
func testCollector() *Collector {
	c := NewCollector(0)
	tr := c.Tracer("demo/machine", "Demo", 16)
	tr.RunBegin(0)
	tr.Emit(0, KindSubmit, ReasonQueued, 1, 8, 0, 600)
	tr.Emit(0, KindStart, ReasonHeadOfQueue, 1, 8, 8, 0)
	tr.Emit(5, KindSubmit, ReasonQueued, 2, 4, 8, 300)
	tr.Emit(5, KindBackfill, ReasonEASYBackfill, 2, 4, 12, 0)
	tr.Emit(10, KindSpawn, ReasonFresh, 1000001, 2, 12, 0)
	tr.Emit(10, KindPlace, ReasonInterstitialFill, 1000001, 2, 14, 120)
	tr.Emit(40, KindKill, ReasonHeadBlocked, 1000001, 2, 12, 30)
	tr.Emit(50, KindStart, ReasonHeadOfQueue, 900001, 4, 16, 0)
	tr.Emit(100, KindFinish, ReasonNone, 2, 4, 12, 95)
	tr.Emit(200, KindFinish, ReasonNone, 1, 8, 4, 200)
	tr.Emit(3650, KindRestore, ReasonMaintenance, 900001, 4, 0, 0)
	tr.RunEnd(3650, 42)
	pack := c.Tracer("demo/pack", "", 0)
	pack.Emit(0, KindPlace, ReasonOmniscientPack, 0, 64, NoBusy, 16)
	pack.Emit(120, KindPlace, ReasonOmniscientPack, 1, 32, NoBusy, 8)
	return c
}

// TestJSONLRoundTrip: WriteJSONL is deterministic, and ReadJSONLAll
// recovers exactly the events that were written.
func TestJSONLRoundTrip(t *testing.T) {
	c := testCollector()
	var a, b bytes.Buffer
	if err := WriteJSONL(&a, c, nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&b, c, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two exports of the same collector differ")
	}
	runs, _, err := ReadJSONLAll(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := c.Runs()
	if len(runs) != len(want) {
		t.Fatalf("parsed %d runs, want %d", len(runs), len(want))
	}
	for i, rec := range runs {
		tr := want[i]
		if rec.Run != tr.Run() || rec.Machine != tr.Machine() || rec.CPUs != tr.CPUs() {
			t.Fatalf("run %d header = %+v, want %q/%q/%d", i, rec, tr.Run(), tr.Machine(), tr.CPUs())
		}
		events := tr.Events()
		if len(rec.Events) != len(events) {
			t.Fatalf("run %q parsed %d events, want %d", rec.Run, len(rec.Events), len(events))
		}
		for k, e := range rec.Events {
			if e != events[k] {
				t.Fatalf("run %q event %d = %+v, want %+v", rec.Run, k, e, events[k])
			}
		}
	}
}

// TestReadJSONLRejects: the validator catches each class of malformed
// trace the schema rules out.
func TestReadJSONLRejects(t *testing.T) {
	head := `{"type":"run","run":"r","machine":"m","cpus":4,"emitted":1,"kept":1,"dropped":0}`
	cases := map[string]string{
		"bad json":         "{not json",
		"unknown type":     `{"type":"wat"}`,
		"unlabeled run":    `{"type":"run","run":""}`,
		"duplicate run":    head + "\n" + head,
		"undeclared run":   `{"type":"event","run":"ghost","seq":1,"at":0,"kind":"finish","busy":0}`,
		"unknown kind":     head + "\n" + `{"type":"event","run":"r","seq":1,"at":0,"kind":"wat","busy":0}`,
		"unknown reason":   head + "\n" + `{"type":"event","run":"r","seq":1,"at":0,"kind":"finish","reason":"wat","busy":0}`,
		"seq not after":    head + "\n" + `{"type":"event","run":"r","seq":1,"at":0,"kind":"finish","busy":0}` + "\n" + `{"type":"event","run":"r","seq":1,"at":1,"kind":"finish","busy":0}`,
		"time backwards":   head + "\n" + `{"type":"event","run":"r","seq":1,"at":5,"kind":"finish","busy":0}` + "\n" + `{"type":"event","run":"r","seq":2,"at":4,"kind":"finish","busy":0}`,
		"busy over cpus":   head + "\n" + `{"type":"event","run":"r","seq":1,"at":0,"kind":"finish","busy":5}`,
		"busy under -1":    head + "\n" + `{"type":"event","run":"r","seq":1,"at":0,"kind":"finish","busy":-2}`,
		"kept != emitted":  head,
		"kept != lines":    `{"type":"run","run":"r","machine":"m","cpus":4,"emitted":2,"kept":7,"dropped":1}` + "\n" + `{"type":"event","run":"r","seq":1,"at":0,"kind":"finish","busy":0}`,
		"event after head": head + "\n" + `{"type":"event","run":"r","seq":1,"at":0,"kind":"finish","busy":0}` + "\n" + `{"type":"event","run":"r","seq":2,"at":1,"kind":"finish","busy":0}`,
	}
	for name, in := range cases {
		if _, _, err := ReadJSONLAll(strings.NewReader(in)); err == nil {
			t.Errorf("%s: validator accepted malformed trace", name)
		}
	}
	// And the happy path for the same hand-written schema.
	ok := head + "\n" + `{"type":"event","run":"r","seq":1,"at":0,"kind":"finish","busy":0}`
	if _, _, err := ReadJSONLAll(strings.NewReader(ok)); err != nil {
		t.Fatalf("validator rejected well-formed trace: %v", err)
	}
}

// TestSummarize: the analyzer counts decisions, collects victim ages,
// and finds the idle holes between machine decisions.
func TestSummarize(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, testCollector(), nil); err != nil {
		t.Fatal(err)
	}
	s, err := Summarize(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Runs) != 2 || s.Emitted != 15 || s.Dropped != 0 {
		t.Fatalf("summary = %d runs, %d emitted, %d dropped", len(s.Runs), s.Emitted, s.Dropped)
	}
	if s.ByKind[KindPlace] != 3 || s.ByDecision["place/omniscient-pack"] != 2 {
		t.Fatalf("place counts = %d kind, %d pack", s.ByKind[KindPlace], s.ByDecision["place/omniscient-pack"])
	}
	if len(s.VictimAges) != 1 || s.VictimAges[0] != 30 {
		t.Fatalf("victim ages = %v, want [30]", s.VictimAges)
	}
	if len(s.Holes) == 0 {
		t.Fatal("no idle holes found")
	}
	// Largest hole: 3600-50 = 3550s with 16-16=0 free... the biggest
	// positive-area hole is finish(1)@200 busy=4 → restore@3650: 12 free
	// CPUs × 3450 s.
	top := s.Holes[0]
	if top.Run != "demo/machine" || top.Start != 200 || top.Duration != 3450 || top.FreeCPUs != 12 {
		t.Fatalf("largest hole = %+v", top)
	}
	var rep bytes.Buffer
	if err := s.WriteReport(&rep); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"demo/machine", "preemption victims: 1 kills", "largest idle holes"} {
		if !strings.Contains(rep.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, rep.String())
		}
	}
}

// TestSampledExportValidates: a sampled trace (gaps in seq, dropped
// middle) still passes the JSONL schema validator — kept + dropped
// must reconcile with emitted.
func TestSampledExportValidates(t *testing.T) {
	c := NewCollector(8)
	tr := c.Tracer("sampled", "m", 4)
	for i := 1; i <= 1000; i++ {
		tr.Emit(sim.Time(i), KindFinish, ReasonNone, i, 1, 1, 0)
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, c, nil); err != nil {
		t.Fatal(err)
	}
	runs, _, err := ReadJSONLAll(&buf)
	if err != nil {
		t.Fatalf("sampled trace failed validation: %v", err)
	}
	if len(runs) != 1 || len(runs[0].Events) != 8 || runs[0].Dropped != 992 {
		t.Fatalf("sampled run = %d kept, %d dropped", len(runs[0].Events), runs[0].Dropped)
	}
}
