package tracing

import (
	"bytes"
	"strings"
	"testing"

	"interstitial/internal/span"
)

// sampleSpans builds two traces: a federation run (one epoch, two shard
// advances) and a service request whose cache stage records an outcome.
func sampleSpans(t *testing.T) []span.Span {
	t.Helper()
	rec := span.NewRecorder()
	root := rec.Root("run", 42, 0, 0)
	ep := root.Child("fed.epoch", 0, 0).Attr("epoch", 0)
	ep.Child("fed.shard", 0, 0).Attr("shard", 0).Attr("events", 120).End(3600)
	ep.Child("fed.shard", 1, 0).Attr("shard", 1).Attr("events", 80).End(3600)
	ep.End(3600)
	root.End(7200)
	req := rec.Root("http.plan", 42, 1, 10)
	req.Child("cache", 0, 20).Str("outcome", "hit").End(25)
	req.End(40)
	return rec.Spans()
}

// TestSpansJSONLRoundTrip: write → validate → parse must reproduce the
// spans exactly, and two writes must be byte-identical.
func TestSpansJSONLRoundTrip(t *testing.T) {
	spans := sampleSpans(t)
	var a, b bytes.Buffer
	if err := WriteSpansJSONL(&a, spans); err != nil {
		t.Fatal(err)
	}
	if err := WriteSpansJSONL(&b, spans); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two exports of the same spans differ")
	}
	runs, got, err := ReadJSONLAll(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 0 {
		t.Fatalf("span-only file parsed %d runs", len(runs))
	}
	if len(got) != len(spans) {
		t.Fatalf("parsed %d spans, want %d", len(got), len(spans))
	}
	for i := range got {
		w, g := spans[i], got[i]
		if g.Trace != w.Trace || g.ID != w.ID || g.Parent != w.Parent || g.Name != w.Name ||
			g.Start != w.Start || g.End != w.End || len(g.Attrs) != len(w.Attrs) {
			t.Fatalf("span %d: got %+v want %+v", i, g, w)
		}
		for _, want := range w.Attrs {
			have, ok := g.Attr(want.Key)
			if !ok || have.Str != want.Str || have.Val != want.Val {
				t.Fatalf("span %d attr %q: got %+v want %+v", i, want.Key, have, want)
			}
		}
	}
}

// TestMixedJSONL: one stream holds the runs and their events, then the
// spans, and reads back whole.
func TestMixedJSONL(t *testing.T) {
	var events, spans, mixed bytes.Buffer
	if err := WriteJSONL(&events, testCollector(), nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteSpansJSONL(&spans, sampleSpans(t)); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&mixed, testCollector(), sampleSpans(t)); err != nil {
		t.Fatal(err)
	}
	if mixed.String() != events.String()+spans.String() {
		t.Fatal("mixed stream is not the event lines followed by the span lines")
	}
	runs, got, err := ReadJSONLAll(&mixed)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || len(got) != len(sampleSpans(t)) {
		t.Fatalf("mixed stream read back %d runs and %d spans", len(runs), len(got))
	}
}

// TestSpansValidation rejects the malformed shapes the reader guards.
func TestSpansValidation(t *testing.T) {
	cases := map[string]string{
		"dangling parent":    `{"type":"span","trace":"0000000000000002","id":"0000000000000003","parent":"00000000000000ff","name":"x","start":0,"end":1}`,
		"end before start":   `{"type":"span","trace":"0000000000000002","id":"0000000000000002","name":"x","start":5,"end":1}`,
		"root not own trace": `{"type":"span","trace":"0000000000000002","id":"0000000000000003","name":"x","start":0,"end":1}`,
		"short id":           `{"type":"span","trace":"0000000000000002","id":"2","name":"x","start":0,"end":1}`,
		"no name":            `{"type":"span","trace":"0000000000000002","id":"0000000000000002","start":0,"end":1}`,
		"bad attr type":      `{"type":"span","trace":"0000000000000002","id":"0000000000000002","name":"x","start":0,"end":1,"attrs":{"k":[1]}}`,
		"duplicate id": `{"type":"span","trace":"0000000000000002","id":"0000000000000002","name":"x","start":0,"end":1}` + "\n" +
			`{"type":"span","trace":"0000000000000002","id":"0000000000000002","name":"y","start":0,"end":1}`,
	}
	for name, line := range cases {
		if _, _, err := ReadJSONLAll(strings.NewReader(line)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A parent may appear after its child in the file (two-pass check).
	ok := `{"type":"span","trace":"0000000000000002","id":"0000000000000003","parent":"0000000000000002","name":"child","start":0,"end":1}` + "\n" +
		`{"type":"span","trace":"0000000000000002","id":"0000000000000002","name":"root","start":0,"end":9}`
	if _, _, err := ReadJSONLAll(strings.NewReader(ok)); err != nil {
		t.Errorf("parent-after-child rejected: %v", err)
	}
}

// TestSummarizeSpans: the span sections aggregate latency per name, the
// slowest shard per federation epoch, and outcome attribution.
func TestSummarizeSpans(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSpansJSONL(&buf, sampleSpans(t)); err != nil {
		t.Fatal(err)
	}
	s, err := Summarize(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s.Spans != 6 || s.Traces != 2 || len(s.Runs) != 0 {
		t.Fatalf("Spans=%d Traces=%d Runs=%d, want 6/2/0", s.Spans, s.Traces, len(s.Runs))
	}
	if len(s.Epochs) != 1 {
		t.Fatalf("epochs: %+v", s.Epochs)
	}
	e := s.Epochs[0]
	if e.Epoch != 0 || e.Shard != 0 || e.Events != 120 || e.Shards != 2 {
		t.Fatalf("slowest shard wrong: %+v", e)
	}
	if len(s.Outcomes) != 1 || s.Outcomes[0] != (OutcomeStat{Name: "cache", Outcome: "hit", Count: 1}) {
		t.Fatalf("outcome attribution = %+v", s.Outcomes)
	}
	var rep bytes.Buffer
	if err := s.WriteReport(&rep); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(rep.String(), "spans: 6 in 2 trace(s)\n") {
		t.Fatalf("span-only report does not open with the span count:\n%s", rep.String())
	}
	for _, want := range []string{"fed.shard", "slowest shard per epoch", "hit"} {
		if !strings.Contains(rep.String(), want) {
			t.Errorf("report missing %q:\n%s", want, rep.String())
		}
	}
}

// TestMixedReport: the report of a mixed file is the events-only report,
// one blank line, then the spans-only report.
func TestMixedReport(t *testing.T) {
	report := func(c *Collector, spans []span.Span) string {
		t.Helper()
		var buf, rep bytes.Buffer
		if err := WriteJSONL(&buf, c, spans); err != nil {
			t.Fatal(err)
		}
		s, err := Summarize(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WriteReport(&rep); err != nil {
			t.Fatal(err)
		}
		return rep.String()
	}
	events := report(testCollector(), nil)
	spans := report(nil, sampleSpans(t))
	if got, want := report(testCollector(), sampleSpans(t)), events+"\n"+spans; got != want {
		t.Fatalf("mixed report:\n%s\nwant:\n%s", got, want)
	}
	if !strings.HasPrefix(report(nil, nil), "trace: 0 runs") {
		t.Fatal("an empty trace does not get the decision report")
	}
}
