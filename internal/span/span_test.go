package span

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"interstitial/internal/obs"
)

// TestIDsDeterministic pins the core contract: span IDs are a pure
// function of (seed, stream, name, index), independent of recording
// order and goroutine interleaving.
func TestIDsDeterministic(t *testing.T) {
	build := func(order []int) []Span {
		rec := NewRecorder()
		root := rec.Root("run", 42, 0, 0)
		kids := make([]*Active, 4)
		for i := range kids {
			kids[i] = root.Child("cell", uint64(i), int64(i))
		}
		for _, i := range order {
			kids[i].Attr("cell", int64(i)).End(int64(i + 10))
		}
		root.End(100)
		return rec.Spans()
	}
	a := build([]int{0, 1, 2, 3})
	b := build([]int{3, 1, 0, 2})
	if len(a) != len(b) || len(a) != 5 {
		t.Fatalf("span counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Parent != b[i].Parent || a[i].Trace != b[i].Trace {
			t.Fatalf("span %d differs across recording orders: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestIDsDistinct checks siblings, names, and streams all mint distinct
// IDs, and that no real span gets the zero ID.
func TestIDsDistinct(t *testing.T) {
	rec := NewRecorder()
	seen := map[ID]bool{}
	add := func(id ID) {
		t.Helper()
		if id == 0 {
			t.Fatal("zero span ID")
		}
		if seen[id] {
			t.Fatalf("duplicate span ID %s", id)
		}
		seen[id] = true
	}
	for stream := uint64(0); stream < 4; stream++ {
		root := rec.Root("run", 1, stream, 0)
		add(root.ID())
		for i := uint64(0); i < 8; i++ {
			add(root.Child("a", i, 0).ID())
			add(root.Child("b", i, 0).ID())
		}
	}
}

// TestConcurrentChildren exercises concurrent Child/End on one parent
// (the fan-out pattern) under the race detector.
func TestConcurrentChildren(t *testing.T) {
	rec := NewRecorder()
	root := rec.Root("run", 7, 0, 0)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := root.Child("cell", uint64(i), 0)
			c.Attr("i", int64(i)).Str("s", "x")
			c.End(1)
		}(i)
	}
	wg.Wait()
	root.End(2)
	if got := rec.Len(); got != 33 {
		t.Fatalf("recorded %d spans, want 33", got)
	}
	// Spans() must be sorted and stable regardless of completion order.
	spans := rec.Spans()
	for i := 1; i < len(spans); i++ {
		a, b := spans[i-1], spans[i]
		if a.Start > b.Start || (a.Start == b.Start && a.ID >= b.ID) {
			t.Fatalf("spans not sorted at %d: %+v then %+v", i, a, b)
		}
	}
}

// TestNilNoOps: the whole API must be inert on nil receivers.
func TestNilNoOps(t *testing.T) {
	var rec *Recorder
	root := rec.Root("run", 1, 0, 0)
	if root != nil {
		t.Fatal("nil recorder minted a span")
	}
	c := root.Child("x", 0, 0).Attr("k", 1).Str("s", "v")
	c.End(1)
	if c != nil || root.ID() != 0 || rec.Len() != 0 || rec.Spans() != nil {
		t.Fatal("nil handles are not inert")
	}
	ctx := NewContext(context.Background(), nil)
	if FromContext(ctx) != nil {
		t.Fatal("nil span attached to context")
	}
}

// TestSpanDisabledZeroAlloc is the hard form of the benchmark: the
// disabled instrumentation path may not allocate at all.
func TestSpanDisabledZeroAlloc(t *testing.T) {
	var rec *Recorder
	root := rec.Root("run", 1, 0, 0)
	allocs := testing.AllocsPerRun(100, func() {
		c := root.Child("x", 3, 0)
		c.Attr("k", 1).Str("s", "v")
		c.End(1)
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkSpanDisabled is guarded by the CI bench-regression gate: the
// disabled path must stay 0 allocs/op and a few ns.
func BenchmarkSpanDisabled(b *testing.B) {
	var rec *Recorder
	root := rec.Root("bench", 1, 0, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := root.Child("x", uint64(i), 0)
		c.Attr("k", 1).Str("s", "v")
		c.End(1)
	}
}

func TestContextRoundTrip(t *testing.T) {
	rec := NewRecorder()
	root := rec.Root("req", 9, 4, 100)
	ctx := NewContext(context.Background(), root)
	if got := FromContext(ctx); got != root {
		t.Fatalf("FromContext = %v, want %v", got, root)
	}
}

// TestEndClamps: End before Start clamps to a zero-length span rather
// than exporting a negative duration the validator would reject.
func TestEndClamps(t *testing.T) {
	rec := NewRecorder()
	rec.Root("r", 1, 0, 50).End(10)
	s := rec.Spans()[0]
	if s.End != s.Start {
		t.Fatalf("End=%d Start=%d, want clamped equal", s.End, s.Start)
	}
}

func TestManifestDeterministic(t *testing.T) {
	build := func() *Manifest {
		m := NewManifest(1, 0.5)
		m.Workers = 4
		m.Set("fleet", 16).Set("route", "work-stealing")
		m.Experiments = []string{"federation"}
		m.SetDigest(0xdeadbeef)
		return m
	}
	a, b := build(), build()
	if a.Compact() != b.Compact() {
		t.Fatalf("compact manifests differ:\n%s\n%s", a.Compact(), b.Compact())
	}
	if !strings.Contains(a.Compact(), `"digest":"00000000deadbeef"`) {
		t.Fatalf("digest not rendered as 16 hex digits: %s", a.Compact())
	}
	if strings.ContainsAny(a.Compact(), "\r\n") {
		t.Fatal("compact manifest contains newlines (not header-safe)")
	}
	var bufA, bufB bytes.Buffer
	if err := a.WriteJSON(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSON(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatal("WriteJSON output differs between identical manifests")
	}
	if !strings.Contains(bufA.String(), `"go": "go`) {
		t.Fatalf("manifest missing toolchain stamp: %s", bufA.String())
	}
}

// TestManifestMetricsJSON pins the metrics snapshot a manifest archives:
// two encodings of the same state are byte-identical, the snapshot
// round-trips (kinds decode through obs.Kind.UnmarshalText), metrics keep
// registration order, and fields keep declaration order.
func TestManifestMetricsJSON(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("b_total", "first").Add(3)
	r.Gauge("a", "").Set(-2)
	r.Histogram("c_seconds", "hist", []float64{1, 10}).Observe(5)
	encode := func() string {
		t.Helper()
		m := NewManifest(1, 0.5)
		snap := r.Snapshot()
		m.Metrics = &snap
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	one := encode()
	if two := encode(); one != two {
		t.Fatalf("manifest encoding not deterministic:\n%s\nvs\n%s", one, two)
	}
	var decoded Manifest
	if err := json.Unmarshal([]byte(one), &decoded); err != nil {
		t.Fatalf("manifest does not parse: %v", err)
	}
	if decoded.Metrics == nil || len(decoded.Metrics.Metrics) != 3 {
		t.Fatalf("round-trip lost the metrics: %+v", decoded.Metrics)
	}
	ms := decoded.Metrics.Metrics
	if ms[0].Name != "b_total" || ms[0].Kind != obs.KindCounter || ms[0].Value != 3 ||
		ms[1].Kind != obs.KindGauge || ms[1].Value != -2 ||
		ms[2].Kind != obs.KindHistogram || ms[2].Count != 1 || len(ms[2].Counts) != 3 {
		t.Errorf("round-trip lost data: %+v", ms)
	}
	// Registration order, not name order, and fields in declaration order.
	iB := strings.Index(one, `"name": "b_total"`)
	iA := strings.Index(one, `"name": "a"`)
	iKind := strings.Index(one, `"kind": "counter"`)
	if iB < 0 || iA < iB || iKind < iB {
		t.Errorf("metric or field order not stable:\n%s", one)
	}
}

// TestSpanAccessors covers the wire-facing accessors: hex rendering,
// trace propagation, duration arithmetic, and attribute lookup.
func TestSpanAccessors(t *testing.T) {
	rec := NewRecorder()
	root := rec.Root("run", 42, 0, 10)
	if got := root.ID().String(); len(got) != 16 {
		t.Fatalf("ID %q is not 16 hex digits", got)
	}
	child := root.Child("cell", 3, 20)
	if child.Trace() != root.ID() {
		t.Fatalf("child trace %v != root ID %v", child.Trace(), root.ID())
	}
	child.Attr("cells", 7).Str("outcome", "ok").End(35)
	root.End(50)

	spans := rec.Spans()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	cell := spans[1] // sorted by start: root(10) then cell(20)
	if cell.Name != "cell" || cell.Duration() != 15 {
		t.Fatalf("cell = %+v, want duration 15", cell)
	}
	if a, ok := cell.Attr("outcome"); !ok || a.Str != "ok" {
		t.Fatalf("outcome attr = %+v, %v", a, ok)
	}
	if _, ok := cell.Attr("missing"); ok {
		t.Fatal("lookup of an unset attribute succeeded")
	}
}
