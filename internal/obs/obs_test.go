package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentPrimitives hammers every primitive from many goroutines;
// with -race this is also the data-race proof for the hot paths.
func TestConcurrentPrimitives(t *testing.T) {
	const goroutines = 16
	const perG = 10_000

	r := NewRegistry()
	c := r.Counter("c_total", "test counter")
	g := r.Gauge("g", "test gauge")
	mx := r.MaxGauge("m_high_water", "test max")
	h := r.Histogram("h", "test histogram", []float64{10, 100, 1000})

	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
				g.Add(1)
				mx.Observe(int64(gi*perG + i))
				h.Observe(float64(i % 2000))
			}
		}(gi)
	}
	wg.Wait()

	if got := c.Load(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := g.Load(); got != goroutines*perG {
		t.Errorf("gauge = %d, want %d", got, goroutines*perG)
	}
	if got := mx.Load(); got != goroutines*perG-1 {
		t.Errorf("max = %d, want %d", got, goroutines*perG-1)
	}
	if got := h.Count(); got != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", got, goroutines*perG)
	}
	// Per-goroutine the observed values are 0..1999 cycling; the exact sum
	// is goroutines * sum(i%2000 for i in 0..perG).
	var per float64
	for i := 0; i < perG; i++ {
		per += float64(i % 2000)
	}
	if got, want := h.Sum(), per*goroutines; got != want {
		t.Errorf("histogram sum = %v, want %v", got, want)
	}

	s := r.Snapshot()
	hs, ok := s.Get("h")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	var total uint64
	for _, n := range hs.Counts {
		total += n
	}
	if total != hs.Count {
		t.Errorf("bucket counts sum to %d, histogram count %d", total, hs.Count)
	}
}

// TestHistogramBuckets checks the bucket boundary convention: an
// observation lands in the first bucket whose upper bound is >= v.
func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{10, 100})
	for _, v := range []float64{0, 10, 10.5, 100, 101} {
		h.Observe(v)
	}
	want := []uint64{2, 2, 1} // {0,10}, {10.5,100}, {101}
	for i, n := range want {
		if got := h.counts[i].Load(); got != n {
			t.Errorf("bucket %d = %d, want %d", i, got, n)
		}
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{{}, {10, 10}, {100, 10}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.Gauge("x", "")
}

// TestSnapshotImmutable takes a snapshot, keeps updating the live metrics,
// and asserts the snapshot's values and slices never move.
func TestSnapshotImmutable(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	h := r.Histogram("h", "", []float64{1, 2, 3})
	c.Add(5)
	h.Observe(1.5)

	snap := r.Snapshot()
	before, _ := snap.Get("c_total")
	hb, _ := snap.Get("h")
	counts := append([]uint64(nil), hb.Counts...)
	bounds := append([]float64(nil), hb.Bounds...)

	for i := 0; i < 1000; i++ {
		c.Inc()
		h.Observe(float64(i))
	}

	after, _ := snap.Get("c_total")
	if after.Value != before.Value || after.Value != 5 {
		t.Errorf("snapshot counter moved: %v -> %v", before.Value, after.Value)
	}
	ha, _ := snap.Get("h")
	for i := range counts {
		if ha.Counts[i] != counts[i] {
			t.Errorf("snapshot bucket %d moved: %d -> %d", i, counts[i], ha.Counts[i])
		}
	}
	for i := range bounds {
		if ha.Bounds[i] != bounds[i] {
			t.Errorf("snapshot bound %d moved: %v -> %v", i, bounds[i], ha.Bounds[i])
		}
	}

	// Mutating the snapshot must not reach the registry either.
	ha.Counts[0] = 99
	fresh := r.Snapshot()
	hf, _ := fresh.Get("h")
	if hf.Counts[0] == 99 {
		t.Error("writing a snapshot slice leaked into the registry")
	}
}

// TestWriteText pins the Prometheus exposition format: TYPE lines,
// cumulative buckets, +Inf terminal bucket.
func TestWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("events_total", "events dispatched").Add(42)
	r.Gauge("queue_depth", "").Set(-3)
	r.MaxGauge("heap_high_water", "peak heap").Observe(17)
	h := r.Histogram("run_events", "events per run", []float64{1000, 1_000_000})
	h.Observe(10)
	h.Observe(5000)
	h.Observe(2e6)

	var sb strings.Builder
	if err := r.Snapshot().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP events_total events dispatched",
		"# TYPE events_total counter",
		"events_total 42",
		"queue_depth -3",
		"# TYPE heap_high_water gauge",
		"heap_high_water 17",
		"# TYPE run_events histogram",
		`run_events_bucket{le="1000"} 1`,
		`run_events_bucket{le="1e+06"} 2`,
		`run_events_bucket{le="+Inf"} 3`,
		"run_events_sum 2.00501e+06",
		"run_events_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text dump missing %q:\n%s", want, out)
		}
	}
}

// TestSnapshotJSON ensures a snapshot marshals to JSON (the form run
// manifests embed) and names kinds readably.
func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "help").Inc()
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"kind":"counter"`) {
		t.Errorf("JSON export lacks readable kind: %s", b)
	}
}

func TestTimings(t *testing.T) {
	var ts Timings
	ts.Record("table2", 1500*time.Millisecond, 120, "ok")
	ts.Record("table6", 500*time.Millisecond, 40, "failed")

	rows := ts.Rows()
	if len(rows) != 2 || rows[0].Name != "table2" || rows[1].Cells != 40 {
		t.Fatalf("rows = %+v", rows)
	}

	var sb strings.Builder
	if err := ts.WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"experiment", "table2", "1.5s", "120", "ok", "failed", "total", "2s", "160"} {
		if !strings.Contains(out, want) {
			t.Errorf("timing table missing %q:\n%s", want, out)
		}
	}

	var empty Timings
	sb.Reset()
	if err := empty.WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no experiment timings") {
		t.Errorf("empty table = %q", sb.String())
	}
}

// TestCounterGaugeMaxBasics covers the small-surface methods the big
// concurrent test doesn't distinguish.
func TestCounterGaugeMaxBasics(t *testing.T) {
	var c Counter
	c.Add(3)
	c.Inc()
	if c.Load() != 4 {
		t.Errorf("counter = %d, want 4", c.Load())
	}
	var g Gauge
	g.Set(10)
	if v := g.Add(-4); v != 6 || g.Load() != 6 {
		t.Errorf("gauge = %d (add returned %d), want 6", g.Load(), v)
	}
	var m MaxGauge
	m.Observe(5)
	m.Observe(2)
	if m.Load() != 5 {
		t.Errorf("max = %d, want 5", m.Load())
	}
}

// TestHandlerServesPrometheusText mounts the registry handler and checks
// the response is exactly the WriteText render of a live snapshot, with
// the Prometheus text content type.
func TestHandlerServesPrometheusText(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("handler_hits_total", "requests served")
	c.Add(7)
	reg.Gauge("handler_depth", "").Set(-2)

	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	var want strings.Builder
	if err := reg.Snapshot().WriteText(&want); err != nil {
		t.Fatal(err)
	}
	if rec.Body.String() != want.String() {
		t.Fatalf("handler body:\n%s\nwant WriteText render:\n%s", rec.Body.String(), want.String())
	}
	if !strings.Contains(rec.Body.String(), "handler_hits_total 7") {
		t.Fatalf("body missing counter line:\n%s", rec.Body.String())
	}
}
