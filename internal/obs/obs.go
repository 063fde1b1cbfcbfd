// Package obs is the simulator's observability layer: hot-path-safe
// metric primitives (counters, gauges, high-water marks, fixed-bucket
// histograms), a named registry with an immutable snapshot export, and a
// per-experiment timing report.
//
// Design constraints, in order:
//
//  1. Zero allocation on the hot path. Every primitive is a fixed-size
//     struct updated with a single atomic RMW; Observe/Inc/Add never
//     allocate and never take locks. Registration (which does allocate)
//     happens once at setup; hot code holds the returned pointer.
//  2. Race-clean under arbitrary concurrency. All state is atomic;
//     Snapshot reads are lock-free and may be (harmlessly) torn across
//     metrics — each individual metric value is itself consistent.
//  3. No effect on simulation output. Metrics are observation only; the
//     rendered tables must be byte-identical with metrics read or ignored
//     (the determinism contract is tested in internal/experiments).
//
// The single-goroutine simulation kernel (internal/sim) does not use these
// primitives on its per-event path — it keeps plain integer counters and
// folds them in here once per finished run — so the kernel's ~20 ns/event
// budget is untouched.
package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. The zero value is ready
// to use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an int64 that can move both ways. The zero value is ready to
// use.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d and returns the new value (so a high-water mark can be fed
// without a second load).
func (g *Gauge) Add(d int64) int64 { return g.v.Add(d) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// MaxGauge records the maximum value ever observed (a high-water mark).
// The zero value is ready to use and reports 0.
type MaxGauge struct {
	v atomic.Int64
}

// Observe raises the mark to v if v exceeds it.
func (m *MaxGauge) Observe(v int64) {
	for {
		cur := m.v.Load()
		if v <= cur {
			return
		}
		if m.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the high-water mark.
func (m *MaxGauge) Load() int64 { return m.v.Load() }

// Histogram counts observations into fixed buckets chosen at construction.
// An observation v lands in the first bucket whose upper bound is >= v;
// values above every bound land in the implicit +Inf bucket. Observe is a
// bounded search plus two atomic adds — no locks, no allocation.
type Histogram struct {
	bounds []float64       // sorted upper bounds; immutable after construction
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram builds a histogram over the given upper bounds, which must
// be strictly increasing. It panics on an empty or unsorted bound set:
// bucket layout is a construction-time decision, not runtime input.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not strictly increasing at %d: %v", i, bounds))
		}
	}
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Kind discriminates metric types in a snapshot.
type Kind int

// Metric kinds, in the order they render.
const (
	KindCounter Kind = iota
	KindGauge
	KindMax
	KindHistogram
)

// String names the kind in Prometheus terms.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge, KindMax:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// MarshalText renders the kind for JSON export (run manifests).
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses an exported kind so archived snapshots decode.
// KindMax renders as "gauge" (Prometheus has no max type), so it decodes
// as KindGauge; the distinction is presentation-only.
func (k *Kind) UnmarshalText(b []byte) error {
	switch string(b) {
	case "counter":
		*k = KindCounter
	case "gauge":
		*k = KindGauge
	case "histogram":
		*k = KindHistogram
	default:
		return fmt.Errorf("obs: unknown metric kind %q", b)
	}
	return nil
}

// metric is one registered primitive.
type metric struct {
	name string
	help string
	kind Kind
	c    *Counter
	g    *Gauge
	m    *MaxGauge
	h    *Histogram
}

// Registry names metrics and exports them. Registration is mutex-guarded
// (it happens once, at setup); reading is lock-free. The zero value is not
// usable — construct with NewRegistry.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byName  map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

// register adds m or panics on a duplicate name. Metric names are code,
// not input: colliding registrations are a programming error.
func (r *Registry) register(m *metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[m.name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", m.name))
	}
	r.byName[m.name] = m
	r.metrics = append(r.metrics, m)
}

// Counter registers and returns a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&metric{name: name, help: help, kind: KindCounter, c: c})
	return c
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&metric{name: name, help: help, kind: KindGauge, g: g})
	return g
}

// MaxGauge registers and returns a high-water-mark gauge.
func (r *Registry) MaxGauge(name, help string) *MaxGauge {
	m := &MaxGauge{}
	r.register(&metric{name: name, help: help, kind: KindMax, m: m})
	return m
}

// Histogram registers and returns a fixed-bucket histogram.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	r.register(&metric{name: name, help: help, kind: KindHistogram, h: h})
	return h
}

// MetricSnapshot is one metric's frozen state. All fields are values or
// freshly allocated slices: a snapshot never aliases live metric state.
// JSON field order is the declaration order below — stable across runs,
// so archived snapshots diff cleanly.
type MetricSnapshot struct {
	Name  string  `json:"name"`
	Help  string  `json:"help,omitempty"`
	Kind  Kind    `json:"kind"`
	Value float64 `json:"value"` // counter / gauge / max value

	// Histogram-only fields. Counts[i] pairs with Bounds[i]; the final
	// Counts entry is the +Inf bucket.
	Count  uint64    `json:"count,omitempty"`
	Sum    float64   `json:"sum,omitempty"`
	Bounds []float64 `json:"bounds,omitempty"`
	Counts []uint64  `json:"counts,omitempty"`
}

// Snapshot is an immutable export of a registry at one instant, in
// registration order.
type Snapshot struct {
	Metrics []MetricSnapshot `json:"metrics"`
}

// Snapshot freezes every registered metric. Individual metrics are read
// atomically; the set as a whole is not a transaction (concurrent updates
// may land between metrics), which is fine for reporting.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	ms := make([]*metric, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.Unlock()

	out := Snapshot{Metrics: make([]MetricSnapshot, 0, len(ms))}
	for _, m := range ms {
		s := MetricSnapshot{Name: m.name, Help: m.help, Kind: m.kind}
		switch m.kind {
		case KindCounter:
			s.Value = float64(m.c.Load())
		case KindGauge:
			s.Value = float64(m.g.Load())
		case KindMax:
			s.Value = float64(m.m.Load())
		case KindHistogram:
			s.Count = m.h.Count()
			s.Sum = m.h.Sum()
			s.Bounds = append([]float64(nil), m.h.bounds...)
			s.Counts = make([]uint64, len(m.h.counts))
			for i := range m.h.counts {
				s.Counts[i] = m.h.counts[i].Load()
			}
		}
		out.Metrics = append(out.Metrics, s)
	}
	return out
}

// Get returns the snapshot of one metric by name.
func (s Snapshot) Get(name string) (MetricSnapshot, bool) {
	for _, m := range s.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return MetricSnapshot{}, false
}

// WriteText renders the snapshot in Prometheus text exposition format
// (HELP/TYPE comments, cumulative histogram buckets).
func (s Snapshot) WriteText(w io.Writer) error {
	for _, m := range s.Metrics {
		if m.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.Name, m.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.Name, m.Kind); err != nil {
			return err
		}
		switch m.Kind {
		case KindHistogram:
			cum := uint64(0)
			for i, b := range m.Bounds {
				cum += m.Counts[i]
				if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", m.Name, formatBound(b), cum); err != nil {
					return err
				}
			}
			cum += m.Counts[len(m.Counts)-1]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %v\n%s_count %d\n",
				m.Name, cum, m.Name, m.Sum, m.Name, m.Count); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s %v\n", m.Name, m.Value); err != nil {
				return err
			}
		}
	}
	return nil
}

// formatBound renders a bucket bound without float noise (1000 not 1e+03).
func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// Handler returns an http.Handler serving the registry's live snapshot in
// Prometheus text exposition format — the same bytes WriteText renders —
// so a daemon can mount the registry at /metrics and be scraped. Each
// request takes a fresh snapshot; the render is buffered so a write error
// mid-export can't leave a truncated body claiming success.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		var buf bytes.Buffer
		if err := r.Snapshot().WriteText(&buf); err != nil {
			http.Error(w, "obs: render: "+err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write(buf.Bytes())
	})
}
