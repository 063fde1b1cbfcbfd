// Package span is the request/run tracing layer above the kernel's
// decision tracer (internal/tracing): lightweight spans with explicit
// parent links that bracket the operations "production" traffic flows
// through — an advisord request's admission/cache/coalesce/plan stages,
// an experiment's work cells, a federation run's epochs and shard
// advances.
//
// Design constraints, in order:
//
//  1. Deterministic IDs. A span's ID is a pure function of (parent ID,
//     name, caller-supplied index) through rng.DeriveSeed — never of
//     scheduling order or a random source — so two runs of the same
//     seeded simulation mint byte-identical span trees at any worker
//     count. Callers that want that byte-identity must also supply
//     deterministic Start/End instants (sim.Time, logical clocks); wall
//     clocks are fine for layers (advisord) outside the contract.
//  2. Zero allocation when disabled, like the tracing.Tracer: every
//     method is a no-op on a nil *Recorder or nil *Active, so
//     instrumentation sites need no guards and cost nothing when off.
//  3. Concurrency: Child may be called from many goroutines on one
//     parent (a fan-out bracketing its cells); Attr/Str/End belong to
//     the single goroutine that owns the Active handle. Recorder is
//     fully synchronized.
//
// Spans export through internal/tracing's JSONL writer, in one file with
// the decision events, and cmd/tracescope reports on both.
package span

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"interstitial/internal/rng"
)

// ID identifies a span (and, via the root's ID, its trace). Never zero
// for a real span; zero means "none" (a root's Parent).
type ID uint64

// String renders the ID as fixed-width hex (the wire form).
func (id ID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// Attr is one span attribute. Str takes precedence when non-empty;
// attributes are a small append-only slice, not a map, so recording
// stays cheap and rendering is deterministic.
type Attr struct {
	Key string
	Str string
	Val int64
}

// Span is one finished span. Start/End are in whatever clock the caller
// brackets with (simulated seconds, wall microseconds, or a logical 0).
type Span struct {
	Trace  ID
	ID     ID
	Parent ID // zero for roots
	Name   string
	Start  int64
	End    int64
	Attrs  []Attr
}

// Duration is End - Start in the span's clock units.
func (s *Span) Duration() int64 { return s.End - s.Start }

// Attr returns the attribute's value and whether it is set.
func (s *Span) Attr(key string) (Attr, bool) {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a, true
		}
	}
	return Attr{}, false
}

// Recorder collects finished spans. A nil *Recorder is a valid, inert
// recorder: every method (and every method of the nil *Active handles it
// returns) is a zero-allocation no-op, so callers thread one pointer and
// never guard call sites.
type Recorder struct {
	mu    sync.Mutex
	spans []Span
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// deriveID mints a span ID from a base and a stream, mapping the (single)
// zero output onto 1 so real spans never collide with "none".
func deriveID(base int64, stream uint64) ID {
	id := ID(rng.DeriveSeed(base, stream))
	if id == 0 {
		id = 1
	}
	return id
}

// fnv64a hashes a span name for the child-ID stream (FNV-1a).
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Root opens a root span. Its ID — and therefore the whole trace's ID
// space — derives from (seed, stream) via rng.DeriveSeed: one fixed
// stream per root kind (e.g. a request counter, a run counter) makes
// identical runs mint identical traces. Nil recorders return nil.
func (r *Recorder) Root(name string, seed int64, stream uint64, at int64) *Active {
	if r == nil {
		return nil
	}
	id := deriveID(seed, stream)
	return &Active{rec: r, s: Span{Trace: id, ID: id, Name: name, Start: at}}
}

// Len reports how many finished spans have been recorded.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Spans returns a copy of the finished spans sorted by (Trace, Start,
// ID) — a total order independent of the goroutine interleaving that
// recorded them, so exports are byte-identical across runs.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]Span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, k int) bool {
		a, b := &out[i], &out[k]
		if a.Trace != b.Trace {
			return a.Trace < b.Trace
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.ID < b.ID
	})
	return out
}

func (r *Recorder) record(s Span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Active is an open span. The zero of the API is nil: every method on a
// nil *Active is a no-op returning nil, so disabled instrumentation
// paths allocate nothing. An Active is recorded only when End is called;
// abandoned handles simply vanish.
type Active struct {
	rec *Recorder
	s   Span
}

// ID returns the span's ID (zero on nil handles).
func (a *Active) ID() ID {
	if a == nil {
		return 0
	}
	return a.s.ID
}

// Trace returns the span's trace ID (zero on nil handles).
func (a *Active) Trace() ID {
	if a == nil {
		return 0
	}
	return a.s.Trace
}

// Child opens a child span. The child's ID is a pure function of the
// parent's ID, the name, and index — supply a deterministic index (cell
// number, shard index, epoch counter, a per-request sequence) and the
// tree's IDs reproduce run-to-run regardless of goroutine interleaving.
// Child is safe to call concurrently on one parent; the returned handle
// belongs to the calling goroutine.
func (a *Active) Child(name string, index uint64, at int64) *Active {
	if a == nil {
		return nil
	}
	id := deriveID(int64(a.s.ID), fnv64a(name)+index)
	return &Active{rec: a.rec, s: Span{Trace: a.s.Trace, ID: id, Parent: a.s.ID, Name: name, Start: at}}
}

// Attr appends an integer attribute and returns the handle for chaining.
func (a *Active) Attr(key string, v int64) *Active {
	if a == nil {
		return nil
	}
	a.s.Attrs = append(a.s.Attrs, Attr{Key: key, Val: v})
	return a
}

// Str appends a string attribute and returns the handle for chaining.
func (a *Active) Str(key, v string) *Active {
	if a == nil {
		return nil
	}
	a.s.Attrs = append(a.s.Attrs, Attr{Key: key, Str: v})
	return a
}

// End closes the span at the given instant and records it. Ending twice
// records twice; don't.
func (a *Active) End(at int64) {
	if a == nil {
		return
	}
	a.s.End = at
	if a.s.End < a.s.Start {
		a.s.End = a.s.Start
	}
	a.rec.record(a.s)
}

// ctxKey keys the Active in a context.
type ctxKey struct{}

// NewContext returns ctx carrying the span; a nil span returns ctx
// unchanged (no allocation on the disabled path).
func NewContext(ctx context.Context, a *Active) context.Context {
	if a == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, a)
}

// FromContext returns the context's span, or nil — which every method
// accepts — when none is attached.
func FromContext(ctx context.Context) *Active {
	a, _ := ctx.Value(ctxKey{}).(*Active)
	return a
}
