package tracing

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"interstitial/internal/sim"
	"interstitial/internal/span"
)

// Summary is the analyzer's view of a parsed JSONL trace — its decision
// events and its spans: what cmd/tracescope prints. Build it with
// Summarize.
type Summary struct {
	Runs    []*RunRecord
	Emitted uint64
	Dropped uint64

	// ByKind and ByDecision count surviving events per kind and per
	// (kind, reason) pair.
	ByKind     map[Kind]uint64
	ByDecision map[string]uint64

	// VictimAges are the ages (seconds since start) of every killed
	// interstitial job, preemption and eviction alike, in trace order.
	VictimAges []int64

	// Holes are the largest idle holes across all machine runs: the
	// top intervals between consecutive decisions ranked by idle
	// CPU-seconds (free CPUs × duration).
	Holes []IdleHole

	// Spans counts the span lines, Traces their distinct trace IDs.
	Spans, Traces int

	// SpanNames is the per-name latency breakdown, sorted by name. For
	// advisord spans the durations are wall microseconds; for federation
	// spans, simulated seconds.
	SpanNames []SpanNameStat

	// Epochs lists, for each fed.epoch span, the shard that executed the
	// most kernel events during it — the epoch's critical path. Sorted by
	// (trace, epoch).
	Epochs []EpochStat

	// Outcomes counts spans per (name, outcome attribute): the service's
	// shed, degrade and cache attribution.
	Outcomes []OutcomeStat
}

// IdleHole is one interval during which a machine had idle CPUs and the
// scheduler made no decision.
type IdleHole struct {
	Run      string
	Start    sim.Time
	Duration sim.Time
	FreeCPUs int
}

// Area is the hole's idle capacity in CPU-seconds.
func (h IdleHole) Area() float64 { return float64(h.FreeCPUs) * float64(h.Duration) }

// maxHoles bounds the idle-hole report.
const maxHoles = 5

// SpanNameStat aggregates latency for one span name.
type SpanNameStat struct {
	Name       string
	Count      int
	Total, Max int64 // duration sums in the spans' clock units
}

// Mean is the average duration (0 when empty).
func (n SpanNameStat) Mean() float64 {
	if n.Count == 0 {
		return 0
	}
	return float64(n.Total) / float64(n.Count)
}

// EpochStat names the slowest shard of one federation epoch.
type EpochStat struct {
	Trace  span.ID
	Epoch  int64 // the epoch span's "epoch" attribute
	Shard  int64 // slowest shard's index
	Events int64 // kernel events it executed during the epoch
	Shards int   // shards that reported in this epoch
}

// OutcomeStat counts spans per (name, outcome).
type OutcomeStat struct {
	Name, Outcome string
	Count         int
}

// Summarize parses (and thereby schema-validates) a JSONL trace and
// computes the analyzer's aggregates over its events and its spans.
// Output ordering is deterministic.
func Summarize(r io.Reader) (*Summary, error) {
	runs, spans, err := ReadJSONLAll(r)
	if err != nil {
		return nil, err
	}
	s := &Summary{Runs: runs, ByKind: make(map[Kind]uint64), ByDecision: make(map[string]uint64)}
	var holes []IdleHole
	for _, rec := range runs {
		s.Emitted += rec.Emitted
		s.Dropped += rec.Dropped
		prevAt := sim.Time(-1)
		prevBusy := NoBusy
		for _, e := range rec.Events {
			s.ByKind[e.Kind]++
			s.ByDecision[decisionKey(e)]++
			if e.Kind == KindKill {
				s.VictimAges = append(s.VictimAges, e.Aux)
			}
			if e.Busy != NoBusy && rec.CPUs > 0 {
				if prevBusy != NoBusy && e.At > prevAt && prevBusy < rec.CPUs {
					holes = append(holes, IdleHole{Run: rec.Run, Start: prevAt,
						Duration: e.At - prevAt, FreeCPUs: rec.CPUs - prevBusy})
				}
				prevAt, prevBusy = e.At, e.Busy
			}
		}
	}
	sort.Slice(holes, func(i, k int) bool {
		if holes[i].Area() != holes[k].Area() {
			return holes[i].Area() > holes[k].Area()
		}
		if holes[i].Run != holes[k].Run {
			return holes[i].Run < holes[k].Run
		}
		return holes[i].Start < holes[k].Start
	})
	if len(holes) > maxHoles {
		holes = holes[:maxHoles]
	}
	s.Holes = holes
	s.addSpans(spans)
	return s, nil
}

// addSpans fills the span aggregates.
func (s *Summary) addSpans(spans []span.Span) {
	s.Spans = len(spans)
	traces := make(map[span.ID]bool)
	names := make(map[string]*SpanNameStat)
	epochOf := make(map[span.ID]int64) // fed.epoch span ID -> epoch number
	type epochKey struct {
		trace, id span.ID
	}
	best := make(map[epochKey]*EpochStat)
	outcomes := make(map[[2]string]int)
	for i := range spans {
		sp := &spans[i]
		traces[sp.Trace] = true
		st := names[sp.Name]
		if st == nil {
			st = &SpanNameStat{Name: sp.Name}
			names[sp.Name] = st
		}
		st.Count++
		d := sp.Duration()
		st.Total += d
		if d > st.Max {
			st.Max = d
		}
		if sp.Name == "fed.epoch" {
			if a, ok := sp.Attr("epoch"); ok {
				epochOf[sp.ID] = a.Val
			}
		}
		if a, ok := sp.Attr("outcome"); ok && a.Str != "" {
			outcomes[[2]string{sp.Name, a.Str}]++
		}
	}
	for i := range spans {
		sp := &spans[i]
		if sp.Name != "fed.shard" {
			continue
		}
		epoch, ok := epochOf[sp.Parent]
		if !ok {
			continue // parent is the drain bracket or absent
		}
		shard, _ := sp.Attr("shard")
		events, _ := sp.Attr("events")
		k := epochKey{sp.Trace, sp.Parent}
		e := best[k]
		if e == nil {
			e = &EpochStat{Trace: sp.Trace, Epoch: epoch, Shard: shard.Val, Events: events.Val}
			best[k] = e
		}
		e.Shards++
		if events.Val > e.Events || (events.Val == e.Events && shard.Val < e.Shard) {
			e.Events = events.Val
			e.Shard = shard.Val
		}
	}
	s.Traces = len(traces)
	for _, st := range names {
		s.SpanNames = append(s.SpanNames, *st)
	}
	sort.Slice(s.SpanNames, func(i, k int) bool { return s.SpanNames[i].Name < s.SpanNames[k].Name })
	for _, e := range best {
		s.Epochs = append(s.Epochs, *e)
	}
	sort.Slice(s.Epochs, func(i, k int) bool {
		if s.Epochs[i].Trace != s.Epochs[k].Trace {
			return s.Epochs[i].Trace < s.Epochs[k].Trace
		}
		return s.Epochs[i].Epoch < s.Epochs[k].Epoch
	})
	for k, n := range outcomes {
		s.Outcomes = append(s.Outcomes, OutcomeStat{Name: k[0], Outcome: k[1], Count: n})
	}
	sort.Slice(s.Outcomes, func(i, k int) bool {
		if s.Outcomes[i].Name != s.Outcomes[k].Name {
			return s.Outcomes[i].Name < s.Outcomes[k].Name
		}
		return s.Outcomes[i].Outcome < s.Outcomes[k].Outcome
	})
}

// decisionKey labels a (kind, reason) pair for the decision table.
func decisionKey(e Event) string {
	if e.Reason == ReasonNone {
		return e.Kind.String()
	}
	return e.Kind.String() + "/" + e.Reason.String()
}

// WriteReport renders the summary as the tracescope report: the
// decision sections when the trace holds runs (or nothing at all), then
// a blank line and the span sections when it holds spans.
func (s *Summary) WriteReport(w io.Writer) error {
	if len(s.Runs) > 0 || s.Spans == 0 {
		if err := s.writeDecisions(w); err != nil {
			return err
		}
		if s.Spans > 0 {
			fmt.Fprintln(w)
		}
	}
	if s.Spans > 0 {
		return s.writeSpans(w)
	}
	return nil
}

// writeDecisions renders the run table, the per-decision counts, the
// preemption victims and the largest idle holes.
func (s *Summary) writeDecisions(w io.Writer) error {
	fmt.Fprintf(w, "trace: %d runs, %d events emitted, %d kept, %d dropped by sampling\n\n",
		len(s.Runs), s.Emitted, s.Emitted-s.Dropped, s.Dropped)

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "run\tmachine\tcpus\temitted\tkept\tdropped")
	for _, rec := range s.Runs {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\n",
			rec.Run, rec.Machine, rec.CPUs, rec.Emitted, len(rec.Events), rec.Dropped)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Fprintln(w, "\ndecisions (kind/reason, kept events):")
	keys := make([]string, 0, len(s.ByDecision))
	for k := range s.ByDecision {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, k := range keys {
		fmt.Fprintf(tw, "  %s\t%d\n", k, s.ByDecision[k])
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	if len(s.VictimAges) > 0 {
		ages := append([]int64(nil), s.VictimAges...)
		sort.Slice(ages, func(i, k int) bool { return ages[i] < ages[k] })
		var sum int64
		for _, a := range ages {
			sum += a
		}
		fmt.Fprintf(w, "\npreemption victims: %d kills; age min/median/mean/max = %ds / %ds / %.0fs / %ds\n",
			len(ages), ages[0], ages[len(ages)/2], float64(sum)/float64(len(ages)), ages[len(ages)-1])
	} else {
		fmt.Fprintln(w, "\npreemption victims: none")
	}

	if len(s.Holes) > 0 {
		fmt.Fprintln(w, "\nlargest idle holes (free CPUs × duration between decisions):")
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  run\tstart\tduration\tfree cpus\tcpu-hours idle")
		for _, h := range s.Holes {
			fmt.Fprintf(tw, "  %s\t%d\t%d\t%d\t%.1f\n", h.Run, int64(h.Start), int64(h.Duration), h.FreeCPUs, h.Area()/3600)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// maxEpochRows caps the slowest-shard table; federation sweeps bracket
// hundreds of epochs and the tail is noise.
const maxEpochRows = 20

// writeSpans renders the per-name latency table, the slowest shard of
// each federation epoch, and the outcome attribution.
func (s *Summary) writeSpans(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "spans: %d in %d trace(s)\n", s.Spans, s.Traces)
	if len(s.SpanNames) > 0 {
		fmt.Fprintf(bw, "\n  %-24s %8s %12s %12s %12s\n", "name", "count", "total", "mean", "max")
		for _, n := range s.SpanNames {
			fmt.Fprintf(bw, "  %-24s %8d %12d %12.1f %12d\n", n.Name, n.Count, n.Total, n.Mean(), n.Max)
		}
	}
	if len(s.Epochs) > 0 {
		fmt.Fprintf(bw, "\n  slowest shard per epoch (by kernel events executed):\n")
		fmt.Fprintf(bw, "  %-18s %8s %8s %12s %8s\n", "trace", "epoch", "shard", "events", "shards")
		shown := s.Epochs
		if len(shown) > maxEpochRows {
			shown = shown[:maxEpochRows]
		}
		for _, e := range shown {
			fmt.Fprintf(bw, "  %-18s %8d %8d %12d %8d\n", e.Trace.String(), e.Epoch, e.Shard, e.Events, e.Shards)
		}
		if len(s.Epochs) > maxEpochRows {
			fmt.Fprintf(bw, "  ... %d more epochs\n", len(s.Epochs)-maxEpochRows)
		}
	}
	if len(s.Outcomes) > 0 {
		fmt.Fprintf(bw, "\n  outcomes:\n")
		for _, o := range s.Outcomes {
			fmt.Fprintf(bw, "  %-24s %-20s %8d\n", o.Name, o.Outcome, o.Count)
		}
	}
	return bw.Flush()
}
