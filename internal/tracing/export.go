package tracing

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"interstitial/internal/sim"
	"interstitial/internal/span"
)

// Format names a trace export format for CLI flag parsing.
type Format string

// The supported export formats.
const (
	FormatJSONL  Format = "jsonl"  // one JSON object per line: run headers, events, spans
	FormatChrome Format = "chrome" // Chrome trace-event JSON (Perfetto, chrome://tracing)
	FormatAudit  Format = "audit"  // per-job lifecycle audit table (CSV); events only
)

// ParseFormat validates a -trace-format flag value.
func ParseFormat(s string) (Format, error) {
	switch Format(s) {
	case FormatJSONL, FormatChrome, FormatAudit:
		return Format(s), nil
	}
	return "", fmt.Errorf("tracing: unknown format %q (want jsonl, chrome, or audit)", s)
}

// Export writes the collector's runs and the spans in the given format.
// The audit table has no form for spans, so FormatAudit writes the runs
// only.
func Export(w io.Writer, c *Collector, spans []span.Span, f Format) error {
	switch f {
	case FormatJSONL:
		return WriteJSONL(w, c, spans)
	case FormatChrome:
		return WriteChrome(w, c, spans)
	case FormatAudit:
		return WriteAudit(w, c)
	}
	return fmt.Errorf("tracing: unknown format %q", f)
}

// jsonRun is the JSONL run-header line. Field order is the schema; it is
// stable because encoding/json follows struct declaration order.
type jsonRun struct {
	Type    string `json:"type"` // "run"
	Run     string `json:"run"`
	Machine string `json:"machine,omitempty"`
	CPUs    int    `json:"cpus,omitempty"`
	Emitted uint64 `json:"emitted"`
	Kept    int    `json:"kept"`
	Dropped uint64 `json:"dropped"`
}

// jsonEvent is one JSONL event line.
type jsonEvent struct {
	Type   string `json:"type"` // "event"
	Run    string `json:"run"`
	Seq    uint64 `json:"seq"`
	At     int64  `json:"at"`
	Kind   string `json:"kind"`
	Reason string `json:"reason,omitempty"`
	Job    int    `json:"job,omitempty"`
	CPUs   int    `json:"cpus,omitempty"`
	Busy   int    `json:"busy"`
	Aux    int64  `json:"aux,omitempty"`
}

// jsonSpan is the JSONL span line. IDs travel as fixed-width hex strings
// (span.ID.String()) — JSON numbers can't carry 64 bits losslessly.
// Attrs is a map so encoding/json renders keys sorted: the line is
// byte-deterministic for equal spans.
type jsonSpan struct {
	Type   string         `json:"type"` // "span"
	Trace  string         `json:"trace"`
	ID     string         `json:"id"`
	Parent string         `json:"parent,omitempty"`
	Name   string         `json:"name"`
	Start  int64          `json:"start"`
	End    int64          `json:"end"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

func toJSONSpan(s span.Span) jsonSpan {
	js := jsonSpan{Type: "span", Trace: s.Trace.String(), ID: s.ID.String(),
		Name: s.Name, Start: s.Start, End: s.End}
	if s.Parent != 0 {
		js.Parent = s.Parent.String()
	}
	if len(s.Attrs) > 0 {
		js.Attrs = make(map[string]any, len(s.Attrs))
		putAttrs(js.Attrs, s.Attrs)
	}
	return js
}

// putAttrs stores span attributes in m: a string attribute as its
// string, any other as its number.
func putAttrs(m map[string]any, attrs []span.Attr) {
	for _, a := range attrs {
		if a.Str != "" {
			m[a.Key] = a.Str
		} else {
			m[a.Key] = a.Val
		}
	}
}

// WriteJSONL writes one trace stream: every run as a header line
// followed by its surviving events, runs sorted by label, then one line
// per span in the order given (Recorder.Spans() is already a
// run-independent total order). Two identical simulations produce
// byte-identical streams.
func WriteJSONL(w io.Writer, c *Collector, spans []span.Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, t := range c.Runs() {
		events := t.Events()
		h := jsonRun{Type: "run", Run: t.Run(), Machine: t.Machine(), CPUs: t.CPUs(),
			Emitted: t.Emitted(), Kept: len(events), Dropped: t.Dropped()}
		if err := enc.Encode(h); err != nil {
			return err
		}
		for _, e := range events {
			je := jsonEvent{Type: "event", Run: t.Run(), Seq: e.Seq, At: int64(e.At),
				Kind: e.Kind.String(), Reason: e.Reason.String(),
				Job: e.Job, CPUs: e.CPUs, Busy: e.Busy, Aux: e.Aux}
			if err := enc.Encode(je); err != nil {
				return err
			}
		}
	}
	for _, s := range spans {
		if err := enc.Encode(toJSONSpan(s)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteSpansJSONL writes a span-only stream.
func WriteSpansJSONL(w io.Writer, spans []span.Span) error { return WriteJSONL(w, nil, spans) }

// --- Chrome trace-event export ---

// chromeEvent is the subset of the Chrome trace-event schema we emit:
// complete spans ("X"), counters ("C"), and metadata ("M"). Timestamps
// are microseconds in the format; we map one simulated second to one
// display microsecond, which keeps the timeline proportional.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// jobSpan is one job's residency on the machine, paired from begin/end
// events for the lane-layout pass.
type jobSpan struct {
	job        int
	start, end sim.Time
	cpus       int
	name       string
	reason     string
	outcome    string
}

// beginsSpan reports whether e puts a job on the machine; endsSpan
// whether it takes one off.
func beginsSpan(k Kind) bool { return k == KindStart || k == KindBackfill || k == KindPlace }
func endsSpan(k Kind) bool   { return k == KindFinish || k == KindKill || k == KindRestore }

// WriteChrome renders the collector and the spans as Chrome trace-event
// JSON, loadable in Perfetto or chrome://tracing. Each run is one
// process (one track group per machine): job lifecycle spans are laid
// out on greedy lanes so concurrent jobs never overlap on a row, and a
// busy_cpus counter track shows the utilization the decisions produced.
// Each span trace then gets one process, numbered on from the runs,
// holding its spans as complete events with their IDs and attributes in
// args.
func WriteChrome(w io.Writer, c *Collector, spans []span.Span) error {
	bw := bufio.NewWriter(w)
	if _, err := io.WriteString(bw, "{\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(e chromeEvent) error {
		if !first {
			if _, err := io.WriteString(bw, ",\n"); err != nil {
				return err
			}
		}
		first = false
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		_, err = bw.Write(b)
		return err
	}
	runs := c.Runs()
	for pid, t := range runs {
		events := t.Events()
		name := t.Run()
		if m := t.Machine(); m != "" {
			name = fmt.Sprintf("%s [%s]", t.Run(), m)
		}
		if err := emit(chromeEvent{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": name}}); err != nil {
			return err
		}
		if err := emit(chromeEvent{Name: "process_sort_index", Ph: "M", Pid: pid,
			Args: map[string]any{"sort_index": pid}}); err != nil {
			return err
		}
		jobs, last := pairSpans(events)
		for _, ls := range layoutLanes(jobs, last) {
			dur := int64(ls.s.end - ls.s.start)
			if dur < 1 {
				dur = 1
			}
			if err := emit(chromeEvent{Name: ls.s.name, Ph: "X", Ts: int64(ls.s.start), Dur: dur,
				Pid: pid, Tid: ls.lane + 1, Cat: "job",
				Args: map[string]any{"job": ls.s.job, "cpus": ls.s.cpus, "reason": ls.s.reason, "outcome": ls.s.outcome}}); err != nil {
				return err
			}
		}
		for _, e := range events {
			if e.Busy == NoBusy {
				continue
			}
			if err := emit(chromeEvent{Name: "busy_cpus", Ph: "C", Ts: int64(e.At), Pid: pid, Tid: 0,
				Args: map[string]any{"busy": e.Busy}}); err != nil {
				return err
			}
		}
	}
	pids := make(map[span.ID]int)
	for _, s := range spans {
		pid, ok := pids[s.Trace]
		if !ok {
			pid = len(runs) + len(pids)
			pids[s.Trace] = pid
			if err := emit(chromeEvent{Name: "process_name", Ph: "M", Pid: pid,
				Args: map[string]any{"name": "trace " + s.Trace.String()}}); err != nil {
				return err
			}
		}
		dur := s.Duration()
		if dur < 1 {
			dur = 1
		}
		args := map[string]any{"id": s.ID.String()}
		if s.Parent != 0 {
			args["parent"] = s.Parent.String()
		}
		putAttrs(args, s.Attrs)
		if err := emit(chromeEvent{Name: s.Name, Ph: "X", Ts: s.Start, Dur: dur,
			Pid: pid, Tid: 0, Cat: "span", Args: args}); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(bw, "\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// pairSpans matches begin events to end events per job id and returns the
// spans in begin order plus the latest timestamp seen. Spans whose end
// was dropped by sampling (or whose job outlived the trace) get end = -1.
func pairSpans(events []Event) ([]*jobSpan, sim.Time) {
	var spans []*jobSpan
	open := make(map[int]*jobSpan)
	var last sim.Time
	for _, e := range events {
		if e.At > last {
			last = e.At
		}
		switch {
		case beginsSpan(e.Kind):
			s := &jobSpan{job: e.Job, start: e.At, end: -1, cpus: e.CPUs,
				name: fmt.Sprintf("job %d (%dc)", e.Job, e.CPUs), reason: e.Reason.String(), outcome: "running"}
			spans = append(spans, s)
			open[e.Job] = s
		case endsSpan(e.Kind):
			if s, ok := open[e.Job]; ok {
				s.end = e.At
				if e.Kind == KindKill {
					s.outcome = "killed:" + e.Reason.String()
				} else {
					s.outcome = e.Kind.String()
				}
				delete(open, e.Job)
			}
		}
	}
	for _, s := range spans {
		if s.end < 0 {
			s.end = last
		}
	}
	return spans, last
}

// lanedSpan is a job span assigned to a display lane.
type lanedSpan struct {
	s    *jobSpan
	lane int
}

// layoutLanes assigns spans to the smallest set of non-overlapping lanes
// (greedy earliest-free-lane), so Perfetto rows read like a Gantt chart.
func layoutLanes(spans []*jobSpan, last sim.Time) []lanedSpan {
	ordered := make([]*jobSpan, len(spans))
	copy(ordered, spans)
	sort.SliceStable(ordered, func(i, k int) bool {
		if ordered[i].start != ordered[k].start {
			return ordered[i].start < ordered[k].start
		}
		return ordered[i].job < ordered[k].job
	})
	var laneEnd []sim.Time
	out := make([]lanedSpan, 0, len(ordered))
	for _, s := range ordered {
		lane := -1
		for i, end := range laneEnd {
			if end <= s.start {
				lane = i
				break
			}
		}
		if lane < 0 {
			lane = len(laneEnd)
			laneEnd = append(laneEnd, 0)
		}
		end := s.end
		if end < 0 {
			end = last
		}
		laneEnd[lane] = end
		out = append(out, lanedSpan{s: s, lane: lane})
	}
	return out
}

// WriteAudit renders a per-job lifecycle audit table as CSV: one row per
// job seen in each run, with its submit/start/end instants, the decision
// that started it, and how it ended. Jobs whose records were partially
// dropped by sampling show empty cells for the missing instants.
func WriteAudit(w io.Writer, c *Collector) error {
	bw := bufio.NewWriter(w)
	if _, err := io.WriteString(bw, "run,job,cpus,submitted,started,via,ended,outcome,wait_s,span_s\n"); err != nil {
		return err
	}
	for _, t := range c.Runs() {
		rows := AuditRows(t.Events())
		for _, r := range rows {
			if _, err := fmt.Fprintf(bw, "%s,%d,%d,%s,%s,%s,%s,%s,%s,%s\n",
				t.Run(), r.Job, r.CPUs, optTime(r.Submitted), optTime(r.Started), r.Via,
				optTime(r.Ended), r.Outcome, optDur(r.Wait), optDur(r.Span)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// AuditRow is one job's lifecycle as reconstructed from a run's events.
type AuditRow struct {
	Job  int
	CPUs int
	// Submitted/Started/Ended are -1 when the corresponding event was not
	// in the trace (sampling, or the job never reached that state).
	Submitted, Started, Ended sim.Time
	// Via is the decision that put the job on the machine; Outcome how it
	// left ("finish", "killed:head-blocked", "running", ...).
	Via, Outcome string
	// Wait and Span are derived durations, -1 when underdetermined.
	Wait, Span sim.Time
}

// AuditRows reconstructs per-job lifecycles from one run's events, in
// first-seen order.
func AuditRows(events []Event) []AuditRow {
	idx := make(map[int]int)
	var rows []AuditRow
	row := func(jobID, cpus int) *AuditRow {
		if i, ok := idx[jobID]; ok {
			r := &rows[i]
			if r.CPUs == 0 {
				r.CPUs = cpus
			}
			return r
		}
		idx[jobID] = len(rows)
		rows = append(rows, AuditRow{Job: jobID, CPUs: cpus, Submitted: -1, Started: -1, Ended: -1, Wait: -1, Span: -1, Outcome: "running"})
		return &rows[len(rows)-1]
	}
	for _, e := range events {
		switch {
		case e.Kind == KindSubmit:
			row(e.Job, e.CPUs).Submitted = e.At
		case beginsSpan(e.Kind):
			r := row(e.Job, e.CPUs)
			r.Started = e.At
			r.Via = e.Kind.String()
			if s := e.Reason.String(); s != "" {
				r.Via += ":" + s
			}
		case endsSpan(e.Kind):
			r := row(e.Job, e.CPUs)
			r.Ended = e.At
			if e.Kind == KindKill {
				r.Outcome = "killed:" + e.Reason.String()
			} else {
				r.Outcome = e.Kind.String()
			}
		}
	}
	for i := range rows {
		r := &rows[i]
		if r.Submitted >= 0 && r.Started >= 0 {
			r.Wait = r.Started - r.Submitted
		}
		if r.Started >= 0 && r.Ended >= 0 {
			r.Span = r.Ended - r.Started
		}
	}
	return rows
}

// optTime renders a possibly-unknown instant for CSV.
func optTime(t sim.Time) string {
	if t < 0 {
		return ""
	}
	return fmt.Sprintf("%d", int64(t))
}

// optDur renders a possibly-unknown duration for CSV.
func optDur(d sim.Time) string {
	if d < 0 {
		return ""
	}
	return fmt.Sprintf("%d", int64(d))
}
