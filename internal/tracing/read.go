package tracing

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"interstitial/internal/sim"
	"interstitial/internal/span"
)

// RunRecord is one run parsed back from a JSONL trace.
type RunRecord struct {
	Run     string
	Machine string
	CPUs    int
	Emitted uint64
	Dropped uint64
	Events  []Event

	kept int // the header's kept count, checked against the event lines
}

// parseSpanID parses the fixed-width hex wire form back to an ID.
func parseSpanID(line int, field, s string) (span.ID, error) {
	if len(s) != 16 {
		return 0, fmt.Errorf("tracing: line %d: span %s %q is not 16 hex digits", line, field, s)
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("tracing: line %d: span %s %q: %v", line, field, s, err)
	}
	return span.ID(v), nil
}

// ReadJSONLAll parses and validates a JSONL trace — the one reader of
// run, event and span lines, and the schema validator behind
// `tracescope -check`. Every line must be valid JSON of a known type.
// Every event must name a known kind and reason, belong to a previously
// declared run, keep seq strictly increasing and time non-decreasing
// within its run, and respect the run's CPU bound; each run's event
// lines must number its header's kept, and kept + dropped must equal
// emitted. Span validation is two-pass because a parent's line may
// legally follow its children's (sorting is by start time, and a
// fan-out's cells can share their parent's start): pass one checks each
// line in isolation — well-formed IDs, end ≥ start, a name,
// string-or-number attrs, no duplicate ID within a trace — and pass two
// checks the links: every non-root parent exists in the file and shares
// the child's trace, and every root is its own trace (Trace == ID).
func ReadJSONLAll(r io.Reader) ([]*RunRecord, []span.Span, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	byRun := make(map[string]*RunRecord)
	var runs []*RunRecord
	var spans []span.Span
	type traceSpan struct {
		trace, id span.ID
	}
	seen := make(map[traceSpan]bool)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var typ struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(raw, &typ); err != nil {
			return nil, nil, fmt.Errorf("tracing: line %d: %v", line, err)
		}
		switch typ.Type {
		case "run":
			var h jsonRun
			if err := json.Unmarshal(raw, &h); err != nil {
				return nil, nil, fmt.Errorf("tracing: line %d: %v", line, err)
			}
			if h.Run == "" {
				return nil, nil, fmt.Errorf("tracing: line %d: run header without a label", line)
			}
			if byRun[h.Run] != nil {
				return nil, nil, fmt.Errorf("tracing: line %d: duplicate run %q", line, h.Run)
			}
			rec := &RunRecord{Run: h.Run, Machine: h.Machine, CPUs: h.CPUs,
				Emitted: h.Emitted, Dropped: h.Dropped, kept: h.Kept}
			byRun[h.Run] = rec
			runs = append(runs, rec)
		case "event":
			var je jsonEvent
			if err := json.Unmarshal(raw, &je); err != nil {
				return nil, nil, fmt.Errorf("tracing: line %d: %v", line, err)
			}
			rec := byRun[je.Run]
			if rec == nil {
				return nil, nil, fmt.Errorf("tracing: line %d: event for undeclared run %q", line, je.Run)
			}
			kind, ok := ParseKind(je.Kind)
			if !ok {
				return nil, nil, fmt.Errorf("tracing: line %d: unknown kind %q", line, je.Kind)
			}
			reason, ok := ParseReason(je.Reason)
			if !ok {
				return nil, nil, fmt.Errorf("tracing: line %d: unknown reason %q", line, je.Reason)
			}
			if n := len(rec.Events); n > 0 {
				prev := rec.Events[n-1]
				if je.Seq <= prev.Seq {
					return nil, nil, fmt.Errorf("tracing: line %d: run %q seq %d not after %d", line, je.Run, je.Seq, prev.Seq)
				}
				if sim.Time(je.At) < prev.At {
					return nil, nil, fmt.Errorf("tracing: line %d: run %q time went backwards %d -> %d", line, je.Run, int64(prev.At), je.At)
				}
			}
			if je.Busy < NoBusy || (rec.CPUs > 0 && je.Busy > rec.CPUs) {
				return nil, nil, fmt.Errorf("tracing: line %d: run %q busy %d out of [-1, %d]", line, je.Run, je.Busy, rec.CPUs)
			}
			rec.Events = append(rec.Events, Event{Seq: je.Seq, At: sim.Time(je.At),
				Kind: kind, Reason: reason, Job: je.Job, CPUs: je.CPUs, Busy: je.Busy, Aux: je.Aux})
		case "span":
			var js jsonSpan
			if err := json.Unmarshal(raw, &js); err != nil {
				return nil, nil, fmt.Errorf("tracing: line %d: %v", line, err)
			}
			if js.Name == "" {
				return nil, nil, fmt.Errorf("tracing: line %d: span without a name", line)
			}
			if js.End < js.Start {
				return nil, nil, fmt.Errorf("tracing: line %d: span %q ends (%d) before it starts (%d)", line, js.Name, js.End, js.Start)
			}
			trace, err := parseSpanID(line, "trace", js.Trace)
			if err != nil {
				return nil, nil, err
			}
			id, err := parseSpanID(line, "id", js.ID)
			if err != nil {
				return nil, nil, err
			}
			if id == 0 || trace == 0 {
				return nil, nil, fmt.Errorf("tracing: line %d: span %q with zero id", line, js.Name)
			}
			var parent span.ID
			if js.Parent != "" {
				if parent, err = parseSpanID(line, "parent", js.Parent); err != nil {
					return nil, nil, err
				}
			} else if trace != id {
				return nil, nil, fmt.Errorf("tracing: line %d: root span %q is not its own trace (%s != %s)", line, js.Name, js.ID, js.Trace)
			}
			if seen[traceSpan{trace, id}] {
				return nil, nil, fmt.Errorf("tracing: line %d: duplicate span id %s in trace %s", line, js.ID, js.Trace)
			}
			seen[traceSpan{trace, id}] = true
			s := span.Span{Trace: trace, ID: id, Parent: parent, Name: js.Name, Start: js.Start, End: js.End}
			for k, v := range js.Attrs {
				switch val := v.(type) {
				case string:
					s.Attrs = append(s.Attrs, span.Attr{Key: k, Str: val})
				case float64:
					s.Attrs = append(s.Attrs, span.Attr{Key: k, Val: int64(val)})
				default:
					return nil, nil, fmt.Errorf("tracing: line %d: span attr %q is %T, want string or number", line, k, v)
				}
			}
			spans = append(spans, s)
		default:
			return nil, nil, fmt.Errorf("tracing: line %d: unknown record type %q", line, typ.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	for _, rec := range runs {
		if len(rec.Events) != rec.kept {
			return nil, nil, fmt.Errorf("tracing: run %q: %d event lines, header kept %d",
				rec.Run, len(rec.Events), rec.kept)
		}
		if uint64(len(rec.Events))+rec.Dropped != rec.Emitted {
			return nil, nil, fmt.Errorf("tracing: run %q: kept %d + dropped %d != emitted %d",
				rec.Run, len(rec.Events), rec.Dropped, rec.Emitted)
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent == 0 {
			continue
		}
		if !seen[traceSpan{s.Trace, s.Parent}] {
			return nil, nil, fmt.Errorf("tracing: span %s (%q): parent %s not in trace %s",
				s.ID, s.Name, s.Parent, s.Trace)
		}
	}
	return runs, spans, nil
}
