package tracing

import (
	"bufio"
	"encoding/json"
	"io"

	"interstitial/internal/span"
)

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
		// A string attribute travels as its string, any other as its number.
		js.Attrs = make(map[string]any, len(s.Attrs))
		for _, a := range s.Attrs {
			if a.Str != "" {
				js.Attrs[a.Key] = a.Str
			} else {
				js.Attrs[a.Key] = a.Val
			}
		}
	}
	return js
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
