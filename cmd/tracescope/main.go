// Command tracescope analyzes a JSONL trace — the export of
// cmd/experiments -trace, cmd/birminator -trace, or advisord -spans: it
// validates the file against the schema, then summarizes it. Decision
// events get per-run and per-decision-kind counts, the preemption victim
// age distribution, and the largest idle holes the scheduler left
// between decisions. Spans get a per-name latency breakdown, the slowest
// shard of each federation epoch, and shed/degrade outcome attribution.
// A file holding both gets the decision sections, a blank line, then the
// span sections.
//
// Usage:
//
//	tracescope [-check] trace.jsonl
//	tracescope            (reads stdin)
//
// -check stops after schema validation, printing nothing on success: the
// CI smoke target uses it as the schema gate. Any malformed line — bad
// JSON, unknown kind or reason, non-monotonic sequence numbers or
// timestamps, busy counts outside the machine, event lines that do not
// match their run header, dangling span parents — exits 1 with the
// line's error.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"interstitial/internal/tracing"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracescope: ")
	check := flag.Bool("check", false, "validate the trace against the schema and exit (silent on success)")
	flag.Parse()

	var in io.Reader = os.Stdin
	switch flag.NArg() {
	case 0:
	case 1:
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	default:
		fmt.Fprintln(os.Stderr, "tracescope: at most one trace file")
		flag.Usage()
		os.Exit(2)
	}

	if *check {
		if _, _, err := tracing.ReadJSONLAll(in); err != nil {
			log.Fatal(err)
		}
		return
	}
	s, err := tracing.Summarize(in)
	if err != nil {
		log.Fatal(err)
	}
	if err := s.WriteReport(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
