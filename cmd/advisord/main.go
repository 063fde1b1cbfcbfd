// Command advisord serves the capacity-planning advisor as a hardened
// HTTP/JSON daemon: the same planning core as cmd/advisor, behind a result
// cache, request coalescing, a bounded work queue, graceful degradation,
// and a clean SIGTERM drain (see DESIGN.md §14).
//
// Usage:
//
//	advisord [-addr host:port] [-queue N] [-budget D] [-drain D]
//	         [-log-format json|text] [-log-level spec]
//	         [-spans file] [-manifest file]
//
// Endpoints:
//
//	GET  /plan?machine=Ross&petacycles=10[&cap=10&seed=1&scale=0.25]
//	POST /plan          {"machine":"Ross","petacycles":10,...}
//	GET  /healthz       liveness (200 while the process runs)
//	GET  /readyz        readiness (503 once draining)
//	GET  /metrics       Prometheus text: advisor_{admitted,shed,coalesced,
//	                    degraded,...}_total and per-route latency
//
// Requests past the -queue bound are shed with 429 + Retry-After;
// requests whose full sweep exceeds -budget get a cheap fallback plan
// marked "degraded": true. SIGTERM/SIGINT stops admission (readyz flips to
// 503), completes every in-flight plan within -drain, then exits 0.
//
// Observability: every request gets a root span whose ID rides the
// X-Request-Id header and the structured request log (stderr, one JSON
// record per line; -log-level takes per-component specs like
// "default=info,http=debug"). 200 plan answers carry their provenance as
// the X-Run-Manifest header. -spans writes the recorded span trees as
// JSONL (a span-only trace cmd/tracescope reads) at drain, and -manifest
// writes the service's provenance manifest — config, toolchain, final
// metrics snapshot — at exit.
//
// Invalid flags are rejected up front with exit status 2, matching
// cmd/experiments.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"interstitial/internal/advisor"
	"interstitial/internal/span"
	"interstitial/internal/tracing"
)

// usageError rejects bad flags before any work starts: message, usage,
// exit 2 (the conventional flag-error status).
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "advisord: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func main() {
	addr := flag.String("addr", "localhost:7676", "listen address")
	queue := flag.Int("queue", 4, "bounded work queue: concurrent plan computations admitted")
	budget := flag.Duration("budget", 2*time.Second, "per-request full-sweep budget before degrading")
	drain := flag.Duration("drain", 30*time.Second, "max wait for in-flight plans on SIGTERM")
	logFormat := flag.String("log-format", "json", "structured log format: json or text")
	logLevel := flag.String("log-level", "info", `log level spec: "info" or per-component "default=info,http=debug"`)
	spansPath := flag.String("spans", "", "write recorded request spans as JSONL to this file at drain")
	manifestPath := flag.String("manifest", "", "write the service's provenance manifest (JSON) to this file at exit")
	flag.Parse()
	logger, logErr := advisor.NewLogger(os.Stderr, *logFormat, *logLevel)
	switch {
	case *queue < 1:
		usageError("-queue %d is not positive", *queue)
	case *budget <= 0:
		usageError("-budget %v is not positive", *budget)
	case *drain <= 0:
		usageError("-drain %v is not positive", *drain)
	case logErr != nil:
		usageError("%v", logErr)
	case flag.NArg() > 0:
		usageError("unexpected arguments %q", flag.Args())
	}
	mlog := logger.With("component", advisor.ComponentMain)

	var spans *span.Recorder
	if *spansPath != "" {
		spans = span.NewRecorder()
	}
	srv := advisor.NewServer(advisor.Config{
		QueueBound: *queue,
		Budget:     *budget,
		Log:        logger,
		Spans:      spans,
	})
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	mlog.Info("serving", "addr", *addr, "queue", *queue, "budget", budget.String())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		mlog.Info("draining", "signal", sig.String(), "max_wait", drain.String())
	case err := <-errc:
		mlog.Error("serve failed", "err", err.Error())
		os.Exit(1)
	}

	// Stop routing first, then let the listener close while in-flight
	// handlers (and the background plan fills they started) complete.
	srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		mlog.Warn("http shutdown", "err", err.Error())
	}
	drainErr := srv.Drain(ctx)
	writeArtifacts(mlog, srv, spans, *spansPath, *manifestPath, flagConfig())
	if drainErr != nil {
		mlog.Error("drain incomplete", "err", drainErr.Error())
		os.Exit(1)
	}
	mlog.Info("drained cleanly")
}

// flagConfig snapshots every set flag for the service manifest.
func flagConfig() map[string]string {
	cfg := map[string]string{}
	flag.Visit(func(f *flag.Flag) { cfg[f.Name] = f.Value.String() })
	return cfg
}

// writeArtifacts dumps the span JSONL and the service manifest after the
// drain barrier, when no handler is still appending.
func writeArtifacts(mlog interface{ Warn(string, ...any) }, srv *advisor.Server,
	spans *span.Recorder, spansPath, manifestPath string, cfg map[string]string) {
	if spansPath != "" {
		if err := writeFile(spansPath, func(w *os.File) error {
			return tracing.WriteSpansJSONL(w, spans.Spans())
		}); err != nil {
			mlog.Warn("writing spans", "err", err.Error())
		}
	}
	if manifestPath != "" {
		m := span.NewManifest(1, 0) // seed = the span/request-ID seed; no one scale
		for k, v := range cfg {
			m.Set(k, v)
		}
		snap := srv.Metrics().Snapshot()
		m.Metrics = &snap
		if err := writeFile(manifestPath, func(w *os.File) error {
			return m.WriteJSON(w)
		}); err != nil {
			mlog.Warn("writing manifest", "err", err.Error())
		}
	}
}

func writeFile(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
