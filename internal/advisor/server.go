package advisor

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"interstitial/internal/obs"
	"interstitial/internal/span"
)

// Config tunes the advisor service. The zero value gets serviceable
// defaults (see NewServer).
type Config struct {
	// QueueBound caps concurrently admitted plan computations; requests
	// past it are shed with 429 + Retry-After (default 4).
	QueueBound int
	// Budget is the per-request full-sweep budget: past it the request is
	// answered with a degraded fallback plan instead of waiting (default
	// 2s). Clients may lower it per request with ?budget_ms=N.
	Budget time.Duration
	// Log receives the service's structured records (see NewLogger).
	// Nil discards them at the Enabled gate.
	Log *slog.Logger
	// Spans records one span tree per request: a root per route plus
	// children for cache lookup, coalesce join, admission, and plan wait.
	// Nil disables recording; every handle on the disabled path is a nil
	// no-op, so requests pay nothing.
	Spans *span.Recorder
}

const (
	// cacheEntries bounds the plan LRU.
	cacheEntries = 256
	// shedRetryAfter is the Retry-After hint on sheds, drains and aborted
	// plans.
	shedRetryAfter = time.Second
	// spanSeed seeds root span IDs, which double as request IDs, so
	// request N of every daemon gets the same X-Request-Id.
	spanSeed = 1
)

// planner computes plans; the production implementation is *Core, and
// chaos tests substitute a controllable stub.
type planner interface {
	Plan(req Request) (*Plan, error)
	PlanDegraded(ctx context.Context, req Request) (*Plan, error)
}

// Server is the hardened advisor service. Request path: cache → coalesce
// → bounded work queue → planning core, with a degraded fallback past the
// budget and a panic shield around every handler. See DESIGN.md §14.
type Server struct {
	cfg     Config
	planner planner
	met     *metrics
	queue   *slotQueue
	cache   *flight[string, *Plan] // full plans by Request.Key
	mux     *http.ServeMux

	httpLog *slog.Logger // component=http: one record per request
	planLog *slog.Logger // component=plan: sheds, degrades, failures
	reqSeq  atomic.Uint64

	ready    atomic.Bool
	draining atomic.Bool
	admitMu  sync.Mutex     // serializes admit's decisions and the drain barrier
	wg       sync.WaitGroup // in-flight plan computations (background fills)

	planCtx    context.Context
	planCancel context.CancelFunc
}

// NewServer builds a service around a fresh planning Core.
func NewServer(cfg Config) *Server {
	s := newServerShell(cfg)
	s.planner = NewCore(CoreConfig{Ctx: s.planCtx})
	return s
}

// newServerWith is the test constructor: same shell, caller's planner.
func newServerWith(cfg Config, p planner) *Server {
	s := newServerShell(cfg)
	s.planner = p
	return s
}

func newServerShell(cfg Config) *Server {
	if cfg.QueueBound <= 0 {
		cfg.QueueBound = 4
	}
	if cfg.Budget <= 0 {
		cfg.Budget = 2 * time.Second
	}
	if cfg.Log == nil {
		cfg.Log = slog.New(discardHandler{})
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		met:        newMetrics(),
		queue:      newSlotQueue(cfg.QueueBound),
		cache:      newFlight[string, *Plan](cacheEntries),
		mux:        http.NewServeMux(),
		planCtx:    ctx,
		planCancel: cancel,
	}
	s.httpLog = cfg.Log.With("component", ComponentHTTP)
	s.planLog = cfg.Log.With("component", ComponentPlan)
	s.mux.HandleFunc("/plan", s.instrument("plan", s.shield(s.handlePlan)))
	s.mux.HandleFunc("/healthz", s.instrument("healthz", s.shield(s.handleHealthz)))
	s.mux.HandleFunc("/readyz", s.instrument("readyz", s.shield(s.handleReadyz)))
	s.mux.Handle("/metrics", s.instrument("metrics", s.met.reg.Handler().ServeHTTP))
	s.ready.Store(true)
	return s
}

// nowMicro is the span clock: wall microseconds.
func (s *Server) nowMicro() int64 { return time.Now().UnixMicro() }

// statusWriter captures the response status for the request log, span,
// and latency histogram.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// instrument is the observability middleware on every route: it opens
// the request's root span (whose ID doubles as the X-Request-Id header
// and the request_id log field), threads it through the context for
// handlers to hang children on, observes the route's latency histogram,
// and emits the one-line completion record.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.met.routeLatency[route]
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		seq := s.reqSeq.Add(1) - 1
		sp := s.cfg.Spans.Root("http."+route, spanSeed, seq, t0.UnixMicro())
		reqID := sp.ID().String()
		if sp == nil {
			// Spans off: the request still gets a stable, unique ID.
			reqID = fmt.Sprintf("req-%08x", seq)
		}
		sw := &statusWriter{ResponseWriter: w}
		sw.Header().Set("X-Request-Id", reqID)
		h(sw, r.WithContext(span.NewContext(r.Context(), sp)))
		if sw.code == 0 {
			sw.code = http.StatusOK
		}
		dur := time.Since(t0)
		hist.Observe(dur.Seconds())
		sp.Str("method", r.Method).Attr("status", int64(sw.code)).End(s.nowMicro())
		s.httpLog.Info("request",
			"request_id", reqID, "route", route, "method", r.Method,
			"status", sw.code, "dur_ms", float64(dur.Microseconds())/1000)
	}
}

// Handler returns the service's HTTP mux (/plan, /healthz, /readyz,
// /metrics).
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the service's registry (for folding into a larger one
// or for test assertions).
func (s *Server) Metrics() *obs.Registry { return s.met.reg }

// BeginDrain flips /readyz to 503 so load balancers stop routing here;
// in-flight requests keep running.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	s.ready.Store(false)
}

// Drain completes a graceful shutdown: stop admitting (BeginDrain), wait
// for every in-flight plan computation — including background fills left
// by degraded answers — then cancel the planning context. A ctx deadline
// bounds the wait; on expiry the planning context is cancelled anyway so
// stragglers abort cooperatively, and ctx's error is returned.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	// Barrier: any owner that passed the draining check is inside admitMu
	// until its wg.Add lands, so after this lock/unlock no new computation
	// can join the group and Wait cannot race an Add from zero.
	s.admitMu.Lock()
	s.admitMu.Unlock() //nolint:staticcheck // empty critical section is the barrier
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.planCancel()
	return err
}

// shield converts a handler panic into a typed 500 instead of letting
// net/http kill the connection (and, under test servers, the process).
func (s *Server) shield(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.met.panics.Inc()
				s.httpLog.Error("handler panic",
					"request_id", w.Header().Get("X-Request-Id"), "err", fmt.Sprint(v))
				writeJSONError(w, http.StatusInternalServerError,
					fmt.Sprintf("internal panic: %v", v), "panic", 0)
				debug.PrintStack()
			}
		}()
		h(w, r)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

// budgetOf resolves the request's full-sweep budget: ?budget_ms=N clamped
// to [1ms, cfg.Budget]; absent or unparsable values mean the configured
// default.
func (s *Server) budgetOf(r *http.Request) time.Duration {
	v := r.URL.Query().Get("budget_ms")
	if v == "" {
		return s.cfg.Budget
	}
	ms, err := strconv.Atoi(v)
	if err != nil || ms < 1 {
		return s.cfg.Budget
	}
	d := time.Duration(ms) * time.Millisecond
	if d > s.cfg.Budget {
		d = s.cfg.Budget
	}
	return d
}

// parsePlanRequest decodes GET query parameters or a POST JSON body into
// a canonical, validated request.
func parsePlanRequest(r *http.Request) (Request, error) {
	switch r.Method {
	case http.MethodGet:
		return ParseQuery(r.URL.Query())
	case http.MethodPost:
		body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, maxRequestBytes))
		if err != nil {
			return Request{}, fmt.Errorf("reading body: %v", err)
		}
		return DecodeRequest(body)
	default:
		return Request{}, fmt.Errorf("method %s not allowed (use GET or POST)", r.Method)
	}
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	s.met.requests.Inc()
	s.met.inflight.Add(1)
	defer s.met.inflight.Add(-1)
	sp := span.FromContext(r.Context())
	reqID := w.Header().Get("X-Request-Id")

	if !s.ready.Load() {
		s.planLog.Info("shed", "request_id", reqID, "reason", "draining")
		writeJSONError(w, http.StatusServiceUnavailable, "draining", "draining", shedRetryAfter)
		return
	}
	req, err := parsePlanRequest(r)
	if err != nil {
		s.planLog.Debug("bad request", "request_id", reqID, "err", err.Error())
		writeJSONError(w, http.StatusBadRequest, err.Error(), "bad-request", 0)
		return
	}

	// Cache: an identical canonical question already answered.
	key := req.Key()
	cs := sp.Child("cache", 1, s.nowMicro())
	if p, ok := s.cache.get(key); ok {
		cs.Str("outcome", "hit").End(s.nowMicro())
		s.met.cacheHits.Inc()
		s.planLog.Debug("cache hit", "request_id", reqID, "key", key)
		s.writePlan(w, p)
		return
	}
	cs.Str("outcome", "miss").End(s.nowMicro())

	// Coalesce onto an identical computation in flight, or be admitted to
	// own a new one.
	c := s.admit(w, sp, key, req)
	if c == nil {
		return
	}

	// Wait for the sweep, degrade past the budget, bail if the client goes.
	pw := sp.Child("plan.wait", 3, s.nowMicro()).Str("key", key)
	budget := time.NewTimer(s.budgetOf(r))
	defer budget.Stop()
	select {
	case <-c.done:
		pw.Str("outcome", planOutcome(c.err)).End(s.nowMicro())
		if c.err != nil {
			s.planLog.Warn("plan failed", "request_id", reqID, "key", key, "err", c.err.Error())
		}
		s.respondPlan(w, c.v, c.err)
	case <-budget.C:
		dg := sp.Child("plan.degraded", 4, s.nowMicro())
		dp, derr := s.planner.PlanDegraded(r.Context(), req)
		if derr != nil {
			dg.Str("outcome", "error").End(s.nowMicro())
			// The fallback itself failed (e.g. the client vanished). If
			// the full sweep happened to finish meanwhile, serve it.
			select {
			case <-c.done:
				pw.Str("outcome", planOutcome(c.err)).End(s.nowMicro())
				s.respondPlan(w, c.v, c.err)
			default:
				pw.Str("outcome", "over-budget").End(s.nowMicro())
				s.planLog.Warn("over budget, fallback failed", "request_id", reqID,
					"key", key, "err", derr.Error())
				writeJSONError(w, http.StatusServiceUnavailable,
					fmt.Sprintf("over budget and fallback failed: %v", derr), "over-budget", shedRetryAfter)
			}
			return
		}
		dg.Str("outcome", "degraded").End(s.nowMicro())
		pw.Str("outcome", "degraded").End(s.nowMicro())
		s.met.degraded.Inc()
		s.planLog.Info("degraded answer", "request_id", reqID, "key", key)
		s.writePlan(w, dp)
	case <-r.Context().Done():
		// Client gone; the owner (if any) still settles the cache.
		pw.Str("outcome", "cancelled").End(s.nowMicro())
		writeJSONError(w, http.StatusServiceUnavailable, "client cancelled", "cancelled", 0)
	}
}

// admit joins the identical computation in flight, which costs no queue
// slot, or, with none in flight, admits the request to own a new one: it
// takes a work-queue slot, checks that the server is not draining, joins
// the drain group, and only then publishes the call and starts the
// computation that settles it. The lookup and the admission both hold
// admitMu, so a request that joins a call always waits on a plan, never
// on another request's shed, and a request is shed only while no
// identical call is in flight. A request turned away is answered here
// (429 queue full, 503 draining) and gets nil.
func (s *Server) admit(w http.ResponseWriter, sp *span.Active, key string, req Request) *call[*Plan] {
	reqID := w.Header().Get("X-Request-Id")
	co := sp.Child("coalesce", 2, s.nowMicro())
	s.admitMu.Lock()
	if c := s.cache.pending(key); c != nil {
		s.admitMu.Unlock()
		s.met.coalesced.Inc()
		co.Str("outcome", "joined").End(s.nowMicro())
		return c
	}
	co.Str("outcome", "owner").End(s.nowMicro())
	adm := sp.Child("admission", 0, s.nowMicro())
	if !s.queue.tryAcquire() {
		s.admitMu.Unlock()
		adm.Str("outcome", "shed-queue").End(s.nowMicro())
		s.met.shed.Inc()
		s.planLog.Warn("shed", "request_id", reqID, "reason", "queue-full")
		writeJSONError(w, http.StatusTooManyRequests, "work queue full", "queue-full", shedRetryAfter)
		return nil
	}
	// Checking draining under admitMu keeps wg.Add from racing Drain's
	// Wait: past the barrier in Drain, no new member can join.
	if s.draining.Load() {
		s.queue.release()
		s.admitMu.Unlock()
		adm.Str("outcome", "draining").End(s.nowMicro())
		s.planLog.Info("shed", "request_id", reqID, "reason", "draining")
		writeJSONError(w, http.StatusServiceUnavailable, "draining", "draining", shedRetryAfter)
		return nil
	}
	s.wg.Add(1)
	c, _ := s.cache.join(key) // the owner: every publish holds admitMu
	s.admitMu.Unlock()
	s.met.admitted.Inc()
	adm.Str("outcome", "ok").End(s.nowMicro())
	go func() {
		defer s.wg.Done()
		defer s.queue.release()
		p, err := s.planShielded(req)
		// Only full plans are kept: a degraded answer is a budget
		// artifact, and a failure is retried by the next ask.
		s.cache.settle(key, c, p, err, err == nil && !p.Degraded)
	}()
	return c
}

// planOutcome classifies a finished computation for spans and logs, in
// the same buckets respondPlan maps onto status codes.
func planOutcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrInfeasible):
		return "infeasible"
	case isCancellation(err):
		return "aborted"
	default:
		return "error"
	}
}

// planShielded runs the full sweep, converting panics to *PlanError (the
// Core converts a panicking baseline compute itself, for every request
// waiting on it; this covers the sweep and test planners) and counting
// them.
func (s *Server) planShielded(req Request) (p *Plan, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PlanError{Key: req.Key(), Value: v, Stack: debug.Stack()}
		}
		if _, ok := err.(*PlanError); ok {
			s.met.panics.Inc()
		}
	}()
	return s.planner.Plan(req)
}

// writePlan answers 200 with the plan, attaching its provenance record
// as the X-Run-Manifest header (compact single-line JSON; see
// PlanManifest).
func (s *Server) writePlan(w http.ResponseWriter, p *Plan) {
	w.Header().Set("X-Run-Manifest", PlanManifest(p).Compact())
	writeJSON(w, http.StatusOK, p)
}

// respondPlan maps a finished computation onto the wire.
func (s *Server) respondPlan(w http.ResponseWriter, p *Plan, err error) {
	switch {
	case err == nil:
		s.writePlan(w, p)
	case errors.Is(err, ErrInfeasible):
		writeJSONError(w, http.StatusUnprocessableEntity, err.Error(), "infeasible", 0)
	case isCancellation(err):
		writeJSONError(w, http.StatusServiceUnavailable, "planning aborted: "+err.Error(), "aborted", shedRetryAfter)
	default:
		writeJSONError(w, http.StatusInternalServerError, err.Error(), "plan-error", 0)
	}
}

func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// errorBody is the wire form of every non-200 answer. Reason is the
// machine-readable failure class ("queue-full", "draining", ...) so
// clients can branch without parsing the message; RetryAfterS mirrors the
// Retry-After header into the body, and RequestID echoes X-Request-Id for
// log correlation.
type errorBody struct {
	Error        string `json:"error"`
	Reason       string `json:"reason,omitempty"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
	RetryAfterS  int64  `json:"retry_after_s,omitempty"`
	RequestID    string `json:"request_id,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeJSONError(w http.ResponseWriter, code int, msg, reason string, retryAfter time.Duration) {
	var secs int64
	if retryAfter > 0 {
		secs = int64(retryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, code, errorBody{
		Error:        msg,
		Reason:       reason,
		RetryAfterMS: int64(retryAfter / time.Millisecond),
		RetryAfterS:  secs,
		RequestID:    w.Header().Get("X-Request-Id"),
	})
}
