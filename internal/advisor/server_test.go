package advisor

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"interstitial/internal/span"
)

// stubPlanner is a controllable planner for exercising the service layer
// without real simulations: Plan blocks on gate (when set), counts calls,
// and can panic or fail on demand.
type stubPlanner struct {
	gate       chan struct{} // Plan waits for this to close (nil: no wait)
	calls      atomic.Int64
	degCalls   atomic.Int64
	err        error
	panicFirst string // non-empty: the first Plan call panics with this
}

func stubPlan(req Request, degraded bool) *Plan {
	return &Plan{
		Request: req, MachineCPUs: 128, ClockGHz: 0.5, NativeUtil: 0.8,
		Candidates: []Candidate{{CPUs: 1, Sec1GHz: 60, Jobs: 42, MakespanH: 1}},
		Degraded:   degraded,
		Text:       "plan for " + req.Key() + "\n",
	}
}

func (p *stubPlanner) Plan(req Request) (*Plan, error) {
	n := p.calls.Add(1)
	if p.gate != nil {
		<-p.gate
	}
	if p.panicFirst != "" && n == 1 {
		panic(p.panicFirst)
	}
	if p.err != nil {
		return nil, p.err
	}
	return stubPlan(req, false), nil
}

func (p *stubPlanner) PlanDegraded(ctx context.Context, req Request) (*Plan, error) {
	p.degCalls.Add(1)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return stubPlan(req, true), nil
}

func planURL(base string, petacycles float64) string {
	return fmt.Sprintf("%s/plan?machine=Ross&petacycles=%g&scale=0.05", base, petacycles)
}

func getBody(t *testing.T, client *http.Client, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	return resp.StatusCode, string(b), resp.Header
}

func decodePlan(t *testing.T, body string) *Plan {
	t.Helper()
	var p Plan
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatalf("bad plan JSON: %v\n%s", err, body)
	}
	return &p
}

func TestServerHealthAndReadiness(t *testing.T) {
	srv := newServerWith(Config{}, &stubPlanner{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, body, _ := getBody(t, ts.Client(), ts.URL+"/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz = %d %q", code, body)
	}
	if code, body, _ := getBody(t, ts.Client(), ts.URL+"/readyz"); code != 200 || !strings.Contains(body, "ready") {
		t.Fatalf("readyz = %d %q", code, body)
	}
	srv.BeginDrain()
	if code, body, _ := getBody(t, ts.Client(), ts.URL+"/readyz"); code != 503 || !strings.Contains(body, "draining") {
		t.Fatalf("readyz while draining = %d %q", code, body)
	}
	// healthz stays green: the process is alive, just not accepting work.
	if code, _, _ := getBody(t, ts.Client(), ts.URL+"/healthz"); code != 200 {
		t.Fatalf("healthz while draining = %d", code)
	}
	if code, _, _ := getBody(t, ts.Client(), planURL(ts.URL, 1)); code != 503 {
		t.Fatalf("plan while draining = %d, want 503", code)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	srv := newServerWith(Config{}, &stubPlanner{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, u := range []string{
		ts.URL + "/plan",                                  // no machine
		ts.URL + "/plan?machine=Ross",                     // no petacycles
		ts.URL + "/plan?machine=Nope&petacycles=1",        // unknown machine
		ts.URL + "/plan?machine=Ross&petacycles=-1",       // bad size
		ts.URL + "/plan?machine=Ross&petacycles=1&cap=99", // bad cap
	} {
		code, body, _ := getBody(t, ts.Client(), u)
		if code != 400 {
			t.Errorf("GET %s = %d %q, want 400", u, code, body)
		}
		var e errorBody
		if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
			t.Errorf("GET %s: error body not typed JSON: %q", u, body)
		}
	}

	resp, err := ts.Client().Post(ts.URL+"/plan", "application/json",
		strings.NewReader(`{"machine":"Ross","petacycles":1,"mystery":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("POST with unknown field = %d, want 400", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/plan", nil)
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("DELETE = %d, want 400", resp.StatusCode)
	}
}

func TestServerPlanAndCacheHit(t *testing.T) {
	p := &stubPlanner{}
	srv := newServerWith(Config{}, p)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body, _ := getBody(t, ts.Client(), planURL(ts.URL, 2))
	if code != 200 {
		t.Fatalf("plan = %d %q", code, body)
	}
	first := decodePlan(t, body)
	if first.Degraded {
		t.Fatal("full plan marked degraded")
	}

	code, body2, _ := getBody(t, ts.Client(), planURL(ts.URL, 2))
	if code != 200 || body2 != body {
		t.Fatalf("cached answer differs: %d\n%q\nvs\n%q", code, body2, body)
	}
	if n := p.calls.Load(); n != 1 {
		t.Fatalf("planner called %d times, want 1 (second answer from cache)", n)
	}
	if n := srv.met.cacheHits.Load(); n != 1 {
		t.Fatalf("advisor_cache_hits_total = %d, want 1", n)
	}
}

func TestServerShedsWhenQueueFull(t *testing.T) {
	p := &stubPlanner{gate: make(chan struct{})}
	srv := newServerWith(Config{QueueBound: 1}, p)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Occupy the only slot with a request the stub holds open.
	done := make(chan struct{})
	go func() {
		defer close(done)
		code, _, _ := getBody(t, ts.Client(), planURL(ts.URL, 1))
		if code != 200 {
			t.Errorf("held request finished %d, want 200", code)
		}
	}()
	waitFor(t, func() bool { return srv.queue.depth() == 1 })

	// A different question now finds the queue full: shed, typed 429.
	code, body, hdr := getBody(t, ts.Client(), planURL(ts.URL, 99))
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity request = %d %q, want 429", code, body)
	}
	if ra := hdr.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	var e errorBody
	if err := json.Unmarshal([]byte(body), &e); err != nil || !strings.Contains(e.Error, "queue full") {
		t.Fatalf("shed body = %q", body)
	}
	if n := srv.met.shed.Load(); n != 1 {
		t.Fatalf("advisor_shed_total = %d, want 1", n)
	}
	// The shed key was abandoned, not leaked: asking again after capacity
	// frees succeeds.
	close(p.gate)
	<-done
	if code, _, _ := getBody(t, ts.Client(), planURL(ts.URL, 99)); code != 200 {
		t.Fatalf("retry after shed = %d, want 200", code)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

func TestServerCoalescesIdenticalRequests(t *testing.T) {
	p := &stubPlanner{gate: make(chan struct{})}
	srv := newServerWith(Config{QueueBound: 2}, p)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const waiters = 4
	bodies := make([]string, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body, _ := getBody(t, ts.Client(), planURL(ts.URL, 7))
			if code != 200 {
				t.Errorf("waiter %d: %d %q", i, code, body)
			}
			bodies[i] = body
		}(i)
	}
	// All identical questions coalesce onto one computation: exactly one
	// planner call, one queue slot, the rest counted as coalesced.
	waitFor(t, func() bool { return srv.met.coalesced.Load() == waiters-1 })
	close(p.gate)
	wg.Wait()
	for i := 1; i < waiters; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("waiter %d got different bytes", i)
		}
	}
	if n := p.calls.Load(); n != 1 {
		t.Fatalf("planner called %d times for %d identical requests", n, waiters)
	}
	if n := srv.met.admitted.Load(); n != 1 {
		t.Fatalf("advisor_admitted_total = %d, want 1", n)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

func TestServerDegradesPastBudget(t *testing.T) {
	p := &stubPlanner{gate: make(chan struct{})}
	srv := newServerWith(Config{Budget: time.Minute}, p)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The full sweep is stuck; a 10ms budget forces the fallback.
	code, body, _ := getBody(t, ts.Client(), planURL(ts.URL, 3)+"&budget_ms=10")
	if code != 200 {
		t.Fatalf("degraded answer = %d %q", code, body)
	}
	dp := decodePlan(t, body)
	if !dp.Degraded {
		t.Fatalf("over-budget answer not marked degraded: %s", body)
	}
	if n := srv.met.degraded.Load(); n != 1 {
		t.Fatalf("advisor_degraded_total = %d, want 1", n)
	}

	// The full sweep still settles the cache in the background; once it
	// lands, the same question is answered full-fidelity from cache.
	close(p.gate)
	waitFor(t, func() bool { _, ok := srv.cache.get(mustReq(t, 3).Key()); return ok })
	code, body, _ = getBody(t, ts.Client(), planURL(ts.URL, 3))
	if code != 200 {
		t.Fatalf("follow-up = %d", code)
	}
	if fp := decodePlan(t, body); fp.Degraded {
		t.Fatal("cache served the degraded plan")
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

func TestServerPanicIsolatedAsTyped500(t *testing.T) {
	p := &stubPlanner{panicFirst: "planner exploded"}
	srv := newServerWith(Config{}, p)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body, _ := getBody(t, ts.Client(), planURL(ts.URL, 1))
	if code != 500 {
		t.Fatalf("panicking plan = %d %q, want 500", code, body)
	}
	var e errorBody
	if err := json.Unmarshal([]byte(body), &e); err != nil || !strings.Contains(e.Error, "panicked") {
		t.Fatalf("500 body = %q, want typed PlanError message", body)
	}
	if n := srv.met.panics.Load(); n != 1 {
		t.Fatalf("advisor_panics_total = %d, want 1", n)
	}
	// The server survives: the next (different) request plans fine.
	if code, _, _ := getBody(t, ts.Client(), planURL(ts.URL, 2)); code != 200 {
		t.Fatalf("request after panic = %d, want 200", code)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

func TestServerMetricsEndpoint(t *testing.T) {
	srv := newServerWith(Config{}, &stubPlanner{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, _, _ := getBody(t, ts.Client(), planURL(ts.URL, 1)); code != 200 {
		t.Fatal("seed request failed")
	}
	code, body, hdr := getBody(t, ts.Client(), ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	for _, want := range []string{
		"advisor_requests_total 1", // only /plan requests count
		"advisor_admitted_total 1",
		"advisor_shed_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestServerDrainWaitsForInflight(t *testing.T) {
	p := &stubPlanner{gate: make(chan struct{})}
	srv := newServerWith(Config{}, p)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		code, _, _ := getBody(t, ts.Client(), planURL(ts.URL, 1))
		if code != 200 {
			t.Errorf("in-flight request = %d, want 200", code)
		}
	}()
	// The stub is entered only after the owner joined the drain group; a
	// request that holds a slot but has not joined yet is shed by Drain.
	waitFor(t, func() bool { return p.calls.Load() == 1 })

	// Drain with a short deadline while the planner is stuck: times out.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	err := srv.Drain(ctx)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stuck Drain = %v, want deadline exceeded", err)
	}

	// Unstick and drain for real; the in-flight request completes.
	close(p.gate)
	<-done
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("Drain after unstick: %v", err)
	}
}

// mustReq builds the canonical request planURL(pc) sends.
func mustReq(t *testing.T, pc float64) Request {
	t.Helper()
	r := Request{Machine: "Ross", PetaCycles: pc, Scale: 0.05}
	r.Canonicalize()
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	return r
}

// waitFor polls cond to avoid wall-clock assumptions in concurrency tests.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never held")
}

// TestServerShedBodyReasonAndRetry pins the 429 wire contract: the JSON
// body itself carries the machine-readable shed reason, the Retry-After
// mirror, and the request ID — not just the headers.
func TestServerShedBodyReasonAndRetry(t *testing.T) {
	p := &stubPlanner{gate: make(chan struct{})}
	srv := newServerWith(Config{QueueBound: 1}, p)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Occupy the only queue slot with a held request.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if code, body, _ := getBody(t, ts.Client(), planURL(ts.URL, 1)); code != 200 {
			t.Errorf("held request = %d %q, want 200", code, body)
		}
	}()
	waitFor(t, func() bool { return srv.queue.depth() == 1 })

	// A different question finds the queue full.
	code, body, hdr := getBody(t, ts.Client(), planURL(ts.URL, 2))
	if code != http.StatusTooManyRequests {
		t.Fatalf("queue shed = %d %q, want 429", code, body)
	}
	var e errorBody
	if err := json.Unmarshal([]byte(body), &e); err != nil {
		t.Fatalf("shed body not JSON: %v\n%s", err, body)
	}
	if e.Reason != "queue-full" {
		t.Errorf("shed reason = %q, want queue-full", e.Reason)
	}
	if e.RetryAfterS < 1 {
		t.Errorf("shed retry_after_s = %d, want >= 1", e.RetryAfterS)
	}
	if got := hdr.Get("Retry-After"); got != strconv.FormatInt(e.RetryAfterS, 10) {
		t.Errorf("Retry-After header %q does not mirror body retry_after_s %d", got, e.RetryAfterS)
	}
	if e.RequestID == "" || e.RequestID != hdr.Get("X-Request-Id") {
		t.Errorf("body request_id %q != X-Request-Id header %q", e.RequestID, hdr.Get("X-Request-Id"))
	}

	close(p.gate)
	<-done
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// serveBurst sends width identical in-process requests for url at once
// and returns their answers when all have been served.
func serveBurst(h http.Handler, url string, width int) []*httptest.ResponseRecorder {
	recs := make([]*httptest.ResponseRecorder, width)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range recs {
		recs[i] = httptest.NewRecorder()
		wg.Add(1)
		go func(rec *httptest.ResponseRecorder) {
			defer wg.Done()
			<-start
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		}(recs[i])
	}
	close(start)
	wg.Wait()
	return recs
}

// TestServerShedBurstOfIdenticalRequests fires bursts of identical
// requests for an uncached question while a wedged plan holds the only
// queue slot. Every request must be shed with a typed 429: a request that
// arrives while another is being turned away must not inherit that shed
// as a 500. advisor_shed_total counts each of them.
func TestServerShedBurstOfIdenticalRequests(t *testing.T) {
	p := &stubPlanner{gate: make(chan struct{})}
	srv := newServerWith(Config{QueueBound: 1}, p)
	h := srv.Handler()

	// Occupy the only slot with a request the stub holds open.
	held := make(chan int)
	go func() { held <- serveBurst(h, planURL("", 1), 1)[0].Code }()
	waitFor(t, func() bool { return srv.queue.depth() == 1 })

	const bursts, width = 200, 32
	codes := map[int]int{}
	var bad []string
	for b := 0; b < bursts; b++ {
		// Each burst asks a question no burst asked before.
		for _, rec := range serveBurst(h, planURL("", float64(2+b)), width) {
			codes[rec.Code]++
			var e errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &e); rec.Code != http.StatusTooManyRequests ||
				err != nil || e.Reason != "queue-full" || rec.Header().Get("Retry-After") == "" {
				bad = append(bad, fmt.Sprintf("%d %s", rec.Code, rec.Body.Bytes()))
			}
		}
	}
	if len(bad) > 0 {
		t.Fatalf("status codes %v over %d requests; want every one a queue-full 429 with Retry-After; first bad: %s",
			codes, bursts*width, bad[0])
	}
	if n := srv.met.shed.Load(); n != bursts*width {
		t.Fatalf("advisor_shed_total = %d, want %d", n, bursts*width)
	}

	close(p.gate)
	if code := <-held; code != http.StatusOK {
		t.Fatalf("held request = %d, want 200", code)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// TestServerCoalescesBurstAtOneSlot fires bursts of identical requests at
// an idle server with one queue slot: the first is admitted and every
// other joins its computation, however closely they arrive. None is shed
// for the slot its own question holds.
func TestServerCoalescesBurstAtOneSlot(t *testing.T) {
	const bursts, width = 200, 32
	for b := 0; b < bursts; b++ {
		p := &stubPlanner{gate: make(chan struct{})}
		srv := newServerWith(Config{QueueBound: 1}, p)
		served := make(chan []*httptest.ResponseRecorder)
		go func() { served <- serveBurst(srv.Handler(), planURL("", 7), width) }()
		waitFor(t, func() bool {
			return srv.met.admitted.Load()+srv.met.coalesced.Load()+srv.met.shed.Load() == width
		})
		close(p.gate)
		codes := map[int]int{}
		for _, rec := range <-served {
			codes[rec.Code]++
		}
		if codes[http.StatusOK] != width || srv.met.admitted.Load() != 1 || p.calls.Load() != 1 {
			t.Fatalf("burst %d: status codes %v, %d admitted, %d planner calls; want %d OK, 1, 1",
				b, codes, srv.met.admitted.Load(), p.calls.Load(), width)
		}
		if err := srv.Drain(context.Background()); err != nil {
			t.Fatalf("Drain: %v", err)
		}
	}
}

// TestServerRequestSpansAndManifest wires the whole observability layer
// through one request: the root span's ID is the X-Request-Id header,
// the children bracket admission / cache / coalesce / plan-wait with
// outcomes, the 200 carries the plan's provenance manifest, and the
// structured log correlates on the same request ID.
func TestServerRequestSpansAndManifest(t *testing.T) {
	rec := span.NewRecorder()
	var logBuf bytes.Buffer
	logger, err := NewLogger(&logBuf, "json", "default=debug")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServerWith(Config{Spans: rec, Log: logger}, &stubPlanner{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, _, hdr := getBody(t, ts.Client(), planURL(ts.URL, 2))
	if code != 200 {
		t.Fatalf("plan = %d", code)
	}
	reqID := hdr.Get("X-Request-Id")
	if len(reqID) != 16 {
		t.Fatalf("X-Request-Id = %q, want a 16-hex span ID", reqID)
	}

	// The manifest header is exactly the plan's provenance record.
	want := PlanManifest(stubPlan(mustReq(t, 2), false)).Compact()
	if got := hdr.Get("X-Run-Manifest"); got != want {
		t.Errorf("X-Run-Manifest = %q, want %q", got, want)
	}

	// A cache hit carries the manifest too.
	if _, _, hdr2 := getBody(t, ts.Client(), planURL(ts.URL, 2)); hdr2.Get("X-Run-Manifest") != want {
		t.Errorf("cache-hit X-Run-Manifest = %q, want %q", hdr2.Get("X-Run-Manifest"), want)
	}

	var root *span.Span
	spans := rec.Spans()
	for i := range spans {
		if spans[i].Name == "http.plan" && spans[i].ID.String() == reqID {
			root = &spans[i]
		}
	}
	if root == nil {
		t.Fatalf("no http.plan root span with ID %s in %d spans", reqID, len(spans))
	}
	if a, ok := root.Attr("status"); !ok || a.Val != 200 {
		t.Errorf("root status attr = %+v, want 200", a)
	}
	wantChildren := map[string]string{
		"admission": "ok", "cache": "miss", "coalesce": "owner", "plan.wait": "ok",
	}
	for i := range spans {
		wantOut, ok := wantChildren[spans[i].Name]
		if !ok || spans[i].Parent != root.ID {
			continue
		}
		if a, ok := spans[i].Attr("outcome"); !ok || a.Str != wantOut {
			t.Errorf("%s outcome = %+v, want %q", spans[i].Name, a, wantOut)
		}
		delete(wantChildren, spans[i].Name)
	}
	if len(wantChildren) > 0 {
		t.Errorf("missing child spans under the root: %v", wantChildren)
	}

	logs := logBuf.String()
	if !strings.Contains(logs, `"request_id":"`+reqID+`"`) {
		t.Errorf("log has no record with request_id %s:\n%s", reqID, logs)
	}
	if !strings.Contains(logs, `"component":"http"`) || !strings.Contains(logs, `"route":"plan"`) {
		t.Errorf("log missing the http completion record:\n%s", logs)
	}
}
