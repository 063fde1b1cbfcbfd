package advisor

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
)

// testReq is a fast canonical request (a tiny planning log keeps the
// baseline simulation well under a second).
func testReq(t *testing.T) Request {
	t.Helper()
	r := Request{Machine: "Ross", PetaCycles: 2, Scale: 0.05}
	r.Canonicalize()
	if err := r.Validate(); err != nil {
		t.Fatalf("testReq invalid: %v", err)
	}
	return r
}

func TestCorePlanDeterministicAcrossCores(t *testing.T) {
	req := testReq(t)
	a, err := NewCore(CoreConfig{}).Plan(req)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	b, err := NewCore(CoreConfig{}).Plan(req)
	if err != nil {
		t.Fatalf("Plan (second core): %v", err)
	}
	if a.Text != b.Text {
		t.Fatalf("plans differ across cores:\n%s\nvs\n%s", a.Text, b.Text)
	}
	if a.Degraded {
		t.Fatal("full plan marked degraded")
	}
	if len(a.Candidates) == 0 || len(a.Candidates) > req.Cap {
		t.Fatalf("candidate count %d outside (0, %d]", len(a.Candidates), req.Cap)
	}
	if !strings.Contains(a.Text, "Recommendation:") {
		t.Fatalf("render missing recommendation:\n%s", a.Text)
	}
}

func TestCorePlanMemoizesBaseline(t *testing.T) {
	core := NewCore(CoreConfig{})
	req := testReq(t)
	a, err := core.Plan(req)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	// Same (seed, scale): the memoized baseline answers a different
	// project size without a fresh simulation, and identical questions
	// reproduce the same bytes.
	b, err := core.Plan(req)
	if err != nil {
		t.Fatalf("Plan again: %v", err)
	}
	if a.Text != b.Text {
		t.Fatal("repeated Plan changed bytes")
	}
	req2 := req
	req2.PetaCycles = 4
	if _, err := core.Plan(req2); err != nil {
		t.Fatalf("Plan on shared baseline: %v", err)
	}
}

func TestCorePlanInfeasible(t *testing.T) {
	req := Request{Machine: "Ross", PetaCycles: 1e-9, Scale: 0.05}
	req.Canonicalize()
	if err := req.Validate(); err != nil {
		t.Fatalf("request invalid: %v", err)
	}
	_, err := NewCore(CoreConfig{}).Plan(req)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("Plan = %v, want ErrInfeasible", err)
	}
}

// TestCoreComputesBaselineOnce: concurrent plans of different sizes on
// one cold (machine, seed, scale) share a single baseline compute.
func TestCoreComputesBaselineOnce(t *testing.T) {
	core := NewCore(CoreConfig{})
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		req := testReq(t)
		req.PetaCycles = float64(i + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = core.Plan(req)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("Plan %d: %v", i, err)
		}
	}
	if n := core.computes.Load(); n != 1 {
		t.Fatalf("baseline computed %d times, want 1", n)
	}
	if n := core.baselines.len(); n != 1 {
		t.Fatalf("%d baselines kept, want 1", n)
	}
}

// TestCoreKeepsNoFailedBaseline: a failing compute reaches its caller and
// is not kept, so asking again computes again.
func TestCoreKeepsNoFailedBaseline(t *testing.T) {
	core := NewCore(CoreConfig{})
	req := testReq(t)
	req.Machine = "Cray XK7" // unvalidated: no such machine
	for i := 1; i <= 2; i++ {
		if _, err := core.Plan(req); err == nil || !strings.Contains(err.Error(), "Cray XK7") {
			t.Fatalf("Plan %d = %v, want an unknown-machine error", i, err)
		}
		if n := core.computes.Load(); n != int32(i) {
			t.Fatalf("after Plan %d: %d computes, want %d", i, n, i)
		}
	}
	if n := core.baselines.len(); n != 0 {
		t.Fatalf("%d baselines kept after failures, want 0", n)
	}
}

// TestCorePanickingBaselineReleasesWaiters: a compute that panics settles
// its call with a *PlanError, so every request waiting on it returns
// instead of blocking, and nothing is kept. The test owns the call while
// the requests arrive; whichever of them arrive after it settles own a
// compute of their own, which panics the same way.
func TestCorePanickingBaselineReleasesWaiters(t *testing.T) {
	core := NewCore(CoreConfig{})
	req := testReq(t)
	req.Scale = -1 // unvalidated: a negative-length log fails generation with a panic
	k := baselineKey{machine: req.Machine, seed: req.Seed, scale: req.Scale}
	pending, owner := core.baselines.join(k)
	if !owner {
		t.Fatal("cold key already in flight")
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = core.Plan(req)
		}()
	}
	core.fill(k, pending, req)
	wg.Wait()
	for i, err := range append(errs, pending.err) {
		var pe *PlanError
		if !errors.As(err, &pe) {
			t.Fatalf("caller %d: %v, want a *PlanError", i, err)
		}
	}
	if n := core.baselines.len(); n != 0 {
		t.Fatalf("%d baselines kept after a panic, want 0", n)
	}
}

// TestPlanDegradedMarkedAndUncached pins the fallback's answer: a
// degraded plan is marked, keeps the caller's request, and renders exactly
// the full plan of the same question at the degraded scale plus the NOTE
// line after the two header lines.
func TestPlanDegradedMarkedAndUncached(t *testing.T) {
	core := NewCore(CoreConfig{})
	req := testReq(t)
	p, err := core.PlanDegraded(context.Background(), req)
	if err != nil {
		t.Fatalf("PlanDegraded: %v", err)
	}
	if !p.Degraded {
		t.Fatal("fallback plan not marked degraded")
	}
	if p.Request != req {
		t.Fatalf("degraded plan request %+v, want %+v", p.Request, req)
	}
	if n := core.baselines.len(); n != 0 {
		t.Fatalf("degraded plan kept %d baselines, want 0", n)
	}
	full := req
	full.Scale = degradedScale
	fp, err := core.Plan(full)
	if err != nil {
		t.Fatalf("Plan at the degraded scale: %v", err)
	}
	head := strings.SplitAfterN(fp.Text, "\n", 3)
	want := head[0] + head[1] +
		"NOTE: degraded plan — the full sweep exceeded its budget; ranked on a reduced fallback log\n" + head[2]
	if p.Text != want {
		t.Fatalf("degraded plan differs from the full plan at scale %g:\n%s\nwant\n%s", full.Scale, p.Text, want)
	}
}

func TestPlanDegradedHonorsRequestContext(t *testing.T) {
	core := NewCore(CoreConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := core.PlanDegraded(ctx, testReq(t))
	if err == nil {
		t.Fatal("PlanDegraded succeeded under a cancelled context")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("PlanDegraded error = %v, want context.Canceled", err)
	}
}

func TestPlanErrorMessage(t *testing.T) {
	e := &PlanError{Key: "Ross|pc=2", Value: "boom"}
	if got := e.Error(); !strings.Contains(got, "Ross|pc=2") || !strings.Contains(got, "boom") {
		t.Fatalf("PlanError.Error() = %q", got)
	}
}
