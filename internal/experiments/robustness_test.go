package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"
)

// stubResult is a trivial Renderer for injected test experiments.
type stubResult struct{ text string }

func (r *stubResult) Render(w io.Writer) error {
	_, err := fmt.Fprintln(w, r.text)
	return err
}

// TestRunAllIsolatesCellPanic injects an experiment whose fan-out panics
// in one cell — the library's stand-in for a deliberate invariant panic
// deep in the simulator. RunAll must return the other experiments'
// completed tables, convert the panic into a CellError carrying the
// experiment key, cell index, and stack, and not crash the process.
func TestRunAllIsolatesCellPanic(t *testing.T) {
	l := testLab()
	reg := NewRegistry(l)
	reg.Register("chaos-cell", func(l *Lab) (Renderer, error) {
		l.fanout(8, func(i int) {
			if i == 5 {
				panic("injected invariant violation")
			}
		})
		return &stubResult{"unreachable"}, nil
	})
	names := []string{"table6", "chaos-cell", "table5"}
	rs, report, err := reg.RunAll(names)
	if err != nil {
		t.Fatalf("RunAll returned a hard error: %v", err)
	}
	if rs[0] == nil || rs[2] == nil {
		t.Fatal("healthy experiments lost their results to a neighbor's panic")
	}
	if rs[1] != nil {
		t.Fatal("panicked experiment produced a result")
	}
	if len(report.Completed) != 2 || len(report.Failed) != 1 || len(report.Unfinished) != 0 {
		t.Fatalf("report = %v", report)
	}
	ce := report.Failed[0]
	if ce.Experiment != "chaos-cell" || ce.Cell != 5 {
		t.Fatalf("CellError attribution = %s cell %d, want chaos-cell cell 5", ce.Experiment, ce.Cell)
	}
	if !strings.Contains(fmt.Sprint(ce.Value), "injected invariant violation") {
		t.Fatalf("CellError value = %v", ce.Value)
	}
	if !bytes.Contains(ce.Stack, []byte("goroutine")) {
		t.Fatal("CellError carries no stack")
	}
	if !strings.Contains(ce.Error(), "chaos-cell") || !strings.Contains(ce.Error(), "cell 5") {
		t.Fatalf("CellError.Error() = %q", ce.Error())
	}
	if report.OK() {
		t.Fatal("report with a failure claims OK")
	}

	// The failure must surface in the timing report's status column.
	var sawFailed bool
	for _, row := range l.Timings().Rows() {
		if row.Name == "chaos-cell" && row.Status == "failed" {
			sawFailed = true
		}
	}
	if !sawFailed {
		t.Fatal("timing report has no failed row for chaos-cell")
	}
}

// TestRunAllIsolatesBodyPanic: a panic in the experiment body itself
// (outside any fan-out) converts with cell index -1.
func TestRunAllIsolatesBodyPanic(t *testing.T) {
	reg := NewRegistry(testLab())
	reg.Register("chaos-body", func(l *Lab) (Renderer, error) {
		panic(fmt.Errorf("body blew up"))
	})
	reg.Register("healthy", func(l *Lab) (Renderer, error) {
		return &stubResult{"fine"}, nil
	})
	rs, report, err := reg.RunAll([]string{"chaos-body", "healthy"})
	if err != nil {
		t.Fatalf("RunAll returned a hard error: %v", err)
	}
	if rs[1] == nil {
		t.Fatal("healthy experiment lost its result")
	}
	if len(report.Failed) != 1 {
		t.Fatalf("failed = %v", report.Failed)
	}
	if ce := report.Failed[0]; ce.Experiment != "chaos-body" || ce.Cell != -1 {
		t.Fatalf("attribution = %s cell %d, want chaos-body cell -1", ce.Experiment, ce.Cell)
	}
}

// TestRunAllReportsPlainErrors: an experiment returning an ordinary error
// is a hard failure (status "error", RunAll error), not a panic conversion.
func TestRunAllReportsPlainErrors(t *testing.T) {
	reg := NewRegistry(testLab())
	reg.Register("erroring", func(l *Lab) (Renderer, error) {
		return nil, fmt.Errorf("no data")
	})
	rs, report, err := reg.RunAll([]string{"erroring"})
	if err == nil || !strings.Contains(err.Error(), "no data") {
		t.Fatalf("err = %v", err)
	}
	if rs[0] != nil || len(report.Failed) != 0 {
		t.Fatalf("plain error misclassified: rs=%v report=%v", rs, report)
	}
}

// TestRunAllCancellation: cancelling the lab's context mid-run must abort
// in-flight simulations cooperatively, return within 250ms of the
// cancellation, and list every unfinished experiment in the report.
func TestRunAllCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Big enough that the run takes seconds; the cancel lands mid-flight.
	l := NewLab(Options{Seed: 1, Scale: 0.3, Reps: 12, Samples: 200, Ctx: ctx})
	var cancelledAt time.Time
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancelledAt = time.Now()
		cancel()
	}()
	rs, report, err := NewRegistry(l).RunAll([]string{"table2", "table4", "table6"})
	returned := time.Now()
	if err != nil {
		t.Fatalf("cancellation must not be a hard error, got %v", err)
	}
	if report.OK() {
		t.Skip("run completed before the cancel landed; nothing to assert")
	}
	if lag := returned.Sub(cancelledAt); lag > 250*time.Millisecond {
		t.Fatalf("RunAll returned %v after cancellation, want <= 250ms", lag)
	}
	if len(report.Unfinished) == 0 {
		t.Fatalf("cancelled run reported no unfinished experiments: %v", report)
	}
	if report.Err != context.Canceled {
		t.Fatalf("report.Err = %v, want context.Canceled", report.Err)
	}
	for i, name := range []string{"table2", "table4", "table6"} {
		if rs[i] != nil {
			continue // finished before the cancel: fine
		}
		found := false
		for _, u := range report.Unfinished {
			if u == name {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s has no result and is not reported unfinished", name)
		}
	}
	if !strings.Contains(report.String(), "unfinished") {
		t.Fatalf("report.String() = %q", report.String())
	}
}

// TestBackgroundContextByteIdentical: an explicit background context, at
// several worker counts, renders byte-identically to a context-free lab —
// the unarmed cancellation path must not perturb the kernel.
func TestBackgroundContextByteIdentical(t *testing.T) {
	names := []string{"table6", "ablation-preemption"}
	base := Options{Seed: 1, Scale: 0.08, Reps: 4, Samples: 60}
	rs, _, err := NewRegistry(NewLab(base)).RunAll(names)
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(t, rs)
	for _, workers := range []int{1, 7} {
		o := base
		o.Ctx = context.Background()
		o.Workers = workers
		rs, report, err := NewRegistry(NewLab(o)).RunAll(names)
		if err != nil || !report.OK() {
			t.Fatalf("workers=%d: err=%v report=%v", workers, err, report)
		}
		if got := renderAll(t, rs); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d with background ctx: output differs from context-free run", workers)
		}
	}
}
