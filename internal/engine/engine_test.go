package engine

import (
	"math/rand"
	"testing"

	"interstitial/internal/job"
	"interstitial/internal/machine"
	"interstitial/internal/sched"
	"interstitial/internal/sim"
	"interstitial/internal/tracing"
)

func cfg(cpus int) machine.Config {
	return machine.Config{Name: "test", CPUs: cpus, ClockGHz: 1}
}

func TestSingleJobLifecycle(t *testing.T) {
	s := New(cfg(10), sched.NewFCFS())
	j := job.New(1, "u", "g", 4, 100, 100, 50)
	s.Submit(j)
	s.Run()
	if j.State != job.Finished {
		t.Fatalf("state = %v", j.State)
	}
	if j.Start != 50 || j.Finish != 150 {
		t.Fatalf("start/finish = %d/%d, want 50/150", j.Start, j.Finish)
	}
	if len(s.Finished()) != 1 {
		t.Fatalf("finished = %d", len(s.Finished()))
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestQueueingWhenFull(t *testing.T) {
	s := New(cfg(10), sched.NewFCFS())
	a := job.New(1, "u", "g", 10, 100, 100, 0)
	b := job.New(2, "u", "g", 10, 50, 50, 10)
	s.Submit(a, b)
	s.Run()
	if b.Start != 100 {
		t.Fatalf("b started at %d, want 100 (after a)", b.Start)
	}
	if b.Wait() != 90 {
		t.Fatalf("b wait = %d, want 90", b.Wait())
	}
}

func TestEASYBackfillEndToEnd(t *testing.T) {
	s := New(cfg(10), sched.NewLSF())
	a := job.New(1, "u", "g", 8, 100, 100, 0) // runs [0,100)
	b := job.New(2, "u", "g", 10, 50, 50, 10) // head, must wait to 100
	c := job.New(3, "u", "g", 2, 80, 80, 20)  // backfills at 20, ends 100
	s.Submit(a, b, c)
	s.Run()
	if c.Start != 20 {
		t.Fatalf("backfill start = %d, want 20", c.Start)
	}
	if b.Start != 100 {
		t.Fatalf("head start = %d, want 100 (not delayed)", b.Start)
	}
}

func TestOverestimateDoesNotDelayActualStart(t *testing.T) {
	// a's estimate says it runs to 1000, but it actually ends at 100.
	// b must start at the *actual* finish.
	s := New(cfg(10), sched.NewLSF())
	a := job.New(1, "u", "g", 10, 100, 1000, 0)
	b := job.New(2, "u", "g", 10, 10, 10, 5)
	s.Submit(a, b)
	s.Run()
	if b.Start != 100 {
		t.Fatalf("b start = %d, want 100 (estimate must not matter)", b.Start)
	}
}

func TestTimedPassForGatedJob(t *testing.T) {
	// A gated job with no other events must still start when the night
	// window opens — via the timed pass.
	gate := sched.DPCSGate{BigCPUs: 4, NightStart: 18 * 3600, NightEnd: 6 * 3600}
	s := New(cfg(10), sched.NewDPCS(gate))
	j := job.New(1, "u", "g", 8, 100, 100, 12*3600) // submitted at noon
	s.Submit(j)
	s.Run()
	if j.Start != 18*3600 {
		t.Fatalf("gated start = %d, want 18:00 (%d)", j.Start, 18*3600)
	}
}

func TestStartDirect(t *testing.T) {
	s := New(cfg(10), sched.NewFCFS())
	n := job.New(1, "u", "g", 10, 100, 100, 50)
	s.Submit(n)
	ij := job.NewInterstitial(100, 4, 30, 0)
	s.StartDirect(ij)
	s.Run()
	if ij.Start != 0 || ij.Finish != 30 {
		t.Fatalf("interstitial start/finish = %d/%d", ij.Start, ij.Finish)
	}
	if n.Start != 50 {
		t.Fatalf("native start = %d, want 50", n.Start)
	}
}

func TestAfterPassHookSeesPlan(t *testing.T) {
	s := New(cfg(10), sched.NewLSF())
	blocker := job.New(1, "u", "g", 8, 100, 100, 0)
	head := job.New(2, "u", "g", 10, 50, 50, 10)
	s.Submit(blocker, head)
	var reservations []sim.Time
	s.AfterPass = func(sm *Simulator, res sched.PassResult) {
		if res.HeadReservation < sim.Infinity {
			reservations = append(reservations, res.HeadReservation)
		}
	}
	s.Run()
	found := false
	for _, r := range reservations {
		if r == 100 {
			found = true
		}
	}
	if !found {
		t.Fatalf("hook never saw the head reservation at 100: %v", reservations)
	}
}

func TestSubmitInPastPanics(t *testing.T) {
	s := New(cfg(10), sched.NewFCFS())
	s.Submit(job.New(1, "u", "g", 1, 10, 10, 100))
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("past submit did not panic")
		}
	}()
	s.Submit(job.New(2, "u", "g", 1, 10, 10, 5))
}

func TestAllJobsFinishUnderRandomLoad(t *testing.T) {
	for _, pol := range []sched.Policy{sched.NewFCFS(), sched.NewPBS(), sched.NewLSF(), sched.NewDPCS(sched.DefaultDPCSGate())} {
		rng := rand.New(rand.NewSource(7))
		s := New(cfg(64), pol)
		var jobs []*job.Job
		at := sim.Time(0)
		for i := 1; i <= 300; i++ {
			at += sim.Time(rng.Intn(200))
			rt := sim.Time(rng.Intn(3000) + 1)
			est := rt * sim.Time(1+rng.Intn(5))
			j := job.New(i, "u", "g", rng.Intn(32)+1, rt, est, at)
			jobs = append(jobs, j)
		}
		s.Submit(jobs...)
		s.Run()
		if got := len(s.Finished()); got != 300 {
			t.Fatalf("%s: finished %d/300 jobs", pol.Name(), got)
		}
		for _, j := range jobs {
			if err := j.Validate(); err != nil {
				t.Fatalf("%s: %v", pol.Name(), err)
			}
			if j.State != job.Finished {
				t.Fatalf("%s: job %d state %v", pol.Name(), j.ID, j.State)
			}
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []sim.Time {
		rng := rand.New(rand.NewSource(11))
		s := New(cfg(32), sched.NewLSF())
		var jobs []*job.Job
		at := sim.Time(0)
		for i := 1; i <= 200; i++ {
			at += sim.Time(rng.Intn(100))
			rt := sim.Time(rng.Intn(1000) + 1)
			j := job.New(i, "u"+string(rune('a'+i%5)), "g"+string(rune('a'+i%3)), rng.Intn(16)+1, rt, rt*2, at)
			jobs = append(jobs, j)
		}
		s.Submit(jobs...)
		s.Run()
		starts := make([]sim.Time, len(jobs))
		for i, j := range jobs {
			starts[i] = j.Start
		}
		return starts
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at job %d: %d vs %d", i+1, a[i], b[i])
		}
	}
}

func TestFIFOWithinEqualPriority(t *testing.T) {
	// Two identical jobs, same submit time: lower ID starts first under a
	// flat policy when capacity admits only one.
	s := New(cfg(4), sched.NewFCFS())
	a := job.New(1, "u", "g", 4, 100, 100, 0)
	b := job.New(2, "u", "g", 4, 100, 100, 0)
	s.Submit(b, a) // submission order reversed on purpose
	s.Run()
	if !(a.Start < b.Start) {
		t.Fatalf("ID tie-break violated: a=%d b=%d", a.Start, b.Start)
	}
}

func TestKillReleasesCPUs(t *testing.T) {
	s := New(cfg(10), sched.NewFCFS())
	ij := job.NewInterstitial(100, 6, 1000, 0)
	s.StartDirect(ij)
	s.RunUntil(50)
	if s.Machine().Free() != 4 {
		t.Fatalf("free = %d before kill", s.Machine().Free())
	}
	s.Kill(ij)
	if s.Machine().Free() != 10 {
		t.Fatalf("free = %d after kill, want 10", s.Machine().Free())
	}
	if ij.State != job.Killed {
		t.Fatalf("state = %v", ij.State)
	}
	if !mustPanic(func() { s.Kill(ij) }) || s.Stats().Kills != 1 {
		t.Fatalf("killing the killed job again: want a panic and 1 kill, got %d kills", s.Stats().Kills)
	}
	s.Run()
	// The cancelled finish event must not fire: the job stays Killed and
	// is not in the finished list.
	if ij.State != job.Killed {
		t.Fatalf("killed job resurrected: %v", ij.State)
	}
	for _, f := range s.Finished() {
		if f.ID == ij.ID {
			t.Fatal("killed job in finished list")
		}
	}
}

func TestKillTriggersReschedule(t *testing.T) {
	s := New(cfg(10), sched.NewFCFS())
	ij := job.NewInterstitial(100, 10, 1000, 0)
	s.StartDirect(ij)
	n := job.New(1, "u", "g", 10, 50, 50, 10)
	s.Submit(n)
	s.RunUntil(20)
	if n.State != job.Queued {
		t.Fatalf("native state = %v, want queued", n.State)
	}
	s.Kill(ij)
	s.Run()
	if n.Start != 20 {
		t.Fatalf("native start = %d, want 20 (right after kill)", n.Start)
	}
}

func TestKillUnknownPanics(t *testing.T) {
	s := New(cfg(10), sched.NewFCFS())
	defer func() {
		if recover() == nil {
			t.Fatal("killing unknown job did not panic")
		}
	}()
	s.Kill(job.New(9, "u", "g", 1, 10, 10, 0))
}

// mustPanic runs fn and reports whether it panicked.
func mustPanic(fn func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	fn()
	return false
}

// TestKillCloneChangesNothing kills a clone of a running job. The clone
// carries the original's finish slot, so the registry's pointer check
// must refuse it before anything moves: the original keeps its CPUs and
// its finish event, finishes on time, and the run stays checkpointable.
func TestKillCloneChangesNothing(t *testing.T) {
	s := New(cfg(10), sched.NewFCFS())
	a := job.NewInterstitial(5, 4, 100, 0)
	s.StartDirect(a)
	s.RunUntil(50)
	if !mustPanic(func() { s.Kill(a.Clone()) }) {
		t.Fatal("killing a clone of a running job did not panic")
	}
	if busy := s.Machine().Busy(); busy != 4 || a.State != job.Running || s.Stats().Kills != 0 {
		t.Fatalf("after the refused kill: busy %d, state %v, kills %d; want 4, running, 0", busy, a.State, s.Stats().Kills)
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after the refused kill: %v", err)
	}
	s.Run()
	if a.State != job.Finished || a.Finish != 100 || len(s.Finished()) != 1 || s.Machine().Busy() != 0 {
		t.Fatalf("original after the run: state %v finish %d, %d finished, busy %d; want finished at 100, 1, 0",
			a.State, a.Finish, len(s.Finished()), s.Machine().Busy())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestKillAfterFinishPanics kills a job that already finished, once while
// its finish slot is vacant and once after a later job reused the slot:
// both panic, and the later job runs on untouched.
func TestKillAfterFinishPanics(t *testing.T) {
	s := New(cfg(10), sched.NewFCFS())
	a := job.NewInterstitial(5, 4, 100, 0)
	s.StartDirect(a)
	s.RunUntil(200)
	if !mustPanic(func() { s.Kill(a) }) {
		t.Fatal("killing a finished job did not panic")
	}
	b := job.NewInterstitial(6, 6, 100, 0)
	s.StartDirect(b)
	if b.FinishSlot() != a.FinishSlot() {
		t.Fatalf("b took finish slot %d, not a's vacated %d", b.FinishSlot(), a.FinishSlot())
	}
	if !mustPanic(func() { s.Kill(a) }) {
		t.Fatal("killing a finished job whose slot was reused did not panic")
	}
	if s.Stats().Kills != 0 || a.State != job.Finished || b.State != job.Running || s.Machine().Busy() != 6 {
		t.Fatalf("after the refused kills: kills %d, a %v, b %v, busy %d", s.Stats().Kills, a.State, b.State, s.Machine().Busy())
	}
	s.Run()
	if b.State != job.Finished || b.Finish != 300 || len(s.Finished()) != 2 {
		t.Fatalf("b after the run: state %v finish %d, %d finished; want finished at 300, 2", b.State, b.Finish, len(s.Finished()))
	}
}

// TestKillThenReuseEntryCancelsOnlyTheKilled kills job A and, at the same
// instant, starts job B in A's vacated finish-registry entry. The entry
// is the finish event, so A's cancelled scheduling and B's live one name
// the same entry: only A's must be cancelled. B is timed to finish with
// A's old finish instant, and both finish events sit in one batch chain.
func TestKillThenReuseEntryCancelsOnlyTheKilled(t *testing.T) {
	s := New(cfg(10), sched.NewFCFS())
	a := job.NewInterstitial(5, 4, 100, 0)
	c := job.NewInterstitial(7, 2, 100, 0)
	s.StartDirect(a)
	s.StartDirect(c)
	s.RunUntil(40)
	slot := a.FinishSlot()
	s.Kill(a)
	b := job.NewInterstitial(6, 6, 60, 40)
	s.StartDirect(b)
	if b.FinishSlot() != slot {
		t.Fatalf("b took finish entry %d, not a's vacated %d", b.FinishSlot(), slot)
	}
	s.Run()
	if a.State != job.Killed || s.Stats().Kills != 1 {
		t.Fatalf("a: state %v, kills %d; want killed once", a.State, s.Stats().Kills)
	}
	if b.State != job.Finished || b.Finish != 100 || c.State != job.Finished || c.Finish != 100 {
		t.Fatalf("b finished %v at %d, c %v at %d; want both finished at 100", b.State, b.Finish, c.State, c.Finish)
	}
	if n := len(s.Finished()); n != 2 || s.Machine().Busy() != 0 {
		t.Fatalf("%d finished, busy %d; want 2, 0", n, s.Machine().Busy())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAccessorsAndSubmitNow(t *testing.T) {
	s := New(cfg(10), sched.NewLSF())
	if s.Policy().Name() != "LSF" {
		t.Fatalf("policy = %s", s.Policy().Name())
	}
	if s.Now() != 0 {
		t.Fatalf("now = %d", s.Now())
	}
	blocker := job.New(1, "u", "g", 10, 100, 100, 0)
	s.Submit(blocker)
	s.RunUntil(50)
	j := job.New(2, "u", "g", 4, 10, 10, 0)
	s.SubmitNow(j)
	if j.Submit != 50 {
		t.Fatalf("SubmitNow stamped %d, want 50", j.Submit)
	}
	if s.Queue().Len() != 1 {
		t.Fatalf("queue len = %d", s.Queue().Len())
	}
	s.Run()
	if j.Start != 100 {
		t.Fatalf("late-submitted job start = %d, want 100", j.Start)
	}
}

func TestRequestPassAt(t *testing.T) {
	s := New(cfg(10), sched.NewFCFS())
	// No job events after t=10; an external pass request at t=500 must
	// still fire (observable via the AfterPass hook).
	s.Submit(job.New(1, "u", "g", 1, 10, 10, 0))
	var passTimes []sim.Time
	s.AfterPass = func(sm *Simulator, _ sched.PassResult) {
		passTimes = append(passTimes, sm.Now())
	}
	s.RequestPassAt(500)
	s.RequestPassAt(2) // in the past relative to nothing yet — fires at its time
	s.Run()
	sawLate := false
	for _, at := range passTimes {
		if at == 500 {
			sawLate = true
		}
	}
	if !sawLate {
		t.Fatalf("pass at 500 never fired: %v", passTimes)
	}
}

func TestCheckInvariantsCatchesBrokenJob(t *testing.T) {
	s := New(cfg(10), sched.NewFCFS())
	j := job.New(1, "u", "g", 1, 10, 10, 0)
	s.Submit(j)
	s.Run()
	j.Finish = 999 // corrupt the record
	if s.CheckInvariants() == nil {
		t.Fatal("corrupted job record passed invariants")
	}
}

// TestMultiBatchSubmit checks the sorted-injection path when Submit is
// called several times with interleaved, unsorted submit times: every job
// must still start in submit-time order under FCFS.
func TestMultiBatchSubmit(t *testing.T) {
	s := New(cfg(1), sched.NewFCFS())
	a := job.New(1, "u", "g", 1, 10, 10, 30)
	b := job.New(2, "u", "g", 1, 10, 10, 5)
	c := job.New(3, "u", "g", 1, 10, 10, 20)
	d := job.New(4, "u", "g", 1, 10, 10, 0)
	s.Submit(a, b) // unsorted within the batch
	s.Submit(c, d) // second batch re-arms the injector earlier
	s.Run()
	for _, j := range []*job.Job{a, b, c, d} {
		if j.State != job.Finished {
			t.Fatalf("job %d state = %v", j.ID, j.State)
		}
	}
	// One CPU, FCFS: service order follows submit time 0,5,20,30.
	order := []*job.Job{d, b, c, a}
	for i := 1; i < len(order); i++ {
		if order[i].Start < order[i-1].Finish {
			t.Fatalf("job %d started at %d before job %d finished at %d",
				order[i].ID, order[i].Start, order[i-1].ID, order[i-1].Finish)
		}
	}
	if d.Start != 0 || b.Start != 10 {
		t.Fatalf("starts d=%d b=%d, want 0 and 10", d.Start, b.Start)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitTieOrderIsCallOrder pins the determinism contract for equal
// submit times: jobs submitted at the same instant enter the queue in
// Submit-call order, whichever batch they arrived in.
func TestSubmitTieOrderIsCallOrder(t *testing.T) {
	s := New(cfg(1), sched.NewFCFS())
	a := job.New(1, "u", "g", 1, 10, 10, 0)
	b := job.New(2, "u", "g", 1, 10, 10, 0)
	c := job.New(3, "u", "g", 1, 10, 10, 0)
	s.Submit(a, b)
	s.Submit(c)
	s.Run()
	if a.Start != 0 || b.Start != 10 || c.Start != 20 {
		t.Fatalf("starts = %d,%d,%d, want 0,10,20 (FIFO in call order)", a.Start, b.Start, c.Start)
	}
}

// TestSimulatorStats checks the scheduler-level counters: submissions,
// pass dispatches, backfill fills, direct starts, and kills, plus the
// embedded kernel view.
func TestSimulatorStats(t *testing.T) {
	s := New(cfg(8), sched.NewLSF())
	s.Submit(job.New(1, "u", "g", 8, 100, 100, 0))  // occupies everything
	s.Submit(job.New(2, "u", "g", 8, 100, 100, 10)) // waits for 1
	s.Submit(job.New(3, "u", "g", 4, 50, 50, 20))   // waits too: no hole until 100
	s.Run()

	st := s.Stats()
	if st.Submitted != 3 {
		t.Errorf("submitted = %d, want 3", st.Submitted)
	}
	if st.Dispatched != 3 {
		t.Errorf("dispatched = %d, want 3", st.Dispatched)
	}
	if st.Passes == 0 {
		t.Error("no scheduling passes counted")
	}
	if st.Kernel.Executed == 0 || st.Kernel.Scheduled < st.Kernel.Executed {
		t.Errorf("kernel view implausible: %+v", st.Kernel)
	}

	// Direct starts and kills (the interstitial path).
	s2 := New(cfg(8), sched.NewLSF())
	ij := job.NewInterstitial(100, 2, 50, 0)
	s2.StartDirect(ij)
	s2.Kill(ij)
	s2.Run()
	st2 := s2.Stats()
	if st2.DirectStarts != 1 || st2.Kills != 1 {
		t.Errorf("direct/kills = %d/%d, want 1/1", st2.DirectStarts, st2.Kills)
	}
}

// TestBackfillCounted checks PassResult.Backfilled reaches the stats: a
// narrow job starting around a blocked wide head is a backfill fill.
func TestBackfillCounted(t *testing.T) {
	s := New(cfg(8), sched.NewLSF())
	s.Submit(job.New(1, "u", "g", 6, 100, 100, 0)) // runs, leaves 2 free
	s.Submit(job.New(2, "u", "g", 8, 100, 100, 1)) // head: needs the whole machine
	s.Submit(job.New(3, "u", "g", 2, 10, 10, 2))   // fits the hole, done before 100
	s.Run()
	if st := s.Stats(); st.Backfilled != 1 {
		t.Errorf("backfilled = %d, want 1", st.Backfilled)
	}
}

// TestDrainTrace: a full-machine maintenance drain in a traced log
// enters through the queue, starts once (its wait in Aux), and gives
// its CPUs back with one restore. It is never placed or finished.
func TestDrainTrace(t *testing.T) {
	const drainID = 900
	drain := job.New(drainID, "_maint", "_maint", 10, 200, 200, 50)
	drain.Class = job.Maintenance
	s := New(cfg(10), sched.NewLSF())
	tr := tracing.NewCollector(0).Tracer("drain", "test", 10)
	s.SetTracer(tr)
	s.Submit(
		job.New(1, "u", "g", 8, 100, 100, 0), // runs [0,100): the drain waits for it
		drain,
		job.New(2, "u", "g", 2, 30, 30, 60),  // backfills [60,90) ahead of the drain
		job.New(3, "u", "g", 4, 50, 50, 150), // waits out the drain
	)
	s.Run()
	if drain.Start != 100 || drain.Finish != 300 {
		t.Fatalf("drain ran [%d,%d), want [100,300)", drain.Start, drain.Finish)
	}
	var got []tracing.Event
	for _, e := range tr.Events() {
		if e.Job != drainID {
			continue
		}
		if e.Kind == tracing.KindFinish || e.Kind == tracing.KindPlace {
			t.Errorf("drain got a %s/%s event at %d", e.Kind, e.Reason, e.At)
		}
		got = append(got, e)
	}
	if len(got) != 3 {
		t.Fatalf("drain has %d events, want submit, start and restore: %+v", len(got), got)
	}
	if e := got[0]; e.Kind != tracing.KindSubmit || e.Reason != tracing.ReasonQueued || e.At != 50 {
		t.Errorf("first drain event = %s/%s at %d, want submit/queued at 50", e.Kind, e.Reason, e.At)
	}
	if e := got[1]; (e.Kind != tracing.KindStart && e.Kind != tracing.KindBackfill) || e.At != 100 || e.Aux != 50 {
		t.Errorf("second drain event = %s/%s at %d (aux %d), want a start at 100 with wait 50", e.Kind, e.Reason, e.At, e.Aux)
	}
	if e := got[2]; e.Kind != tracing.KindRestore || e.Reason != tracing.ReasonMaintenance || e.At != 300 {
		t.Errorf("third drain event = %s/%s at %d, want restore/maintenance at 300", e.Kind, e.Reason, e.At)
	}
}
