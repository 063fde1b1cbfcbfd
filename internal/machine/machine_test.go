package machine

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"interstitial/internal/job"
	"interstitial/internal/sim"
)

func TestProfiles(t *testing.T) {
	cases := []struct {
		cfg  Config
		cpus int
		tcyc float64
	}{
		{Ross(), 1436, 0.844},
		{BlueMountain(), 4662, 1.221},
		{BluePacific(), 926, 0.342},
	}
	for _, c := range cases {
		if c.cfg.CPUs != c.cpus {
			t.Errorf("%s CPUs = %d, want %d", c.cfg.Name, c.cfg.CPUs, c.cpus)
		}
		if got := c.cfg.TeraCycles(); math.Abs(got-c.tcyc) > 0.005 {
			t.Errorf("%s TeraCycles = %.3f, want %.3f (Table 1)", c.cfg.Name, got, c.tcyc)
		}
	}
}

func TestStartFinishAccounting(t *testing.T) {
	m := New(Config{Name: "t", CPUs: 100, ClockGHz: 1})
	j := job.New(1, "u", "g", 40, 50, 50, 0)
	if !m.CanStart(40) {
		t.Fatal("CanStart(40) on empty 100-CPU machine = false")
	}
	m.Start(0, j)
	if m.Free() != 60 || m.Busy() != 40 || m.BusyNative() != 40 {
		t.Fatalf("after start free=%d busy=%d native=%d", m.Free(), m.Busy(), m.BusyNative())
	}
	if j.State != job.Running || j.Start != 0 {
		t.Fatalf("job state %v start %d", j.State, j.Start)
	}
	m.Finish(50, j)
	if m.Free() != 100 || m.RunningCount() != 0 {
		t.Fatalf("after finish free=%d running=%d", m.Free(), m.RunningCount())
	}
	if j.Finish != 50 || j.State != job.Finished {
		t.Fatalf("job finish %d state %v", j.Finish, j.State)
	}
	started, finished := m.Counts()
	if started != 1 || finished != 1 {
		t.Fatalf("counts = %d/%d", started, finished)
	}
}

func TestUtilizationIntegral(t *testing.T) {
	m := New(Config{Name: "t", CPUs: 10, ClockGHz: 1})
	n := job.New(1, "u", "g", 5, 100, 100, 0)
	m.Start(0, n)
	i := job.NewInterstitial(2, 5, 50, 0)
	m.Start(0, i)
	m.Finish(50, i)
	m.Finish(100, n)
	overall, native := m.Utilization(100)
	// native: 5 CPUs for 100s = 500; interstitial: 5 CPUs for 50s = 250.
	if math.Abs(overall-0.75) > 1e-9 {
		t.Fatalf("overall = %v, want 0.75", overall)
	}
	if math.Abs(native-0.5) > 1e-9 {
		t.Fatalf("native = %v, want 0.5", native)
	}
}

func TestUtilizationAtZero(t *testing.T) {
	m := New(Ross())
	if o, n := m.Utilization(0); o != 0 || n != 0 {
		t.Fatalf("utilization at t=0 = %v/%v", o, n)
	}
}

func TestStartOverCapacityPanics(t *testing.T) {
	m := New(Config{Name: "t", CPUs: 4, ClockGHz: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("oversubscription did not panic")
		}
	}()
	m.Start(0, job.New(1, "u", "g", 5, 10, 10, 0))
}

func TestDoubleStartPanics(t *testing.T) {
	m := New(Config{Name: "t", CPUs: 10, ClockGHz: 1})
	j := job.New(1, "u", "g", 1, 10, 10, 0)
	m.Start(0, j)
	defer func() {
		if recover() == nil {
			t.Fatal("double start did not panic")
		}
	}()
	m.Start(1, j)
}

func TestFinishUnknownPanics(t *testing.T) {
	m := New(Config{Name: "t", CPUs: 10, ClockGHz: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("finishing unknown job did not panic")
		}
	}()
	m.Finish(5, job.New(9, "u", "g", 1, 10, 10, 0))
}

func TestTimeBackwardsPanics(t *testing.T) {
	m := New(Config{Name: "t", CPUs: 10, ClockGHz: 1})
	j := job.New(1, "u", "g", 1, 10, 10, 0)
	m.Start(100, j)
	defer func() {
		if recover() == nil {
			t.Fatal("backwards finish did not panic")
		}
	}()
	m.Finish(50, j)
}

func TestPeakBusy(t *testing.T) {
	m := New(Config{Name: "t", CPUs: 10, ClockGHz: 1})
	a := job.New(1, "u", "g", 4, 100, 100, 0)
	b := job.New(2, "u", "g", 5, 10, 10, 0)
	m.Start(0, a)
	m.Start(0, b)
	m.Finish(10, b)
	if m.PeakBusy() != 9 {
		t.Fatalf("peak = %d, want 9", m.PeakBusy())
	}
}

func TestRunningIteration(t *testing.T) {
	m := New(Config{Name: "t", CPUs: 10, ClockGHz: 1})
	for id := 1; id <= 3; id++ {
		m.Start(0, job.New(id, "u", "g", 2, 10, 10, 0))
	}
	seen := map[int]bool{}
	m.Running(func(j *job.Job) { seen[j.ID] = true })
	if len(seen) != 3 {
		t.Fatalf("iterated %d jobs, want 3", len(seen))
	}
	if len(m.RunningJobs()) != 3 {
		t.Fatal("RunningJobs length mismatch")
	}
}

// Property: any sequence of feasible starts/finishes keeps invariants and
// free CPU count within [0, N].
func TestQuickLedgerInvariant(t *testing.T) {
	f := func(ops []uint8) bool {
		m := New(Config{Name: "q", CPUs: 64, ClockGHz: 1})
		var now sim.Time
		id := 0
		var live []*job.Job
		for _, op := range ops {
			now++
			if op%2 == 0 || len(live) == 0 { // try start
				cpus := int(op%32) + 1
				if m.CanStart(cpus) {
					id++
					j := job.New(id, "u", "g", cpus, 1000, 1000, now)
					m.Start(now, j)
					live = append(live, j)
				}
			} else { // finish one
				k := int(op) % len(live)
				j := live[k]
				j.Runtime = now - j.Start // keep Validate happy
				m.Finish(now, j)
				live = append(live[:k], live[k+1:]...)
			}
			if err := m.CheckInvariants(); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRelease(t *testing.T) {
	m := New(Config{Name: "t", CPUs: 10, ClockGHz: 1})
	j := job.NewInterstitial(1, 6, 1000, 0)
	m.Start(0, j)
	m.Release(500, j)
	if m.Free() != 10 || m.RunningCount() != 0 {
		t.Fatalf("free=%d running=%d after release", m.Free(), m.RunningCount())
	}
	if j.State != job.Killed {
		t.Fatalf("state = %v", j.State)
	}
	// Released work still counts in the busy integral.
	_, nat := m.Utilization(1000)
	if nat != 0 {
		t.Fatalf("native integral = %v, want 0 (interstitial job)", nat)
	}
	if _, inter := m.CPUSeconds(); inter != 6*500 {
		t.Fatalf("interstitial CPU-seconds = %v, want 3000", inter)
	}
	// Finished count unchanged.
	if _, fin := m.Counts(); fin != 0 {
		t.Fatalf("finished = %d, want 0", fin)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseUnknownPanics(t *testing.T) {
	m := New(Config{Name: "t", CPUs: 10, ClockGHz: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("release of unknown job did not panic")
		}
	}()
	m.Release(5, job.New(1, "u", "g", 1, 10, 10, 0))
}

// TestLeavingWithMovedEstimatePanics: a job's release is entered at its
// estimated end when it starts, so finishing or killing it after its
// estimate moved finds no release there and panics, naming the job.
func TestLeavingWithMovedEstimatePanics(t *testing.T) {
	for _, op := range []string{"finishing", "releasing"} {
		m := New(Config{Name: "t", CPUs: 10, ClockGHz: 1})
		j := job.New(7, "u", "g", 4, 100, 200, 0)
		m.Start(0, j)
		j.Estimate = 300
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, op+" job 7 whose release of 4 CPUs at 300 is missing") {
					t.Fatalf("%s: panic %q", op, msg)
				}
			}()
			if op == "finishing" {
				m.Finish(50, j)
			} else {
				m.Release(50, j)
			}
		}()
	}
}
