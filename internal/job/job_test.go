package job

import (
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"interstitial/internal/sim"
)

func TestNewDefaults(t *testing.T) {
	j := New(7, "alice", "phys", 16, 100, 600, 50)
	if j.Class != Native {
		t.Fatalf("class = %v, want native", j.Class)
	}
	if j.State != Created {
		t.Fatalf("state = %v, want created", j.State)
	}
	if j.Start != -1 || j.Finish != -1 {
		t.Fatalf("start/finish = %d/%d, want -1/-1", j.Start, j.Finish)
	}
	if err := j.Validate(); err != nil {
		t.Fatalf("fresh job invalid: %v", err)
	}
}

func TestNewInterstitial(t *testing.T) {
	j := NewInterstitial(1, 32, 458, 0)
	if j.Class != Interstitial {
		t.Fatal("class not interstitial")
	}
	if j.Estimate != j.Runtime {
		t.Fatalf("interstitial estimate %d != runtime %d", j.Estimate, j.Runtime)
	}
}

func TestNewPanicsOnBadCPUs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with 0 CPUs did not panic")
		}
	}()
	New(1, "u", "g", 0, 10, 10, 0)
}

func TestWaitAndEF(t *testing.T) {
	j := New(1, "u", "g", 4, 100, 200, 1000)
	if j.Wait() != -1 {
		t.Fatalf("unstarted wait = %d, want -1", j.Wait())
	}
	if j.ExpansionFactor() != -1 {
		t.Fatal("unstarted EF should be -1")
	}
	j.Start = 1300
	if j.Wait() != 300 {
		t.Fatalf("wait = %d, want 300", j.Wait())
	}
	if got := j.ExpansionFactor(); got != 4.0 {
		t.Fatalf("EF = %v, want 4.0", got)
	}
}

func TestEFZeroRuntimeClamped(t *testing.T) {
	j := New(1, "u", "g", 1, 0, 1, 0)
	j.Start = 10
	if got := j.ExpansionFactor(); got != 11 {
		t.Fatalf("EF = %v, want 11 (runtime clamped to 1s)", got)
	}
}

func TestEstimatedEnd(t *testing.T) {
	j := New(1, "u", "g", 1, 100, 500, 0)
	if j.EstimatedEnd() != -1 {
		t.Fatal("unstarted EstimatedEnd should be -1")
	}
	j.Start = 1000
	if got := j.EstimatedEnd(); got != 1500 {
		t.Fatalf("EstimatedEnd = %d, want 1500", got)
	}
	// Underestimate: the true end dominates so planning never sees a
	// running job as already gone.
	j2 := New(2, "u", "g", 1, 500, 100, 0)
	j2.Start = 1000
	if got := j2.EstimatedEnd(); got != 1500 {
		t.Fatalf("underestimated EstimatedEnd = %d, want 1500", got)
	}
}

func TestCPUSeconds(t *testing.T) {
	j := New(1, "u", "g", 32, 458, 458, 0)
	if got := j.CPUSeconds(); got != 32*458 {
		t.Fatalf("CPUSeconds = %v", got)
	}
}

func TestValidateCatchesBrokenJobs(t *testing.T) {
	mk := func() *Job {
		j := New(1, "u", "g", 2, 100, 100, 50)
		j.Start = 60
		j.Finish = 160
		j.State = Finished
		return j
	}
	if err := mk().Validate(); err != nil {
		t.Fatalf("good job invalid: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Job)
		frag string
	}{
		{"start before submit", func(j *Job) { j.Start = 10 }, "before submit"},
		{"finish mismatch", func(j *Job) { j.Finish = 170 }, "finish"},
		{"running unstarted", func(j *Job) { j.State = Running; j.Start = -1; j.Finish = -1 }, "never started"},
		{"finished missing times", func(j *Job) { j.Finish = -1 }, "missing times"},
	}
	for _, c := range cases {
		j := mk()
		c.mut(j)
		err := j.Validate()
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.frag)
		}
	}
}

func TestClassAndStateStrings(t *testing.T) {
	if Native.String() != "native" || Interstitial.String() != "interstitial" {
		t.Fatal("class strings wrong")
	}
	for s, want := range map[State]string{Created: "created", Queued: "queued", Running: "running", Finished: "finished"} {
		if s.String() != want {
			t.Fatalf("state %d string = %q", s, s.String())
		}
	}
}

// Property: EF >= 1 for any started job, and wait is nonnegative when the
// start respects the submit time.
func TestQuickEFAtLeastOne(t *testing.T) {
	f := func(cpus uint8, runtime, wait uint16) bool {
		c := int(cpus)%64 + 1
		j := New(1, "u", "g", c, sim.Time(runtime), sim.Time(runtime), 100)
		j.Start = 100 + sim.Time(wait)
		return j.Wait() == sim.Time(wait) && j.ExpansionFactor() >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCloneWithinPackage(t *testing.T) {
	j := New(5, "u", "g", 8, 100, 200, 50)
	j.Start = 60
	j.Finish = 160
	j.State = Finished
	j.Priority = 3
	c := j.Clone()
	if c.Start != -1 || c.Finish != -1 || c.State != Created || c.Priority != 0 {
		t.Fatalf("clone lifecycle not reset: %+v", c)
	}
	if c.ID != 5 || c.CPUs != 8 || c.Runtime != 100 || c.Estimate != 200 || c.Submit != 50 {
		t.Fatal("clone identity lost")
	}
	all := CloneAll([]*Job{j, j})
	if len(all) != 2 || all[0] == all[1] {
		t.Fatal("CloneAll aliasing")
	}
}

func TestStringRendering(t *testing.T) {
	j := New(7, "u", "g", 16, 100, 200, 50)
	s := j.String()
	for _, frag := range []string{"job 7", "native", "16cpu", "rt=100"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String() = %q missing %q", s, frag)
		}
	}
	var bad State = 99
	if !strings.Contains(bad.String(), "state(99)") {
		t.Fatalf("unknown state string = %q", bad.String())
	}
	if Killed.String() != "killed" {
		t.Fatal("killed string")
	}
}

func TestValidateKilledWindow(t *testing.T) {
	j := New(1, "u", "g", 2, 100, 100, 0)
	j.Start = 10
	j.Finish = 60
	j.State = Killed
	if err := j.Validate(); err != nil {
		t.Fatalf("valid killed job rejected: %v", err)
	}
	j.Finish = 200 // beyond start+runtime
	if j.Validate() == nil {
		t.Fatal("killed job outside execution window accepted")
	}
	j.Finish = -1
	if j.Validate() == nil {
		t.Fatal("killed job without finish accepted")
	}
}

func TestValidateFieldErrors(t *testing.T) {
	for _, mut := range []func(*Job){
		func(j *Job) { j.CPUs = 0 },
		func(j *Job) { j.Runtime = -1 },
		func(j *Job) { j.Estimate = -1 },
		func(j *Job) { j.Submit = -1 },
	} {
		j := New(1, "u", "g", 2, 100, 100, 0)
		mut(j)
		if j.Validate() == nil {
			t.Fatalf("invalid field accepted: %+v", j)
		}
	}
}

// TestJobRecordSize pins the record at 120 bytes, within two cache lines.
// The fair-share, finish and machine slots are int32s packed into the
// padding after Class and State and into one word at the end; growing the
// record costs memory wherever jobs sit materialized — a 64-shard fleet
// keeps ~262k streamed jobs live (64 × a 4096-job buffer), and a 168-byte
// record raised its peak RSS by ~14%.
func TestJobRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(Job{}); got != 120 {
		t.Fatalf("job.Job is %d bytes, want 120", got)
	}
}
