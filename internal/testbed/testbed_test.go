package testbed

import (
	"context"
	"math"
	"reflect"
	"testing"

	"interstitial/internal/job"
	"interstitial/internal/stats"
)

func TestSystemsConfigured(t *testing.T) {
	all := All()
	if len(all) != 3 {
		t.Fatalf("systems = %d", len(all))
	}
	wantPolicies := map[string]string{"Ross": "PBS", "Blue Mountain": "LSF", "Blue Pacific": "DPCS"}
	for _, s := range all {
		if got := s.NewPolicy().Name(); got != wantPolicies[s.Name] {
			t.Errorf("%s policy = %s, want %s", s.Name, got, wantPolicies[s.Name])
		}
	}
}

func TestSeconds1GHz(t *testing.T) {
	// 120s@1GHz: Ross 204s, BM 458s, BP 325s.
	want := map[string]int64{"Ross": 204, "Blue Mountain": 458, "Blue Pacific": 325}
	for _, s := range All() {
		got := int64(s.Seconds1GHz(120))
		if d := got - want[s.Name]; d < -1 || d > 1 {
			t.Errorf("%s 120s@1GHz = %ds, want %d", s.Name, got, want[s.Name])
		}
	}
}

func TestRunNativeFinishesEverything(t *testing.T) {
	s := Ross()
	// Shrink for test speed: quarter-length log.
	s.Workload.Days /= 4
	s.Workload.Jobs /= 4
	jobs := jobsFor(t, s)
	sm, util, err := s.RunNative(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if util <= 0.3 || util >= 1 {
		t.Fatalf("achieved util = %v", util)
	}
	for _, j := range jobs {
		if j.State != job.Finished {
			t.Fatalf("job %d not finished", j.ID)
		}
	}
	if err := sm.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func jobsFor(t *testing.T, s System) []*job.Job {
	t.Helper()
	return s.CalibratedLog(1, 0.05)
}

func TestCalibratedLogHitsTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration loop is seconds-scale")
	}
	for _, s := range All() {
		jobs := s.CalibratedLog(7, 0.015)
		_, achieved, err := s.RunNative(context.Background(), job.CloneAll(jobs), nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(achieved-s.Workload.TargetUtil) > 0.02 {
			t.Errorf("%s calibrated to %.3f, want %.3f +-0.02", s.Name, achieved, s.Workload.TargetUtil)
		}
	}
}

func TestCalibratedLogDeterministic(t *testing.T) {
	s := BlueMountain()
	s.Workload.Days /= 8
	s.Workload.Jobs /= 8
	a := s.CalibratedLog(3, 0.05)
	b := s.CalibratedLog(3, 0.05)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i].Runtime != b[i].Runtime || a[i].Submit != b[i].Submit {
			t.Fatalf("job %d differs across identical calibrations", i)
		}
	}
}

func TestUtilizationVarianceIsLarge(t *testing.T) {
	// Section 1 of the paper: "the utilization is quite variable" — the
	// premise that makes interstices exist at all. Verify the hourly
	// utilization series has real spread on Blue Mountain.
	s := BlueMountain()
	s.Workload.Days /= 4
	s.Workload.Jobs /= 4
	jobs := s.CalibratedLog(5, 0.05)
	if _, _, err := s.RunNative(context.Background(), jobs, nil); err != nil {
		t.Fatal(err)
	}
	series := stats.HourlySeries(jobs, s.Workload.Machine.CPUs, s.Workload.Duration(), 3600)
	sum := stats.Summarize(series)
	if sum.Std < 0.08 {
		t.Fatalf("hourly utilization std = %.3f; too flat to exhibit interstices", sum.Std)
	}
	if sum.Max < 0.95 {
		t.Fatalf("utilization never saturates (max %.3f); workload too thin", sum.Max)
	}
}

// TestScaled pins the harness's one scaling rule: shrinking keeps at
// least 50 jobs and clamps the long-job tail to a third of the shortened
// log, 1 is the identity, and growing scales days and jobs unclamped.
func TestScaled(t *testing.T) {
	for _, s := range All() {
		p := s.Workload
		if got := s.Scaled(1); !reflect.DeepEqual(got.Workload, p) || got.Name != s.Name {
			t.Errorf("%s: Scaled(1) changed the system: %+v", s.Name, got.Workload)
		}

		small := s.Scaled(0.02).Workload
		wantJobs := int(float64(p.Jobs) * 0.02)
		if wantJobs < 50 {
			wantJobs = 50
		}
		wantTail := math.Min(p.LongJobMaxHours, p.Days*0.02*24/3)
		if small.Days != p.Days*0.02 || small.Jobs != wantJobs || small.LongJobMaxHours != wantTail {
			t.Errorf("%s at 0.02: days %v jobs %d tail %vh, want %v / %d / %vh",
				s.Name, small.Days, small.Jobs, small.LongJobMaxHours, p.Days*0.02, wantJobs, wantTail)
		}

		big := s.Scaled(4).Workload
		if big.Days != p.Days*4 || big.Jobs != p.Jobs*4 || big.LongJobMaxHours != p.LongJobMaxHours {
			t.Errorf("%s at 4: days %v jobs %d tail %vh, want %v / %d / %vh unclamped",
				s.Name, big.Days, big.Jobs, big.LongJobMaxHours, p.Days*4, p.Jobs*4, p.LongJobMaxHours)
		}
	}

	// Ross's 21-day tail is clamped at 0.02 (a 0.8-day log), and a log of
	// 1000 jobs hits the 50-job floor there.
	r := Ross()
	r.Workload.Jobs = 1000
	small := r.Scaled(0.02).Workload
	if small.Jobs != 50 {
		t.Errorf("1000 jobs at 0.02 = %d, want the floor of 50", small.Jobs)
	}
	if want := r.Workload.Days * 0.02 * 24 / 3; small.LongJobMaxHours != want || want >= r.Workload.LongJobMaxHours {
		t.Errorf("Ross tail at 0.02 = %vh, want the clamp %vh", small.LongJobMaxHours, want)
	}
}
