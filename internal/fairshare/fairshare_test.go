package fairshare

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"interstitial/internal/job"
	"interstitial/internal/sim"
)

func mkJob(user, group string) *job.Job {
	return job.New(1, user, group, 1, 10, 10, 0)
}

func TestFlatAlwaysZero(t *testing.T) {
	tr := New(Flat, 0)
	tr.Charge(0, mkJob("a", "g1"), 1e6)
	if got := tr.Priority(100, mkJob("a", "g1")); got != 0 {
		t.Fatalf("flat priority = %v, want 0", got)
	}
	if got := tr.Priority(100, mkJob("b", "g2")); got != 0 {
		t.Fatalf("flat priority = %v, want 0", got)
	}
}

func TestGroupLevelOrdersByGroupUsage(t *testing.T) {
	tr := New(GroupLevel, DefaultHalfLife)
	tr.Charge(0, mkJob("a", "heavy"), 1000)
	tr.Charge(0, mkJob("b", "light"), 10)
	ph := tr.Priority(0, mkJob("c", "heavy"))
	pl := tr.Priority(0, mkJob("d", "light"))
	if !(pl > ph) {
		t.Fatalf("light group %v should outrank heavy group %v", pl, ph)
	}
	// User identity is irrelevant at group level.
	if tr.Priority(0, mkJob("x", "heavy")) != ph {
		t.Fatal("group-level priority depends on user")
	}
}

func TestUserAndGroupBlends(t *testing.T) {
	tr := New(UserAndGroup, DefaultHalfLife)
	tr.Charge(0, mkJob("heavyuser", "g"), 900)
	tr.Charge(0, mkJob("lightuser", "g"), 100)
	ph := tr.Priority(0, mkJob("heavyuser", "g"))
	pl := tr.Priority(0, mkJob("lightuser", "g"))
	if !(pl > ph) {
		t.Fatalf("light user %v should outrank heavy user %v in the same group", pl, ph)
	}
}

func TestDecayHalvesUsage(t *testing.T) {
	tr := New(GroupLevel, sim.Time(100))
	tr.Charge(0, mkJob("a", "g"), 1000)
	if got := tr.GroupUsage(100, "g"); math.Abs(got-500) > 1e-6 {
		t.Fatalf("after one half-life usage = %v, want 500", got)
	}
	if got := tr.GroupUsage(300, "g"); math.Abs(got-125) > 1e-6 {
		t.Fatalf("after three half-lives usage = %v, want 125", got)
	}
}

func TestDecayIsMonotonicInTime(t *testing.T) {
	tr := New(GroupLevel, sim.Time(1000))
	tr.Charge(0, mkJob("a", "g"), 100)
	u1 := tr.GroupUsage(10, "g")
	u2 := tr.GroupUsage(500, "g")
	if !(u2 < u1) {
		t.Fatalf("usage did not decay: %v then %v", u1, u2)
	}
	// Reads are pure functions of the query time: re-reading an earlier
	// instant reproduces the earlier value.
	if got := tr.GroupUsage(10, "g"); got != u1 {
		t.Fatalf("re-read at t=10 changed: %v vs %v", got, u1)
	}
}

func TestLazyDecayMatchesDirectFormula(t *testing.T) {
	tr := New(UserAndGroup, sim.Time(3600))
	tr.Charge(0, mkJob("a", "g"), 1000)
	tr.Charge(1800, mkJob("a", "g"), 500) // half a half-life later
	// At t=3600: first charge decayed 2^-1, second 2^-0.5.
	want := 1000*0.5 + 500*math.Exp2(-0.5)
	if got := tr.UserUsage(3600, "a"); math.Abs(got-want) > 1e-9 {
		t.Fatalf("usage = %v, want %v", got, want)
	}
}

func TestRebasePreservesValues(t *testing.T) {
	tr := New(GroupLevel, sim.Time(100))
	tr.Charge(0, mkJob("a", "g"), 1e6)
	before := tr.GroupUsage(5000, "g")
	// A charge 51 half-lives later forces a rebase.
	tr.Charge(5100, mkJob("b", "h"), 7)
	after := tr.GroupUsage(5000, "g")
	// The rebase moved ref past 5000, so the re-read reports the value at
	// the later reference; both must be (vanishingly) small and the new
	// account exact.
	if before > 1e-6 || after > 1e-6 {
		t.Fatalf("ancient usage should have decayed away: %v, %v", before, after)
	}
	if got := tr.GroupUsage(5100, "h"); math.Abs(got-7) > 1e-9 {
		t.Fatalf("fresh charge after rebase = %v, want 7", got)
	}
}

// TestEpochRule pins when the charge epoch advances. A zero charge — the
// finish of a job whose runtime matched its estimate, as every
// interstitial job's does — leaves the epoch, every priority and the
// stored values standing; a never-seen account still gains its 0 entry.
// A nonzero charge advances the epoch, and so does a zero charge that
// rebases, because rescaling the stored values may round the ratios.
func TestEpochRule(t *testing.T) {
	tr := New(UserAndGroup, sim.Time(100))
	tr.Charge(0, mkJob("a", "g"), 300)
	tr.Charge(10, mkJob("b", "h"), 100)
	queued := []*job.Job{mkJob("a", "g"), mkJob("b", "h"), mkJob("c", "g"), mkJob("interstitial", "interstitial")}
	priorities := func() []float64 {
		var out []float64
		for _, j := range queued {
			out = append(out, tr.Priority(0, j))
		}
		return out
	}
	epoch, prios, st := tr.Epoch(), priorities(), tr.State()

	fill := job.NewInterstitial(7, 4, 600, 0)
	tr.Charge(20, fill, float64(fill.CPUs)*(float64(fill.Runtime)-float64(fill.Estimate)))
	tr.Charge(30, mkJob("a", "g"), 0)
	if tr.Epoch() != epoch {
		t.Fatalf("zero charges moved the epoch %d -> %d", epoch, tr.Epoch())
	}
	if got := priorities(); !reflect.DeepEqual(got, prios) {
		t.Fatalf("zero charges moved priorities %v -> %v", prios, got)
	}
	after := tr.State()
	if v, ok := after.Users["interstitial"]; !ok || v != 0 {
		t.Fatalf("never-seen user entry = %v, %v; want 0, true", v, ok)
	}
	if v, ok := after.Groups["interstitial"]; !ok || v != 0 {
		t.Fatalf("never-seen group entry = %v, %v; want 0, true", v, ok)
	}
	delete(after.Users, "interstitial")
	delete(after.Groups, "interstitial")
	if !reflect.DeepEqual(after, st) {
		t.Fatalf("zero charges moved the state %+v -> %+v", st, after)
	}

	tr.Charge(40, mkJob("b", "h"), 5)
	if tr.Epoch() != epoch+1 {
		t.Fatalf("nonzero charge: epoch %d, want %d", tr.Epoch(), epoch+1)
	}
	tr.Charge(40+51*100, mkJob("a", "g"), 0)
	if tr.Epoch() != epoch+2 {
		t.Fatalf("rebasing zero charge: epoch %d, want %d", tr.Epoch(), epoch+2)
	}
	if tr.State().Ref != 40+51*100 {
		t.Fatalf("charge 51 half-lives on did not rebase: ref %d", tr.State().Ref)
	}
}

func TestNegativeChargeClamped(t *testing.T) {
	tr := New(UserAndGroup, DefaultHalfLife)
	tr.Charge(0, mkJob("a", "g"), 100)
	tr.Charge(0, mkJob("a", "g"), -500)
	if got := tr.UserUsage(0, "a"); got != 0 {
		t.Fatalf("clamped usage = %v, want 0", got)
	}
}

func TestZeroTotalPriorityZero(t *testing.T) {
	tr := New(UserAndGroup, DefaultHalfLife)
	if got := tr.Priority(0, mkJob("new", "new")); got != 0 {
		t.Fatalf("empty tree priority = %v, want 0", got)
	}
}

func TestDefaultHalfLifeApplied(t *testing.T) {
	tr := New(GroupLevel, 0)
	if tr.halfLife != DefaultHalfLife {
		t.Fatalf("halfLife = %d, want default", tr.halfLife)
	}
}

func TestLevelString(t *testing.T) {
	if Flat.String() != "flat" || GroupLevel.String() != "group" || UserAndGroup.String() != "user+group" {
		t.Fatal("level strings wrong")
	}
}

// Property: priorities are always in [-1, 0] and an account that was
// charged strictly more than another never outranks it at the same level.
func TestQuickPriorityBoundsAndOrder(t *testing.T) {
	f := func(a, b uint16) bool {
		ca, cb := float64(a)+1, float64(b)+1
		tr := New(GroupLevel, DefaultHalfLife)
		tr.Charge(0, mkJob("ua", "ga"), ca)
		tr.Charge(0, mkJob("ub", "gb"), cb)
		pa := tr.Priority(0, mkJob("x", "ga"))
		pb := tr.Priority(0, mkJob("y", "gb"))
		if pa < -1 || pa > 0 || pb < -1 || pb > 0 {
			return false
		}
		if ca > cb && pa > pb {
			return false
		}
		if cb > ca && pb > pa {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
