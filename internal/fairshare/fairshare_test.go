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

// refTree is the name-keyed tree the account-numbered Tree replaced,
// kept verbatim as the differential reference: two string-keyed maps,
// every charge a map write, every priority two map reads.
type refTree struct {
	level    Level
	halfLife sim.Time
	ref      sim.Time
	users    map[string]float64
	groups   map[string]float64
	total    float64
	epoch    uint64
}

func newRef(level Level, halfLife sim.Time) *refTree {
	if halfLife <= 0 {
		halfLife = DefaultHalfLife
	}
	return &refTree{level: level, halfLife: halfLife, users: map[string]float64{}, groups: map[string]float64{}}
}

func (t *refTree) factorAt(now sim.Time) float64 {
	if now <= t.ref {
		return 1
	}
	return math.Exp2(-float64(now-t.ref) / float64(t.halfLife))
}

func (t *refTree) Charge(now sim.Time, j *job.Job, cpuSeconds float64) {
	rebased := now > t.ref && float64(now-t.ref) > 50*float64(t.halfLife)
	if rebased {
		f := t.factorAt(now)
		for k, v := range t.users {
			t.users[k] = v * f
		}
		for k, v := range t.groups {
			t.groups[k] = v * f
		}
		t.total *= f
		t.ref = now
	}
	delta := cpuSeconds / t.factorAt(now)
	t.users[j.User] = clampNonNeg(t.users[j.User] + delta)
	t.groups[j.Group] = clampNonNeg(t.groups[j.Group] + delta)
	t.total = clampNonNeg(t.total + delta)
	if delta != 0 || rebased {
		t.epoch++
	}
}

func (t *refTree) State() State {
	st := State{Ref: t.ref, Users: map[string]float64{}, Groups: map[string]float64{}, Total: t.total, Epoch: t.epoch}
	for k, v := range t.users {
		st.Users[k] = v
	}
	for k, v := range t.groups {
		st.Groups[k] = v
	}
	return st
}

func (t *refTree) SetState(st State) {
	t.ref, t.total, t.epoch = st.Ref, st.Total, st.Epoch
	t.users, t.groups = map[string]float64{}, map[string]float64{}
	for k, v := range st.Users {
		t.users[k] = v
	}
	for k, v := range st.Groups {
		t.groups[k] = v
	}
}

func (t *refTree) Priority(j *job.Job) float64 {
	if t.level == Flat || t.total <= 0 {
		return 0
	}
	g := t.groups[j.Group] / t.total
	if t.level == GroupLevel {
		return -g
	}
	u := t.users[j.User] / t.total
	return -(u + g) / 2
}

// FuzzFairShareTree drives the account-numbered Tree and refTree through
// one random sequence of charges, reads and snapshot→restores, at all
// three levels side by side, and after every operation requires
// bit-identical priorities for every account pair, the same epoch and
// decayed usages, and a DeepEqual State — zero-usage entries included,
// since an account appears once charged, even by zero.
//
// Each operation is three bytes. The first picks the kind (op%6: zero,
// positive or negative charge; a gap of over 50 half-lives followed by a
// zero charge, which rebases; a restore of each tree's State into a fresh
// tree; a pass of priorities) and how far the clock moves first
// (op/6%8 × 10 s). The second picks the user (a%4) and group (a/4%3), and
// how the job reaches the tree (a/12%4): the tree's own cached job, a
// fresh job, a job carrying slots from another tree, or a job whose slots
// are valid numbers naming other accounts. The third scales the charge.
func FuzzFairShareTree(f *testing.F) {
	f.Add([]byte{1, 0, 9, 1, 5, 3, 0, 12, 0, 5, 0, 0})            // a charge, a second account, a zero charge
	f.Add([]byte{1, 1, 9, 2, 1, 200, 5, 0, 0, 3, 0, 0})           // clamped negative, then a rebase
	f.Add([]byte{1, 13, 9, 1, 26, 4, 4, 0, 0, 0, 39, 0})          // foreign slots, restore, wrong slots
	f.Add([]byte{0, 47, 0, 1, 2, 7, 4, 1, 0, 2, 11, 90, 5, 3, 0}) // zero charge first, then mixed
	users := []string{"alice", "bob", "carol", "interstitial"}
	groups := []string{"phys", "chem", "interstitial"}
	const halfLife = sim.Time(100)
	f.Fuzz(func(t *testing.T, ops []byte) {
		levels := []Level{Flat, GroupLevel, UserAndGroup}
		trees := make([]*Tree, len(levels))
		refs := make([]*refTree, len(levels))
		// own[l][u][g] is tree l's long-lived job for the pair: its slots
		// are whatever tree l last cached on it.
		own := make([][4][3]*job.Job, len(levels))
		for l, lv := range levels {
			trees[l], refs[l] = New(lv, halfLife), newRef(lv, halfLife)
			for u := range users {
				for g := range groups {
					own[l][u][g] = job.New(1, users[u], groups[g], 1, 10, 10, 0)
				}
			}
		}
		// other numbers the accounts in reverse, so its slots name other
		// accounts in the trees under test.
		other := New(UserAndGroup, halfLife)
		for u := len(users) - 1; u >= 0; u-- {
			other.Charge(0, job.New(1, users[u], groups[u%len(groups)], 1, 10, 10, 0), 0)
		}
		now := sim.Time(0)
		check := func(k int) {
			t.Helper()
			for l, tr := range trees {
				ref := refs[l]
				if tr.Epoch() != ref.epoch {
					t.Fatalf("op %d %v: epoch %d, ref %d", k, levels[l], tr.Epoch(), ref.epoch)
				}
				for u := range users {
					for g := range groups {
						j := own[l][u][g]
						got, want := tr.Priority(now, j), ref.Priority(j)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("op %d %v: priority(%s, %s) %v, ref %v", k, levels[l], users[u], groups[g], got, want)
						}
					}
				}
				for _, u := range append(users, "nobody") {
					if got, want := tr.UserUsage(now, u), ref.users[u]*ref.factorAt(now); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("op %d %v: user %s usage %v, ref %v", k, levels[l], u, got, want)
					}
				}
				for _, g := range append(groups, "nobody") {
					if got, want := tr.GroupUsage(now, g), ref.groups[g]*ref.factorAt(now); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("op %d %v: group %s usage %v, ref %v", k, levels[l], g, got, want)
					}
				}
				if got, want := tr.State(), ref.State(); !reflect.DeepEqual(got, want) {
					t.Fatalf("op %d %v: state %+v, ref %+v", k, levels[l], got, want)
				}
			}
		}
		for k := 0; k+3 <= len(ops) && k < 3*300; k += 3 {
			op, a, b := ops[k], ops[k+1], ops[k+2]
			now += sim.Time(op/6%8) * 10
			u, g := int(a)%len(users), int(a)/len(users)%len(groups)
			for l, tr := range trees {
				j := own[l][u][g]
				switch a / 12 % 4 {
				case 1:
					j = job.New(1, users[u], groups[g], 1, 10, 10, 0)
				case 2:
					j = job.New(1, users[u], groups[g], 1, 10, 10, 0)
					other.Priority(now, j)
					other.Charge(now, j, 0)
				case 3:
					// Valid numbers that name some other account, when
					// the tree has one.
					us, gs := int32(0), int32(0)
					for i, name := range tr.users.names {
						if name != j.User {
							us = int32(i)
						}
					}
					for i, name := range tr.groups.names {
						if name != j.Group {
							gs = int32(i)
						}
					}
					j.SetFairShareSlots(us, gs)
				}
				switch op % 6 {
				case 0:
					tr.Charge(now, j, 0)
					refs[l].Charge(now, j, 0)
				case 1:
					tr.Charge(now, j, float64(b)*37.5)
					refs[l].Charge(now, j, float64(b)*37.5)
				case 2:
					tr.Charge(now, j, -float64(b)*11.25)
					refs[l].Charge(now, j, -float64(b)*11.25)
				case 3:
					if l == 0 {
						now += 51*halfLife + sim.Time(b)
					}
					tr.Charge(now, j, 0)
					refs[l].Charge(now, j, 0)
				case 4:
					fresh, freshRef := New(levels[l], halfLife), newRef(levels[l], halfLife)
					fresh.SetState(tr.State())
					freshRef.SetState(refs[l].State())
					trees[l], refs[l] = fresh, freshRef
				case 5:
					if got, want := tr.Priority(now, j), refs[l].Priority(j); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("op %d %v: priority %v, ref %v", k/3, levels[l], got, want)
					}
				}
			}
			check(k / 3)
		}
	})
}
