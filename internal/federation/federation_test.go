package federation_test

import (
	"context"
	"testing"

	"interstitial/internal/core"
	"interstitial/internal/engine"
	"interstitial/internal/federation"
	"interstitial/internal/job"
	"interstitial/internal/rng"
	"interstitial/internal/testbed"
	"interstitial/internal/workload"
)

// scaleProfile shrinks a profile for fast tests, the same way the
// experiment harness scales workloads (floor of 50 jobs, runtime tail
// clamped inside the shortened log).
func scaleProfile(p workload.Profile, f float64) workload.Profile {
	p.Days *= f
	p.Jobs = int(float64(p.Jobs) * f)
	if p.Jobs < 50 {
		p.Jobs = 50
	}
	if maxH := p.Days * 24 / 3; f < 1 && p.LongJobMaxHours > maxH {
		p.LongJobMaxHours = maxH
	}
	return p
}

// tinyFleet builds n shards cycling the paper's three machines at a tiny
// scale.
func tinyFleet(n int, f float64) []federation.Machine {
	all := testbed.All()
	ms := make([]federation.Machine, n)
	for i := range ms {
		sys := all[i%len(all)]
		ms[i] = federation.Machine{Profile: scaleProfile(sys.Workload, f), NewPolicy: sys.NewPolicy}
	}
	return ms
}

func runFleet(t *testing.T, n int, route string, runner func(int, func(int)), demand float64) *federation.Fleet {
	t.Helper()
	pol, err := federation.ParsePolicy(route)
	if err != nil {
		t.Fatalf("ParsePolicy(%q): %v", route, err)
	}
	fl, err := federation.New(federation.Config{
		Machines: tinyFleet(n, 0.01),
		Policy:   pol,
		Unit:     federation.UnitSpec{CPUs: 16, Seconds1GHz: 300},
		Demand:   demand,
		Seed:     7,
		Runner:   runner,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := fl.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return fl
}

// reverseRunner executes shards serially in reverse index order — the
// adversarial "any shard execution order" case.
func reverseRunner(n int, fn func(int)) {
	for i := n - 1; i >= 0; i-- {
		fn(i)
	}
}

// TestFederationDeterministic is the acceptance gate: a 64-machine
// federated run produces byte-identical retirement digests at workers
// 1, 4, and 8, under reversed shard execution order, and across two
// independent fleet instances.
func TestFederationDeterministic(t *testing.T) {
	const shards = 64
	route := "work-stealing:batch=2,victim=max"
	ref := runFleet(t, shards, route, nil, 0.3)
	if ref.Stats().Units == 0 || ref.Stats().InterstDone == 0 {
		t.Fatalf("vacuous run: %+v", ref.Stats())
	}
	runners := map[string]func(int, func(int)){
		"workers=4": federation.ParallelRunner(4),
		"workers=8": federation.ParallelRunner(8),
		"reversed":  reverseRunner,
		"repeat":    nil,
	}
	for name, r := range runners {
		fl := runFleet(t, shards, route, r, 0.3)
		if fl.Digest() != ref.Digest() {
			t.Errorf("%s: digest %016x != serial %016x", name, fl.Digest(), ref.Digest())
		}
		if got, want := fl.Stats(), ref.Stats(); got.Units != want.Units ||
			got.InterstDone != want.InterstDone || got.StolenUnits != want.StolenUnits {
			t.Errorf("%s: stats diverged: %+v vs %+v", name, got, want)
		}
	}
}

// TestPoliciesDeterministic repeats the worker-count invariance for every
// routing policy on a smaller fleet.
func TestPoliciesDeterministic(t *testing.T) {
	for _, route := range []string{
		"random", "round-robin", "least-loaded",
		"locality:spread=2", "work-stealing:batch=2,victim=random",
	} {
		t.Run(route, func(t *testing.T) {
			a := runFleet(t, 6, route, nil, 0.3)
			b := runFleet(t, 6, route, federation.ParallelRunner(4), 0.3)
			if a.Digest() != b.Digest() {
				t.Errorf("digest %016x (serial) != %016x (workers=4)", a.Digest(), b.Digest())
			}
			if a.Stats().Units == 0 {
				t.Errorf("no units routed")
			}
		})
	}
}

// TestSingleShardMatchesPlainEngine: a fleet of one, in saturate mode, is
// the plain single-machine simulation — bit for bit. The barrier loop's
// RunUntil stepping executes the identical event sequence as one Run.
func TestSingleShardMatchesPlainEngine(t *testing.T) {
	sys := testbed.BlueMountain()
	p := scaleProfile(sys.Workload, 0.02)
	unit := federation.UnitSpec{CPUs: 32, Seconds1GHz: 120}
	const seed = 5

	fl, err := federation.New(federation.Config{
		Machines: []federation.Machine{{Profile: p, NewPolicy: sys.NewPolicy}},
		Unit:     unit,
		Demand:   0, // saturate: the unmetered single-machine model
		Seed:     seed,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := fl.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}

	// The same simulation, assembled by hand on the plain engine.
	src, err := workload.NewStream(p, rng.DeriveSeed(seed, 0))
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	sm := engine.New(p.Machine, sys.NewPolicy())
	digest := federation.NewDigest()
	sm.SetRetire(func(j *job.Job) { digest.Fold(0, j) })
	ctrl := core.NewController(unit.JobSpec(p.Machine.ClockGHz))
	ctrl.StopAt = p.Duration()
	ctrl.DiscardRecords = true
	if err := ctrl.Attach(sm); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	sm.SubmitStream(src, 0)
	sm.Run()

	if fl.Digest() != uint64(digest) {
		t.Fatalf("single-shard fleet digest %016x != plain engine %016x", fl.Digest(), uint64(digest))
	}
	if fl.Stats().InterstDone == 0 {
		t.Fatalf("saturate run admitted no interstitial jobs")
	}
}

// TestEmptyFleet: a router with nowhere to route is a configuration
// error, not a silent no-op.
func TestEmptyFleet(t *testing.T) {
	if _, err := federation.New(federation.Config{Unit: federation.UnitSpec{CPUs: 1, Seconds1GHz: 1}}); err == nil {
		t.Fatalf("New accepted an empty fleet")
	}
	if _, err := federation.New(federation.Config{
		Machines: tinyFleet(1, 0.01),
		Unit:     federation.UnitSpec{CPUs: 0, Seconds1GHz: 1},
	}); err == nil {
		t.Fatalf("New accepted a zero-width unit")
	}
}

// TestFleetCancellation: a cancelled context aborts the run with its
// error instead of completing or hanging.
func TestFleetCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fl, err := federation.New(federation.Config{
		Machines: tinyFleet(2, 0.01),
		Unit:     federation.UnitSpec{CPUs: 16, Seconds1GHz: 300},
		Demand:   0.3,
		Ctx:      ctx,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := fl.Run(); err == nil {
		t.Fatalf("Run completed under a cancelled context")
	}
}

// TestFleetRunOnce: a fleet is single-use.
func TestFleetRunOnce(t *testing.T) {
	fl := runFleet(t, 2, "round-robin", nil, 0.3)
	if err := fl.Run(); err == nil {
		t.Fatalf("second Run did not error")
	}
}

// TestLocalityMigrationsSurface: the locality policy's home moves appear
// in the fleet stats.
func TestLocalityMigrationsSurface(t *testing.T) {
	fl := runFleet(t, 6, "locality:spread=1", nil, 0.5)
	if fl.Stats().Migrations == 0 {
		t.Fatalf("spread=1 forced a migration on every backlogged pick, but none were counted")
	}
}
