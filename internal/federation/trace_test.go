package federation

import (
	"testing"

	"interstitial/internal/testbed"
	"interstitial/internal/tracing"
)

// traceFleet builds a small mixed fleet with a fleet tracer installed.
func traceFleet(t *testing.T, route string, demand float64) (*Fleet, *tracing.Collector) {
	t.Helper()
	all := testbed.All()
	machines := make([]Machine, 3)
	total := 0
	for i := range machines {
		sys := all[i%len(all)]
		p := sys.Workload
		p.Days *= 0.01
		p.Jobs = 50
		if maxH := p.Days * 24 / 3; p.LongJobMaxHours > maxH {
			p.LongJobMaxHours = maxH
		}
		machines[i] = Machine{Profile: p, NewPolicy: sys.NewPolicy}
		total += p.Machine.CPUs
	}
	col := tracing.NewCollector(0)
	pol, err := ParsePolicy(route)
	if err != nil {
		t.Fatalf("ParsePolicy: %v", err)
	}
	fl, err := New(Config{
		Machines: machines,
		Policy:   pol,
		Unit:     UnitSpec{CPUs: 16, Seconds1GHz: 300},
		Demand:   demand,
		Seed:     13,
		Tracer:   col.Tracer("fleet", "fleet", total),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := fl.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return fl, col
}

// TestFleetTracing: every routing decision (and locality migration)
// lands in the fleet tracer as a typed event, and the fleet surfaces its
// aggregate accessors coherently.
func TestFleetTracing(t *testing.T) {
	fl, col := traceFleet(t, "locality:spread=1", 0.5)

	var routes, migrated int
	for _, run := range col.Runs() {
		if run.Run() != "fleet" {
			continue
		}
		for _, ev := range run.Events() {
			if ev.Kind == tracing.KindRoute {
				routes++
				if ev.Reason == tracing.ReasonMigrated {
					migrated++
				}
			}
		}
	}
	st := fl.Stats()
	if int64(routes) != st.Units {
		t.Errorf("traced %d route events for %d routed units", routes, st.Units)
	}
	if st.Migrations > 0 && migrated == 0 {
		t.Errorf("%d migrations counted but none traced", st.Migrations)
	}

	if fl.NumShards() != 3 {
		t.Errorf("NumShards = %d, want 3", fl.NumShards())
	}
	if fl.Sim(0) == nil || fl.Sim(0).Now() == 0 {
		t.Errorf("shard 0 simulator never advanced")
	}
	overall, native := fl.Utilization()
	if !(overall > 0 && overall <= 1) || !(native > 0 && native < overall) {
		t.Errorf("implausible utilization overall %.3f native %.3f", overall, native)
	}
	if lat, wait := fl.UnitLatency(), fl.NativeWait(); lat.N() == 0 || wait.N() == 0 {
		t.Errorf("empty latency/wait summaries: %d units, %d natives", lat.N(), wait.N())
	}
}

// TestFleetStealTracing: a mixed-size fleet under round-robin granting
// backs the small shard up, so work stealing both moves units and traces
// the moves.
func TestFleetStealTracing(t *testing.T) {
	fl, col := traceFleet(t, "work-stealing:batch=2,victim=max", 0.5)
	st := fl.Stats()
	var steals int
	for _, run := range col.Runs() {
		if run.Run() != "fleet" {
			continue
		}
		for _, ev := range run.Events() {
			if ev.Kind == tracing.KindSteal {
				steals++
			}
		}
	}
	if st.Steals == 0 {
		t.Fatalf("no steals on a mixed-size fleet at demand 0.5; stealing is dead")
	}
	if int64(steals) != st.Steals {
		t.Errorf("traced %d steal events for %d steal operations", steals, st.Steals)
	}
	var in, out int64
	for _, ss := range st.Shards {
		in += ss.StolenIn
		out += ss.StolenOut
	}
	if in != st.StolenUnits || out != st.StolenUnits {
		t.Errorf("per-shard stolen units in=%d out=%d, want both %d", in, out, st.StolenUnits)
	}
	t.Logf("steals=%d stolen units=%d", st.Steals, st.StolenUnits)
}
