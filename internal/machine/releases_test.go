package machine_test

import (
	"testing"

	"interstitial/internal/job"
	"interstitial/internal/machine"
	"interstitial/internal/profile"
	"interstitial/internal/sim"
)

// FuzzMachineReleases runs random sequences of Start, Finish, Release (a
// kill) and snapshot→RestoreState on one machine. After every operation
// the release timeline must pass CheckInvariants — sorted, no empty
// instant, CPUs conserved, equal to the running set's estimated ends —
// and a plan rebuilt from it must equal FromRunning's sort of the running
// set.
//
// Each operation is three bytes. The first picks the kind (op%5: start,
// finish, kill, restore, tick) and how far the clock moves first
// (op/5%4 × 10 s). For a start, the second gives the CPUs (1-16, an
// interstitial job when bit 4 is set) and the third the runtime (low three
// bits) and estimate (next three), each in tens of seconds, so ends
// collide often. For a finish or kill the second byte picks the running
// job; for a restore it picks a fresh machine (even) or the same one.
func FuzzMachineReleases(f *testing.F) {
	f.Add([]byte{0, 3, 0, 0, 7, 0, 1, 0, 0, 9, 0, 0, 1, 0, 0})            // zero-runtime jobs
	f.Add([]byte{0, 3, 9, 0, 5, 9, 0, 1, 9, 6, 1, 0, 1, 0, 0})            // several ends at one instant
	f.Add([]byte{0, 3, 9, 9, 0, 0, 1, 0, 0})                              // an end at now
	f.Add([]byte{0, 3, 9, 0, 5, 18, 0, 2, 9, 2, 1, 0})                    // kill the only job at an instant
	f.Add([]byte{0, 3, 9, 0, 21, 18, 3, 0, 0, 6, 0, 0, 3, 1, 0, 2, 0, 0}) // restore mid-sequence
	f.Fuzz(func(t *testing.T, ops []byte) {
		cfg := machine.Config{Name: "fuzz", CPUs: 64, ClockGHz: 1}
		m := machine.New(cfg)
		plan := &profile.Profile{}
		now, id := sim.Time(0), 0
		for k := 0; k+3 <= len(ops) && k < 3*400; k += 3 {
			op, a, b := ops[k], ops[k+1], ops[k+2]
			now += sim.Time(op/5%4) * 10
			switch op % 5 {
			case 0:
				cpus := int(a%16) + 1
				if !m.CanStart(cpus) {
					continue
				}
				id++
				rt, est := sim.Time(b&7)*10, sim.Time(b>>3&7)*10
				j := job.New(id, "u", "g", cpus, rt, est, now)
				if a&16 != 0 {
					j = job.NewInterstitial(id, cpus, rt, now)
				}
				m.Start(now, j)
			case 1, 2:
				running := m.RunningBorrow()
				if len(running) == 0 {
					continue
				}
				j := running[int(a)%len(running)]
				if op%5 == 1 {
					m.Finish(now, j)
				} else {
					m.Release(now, j)
				}
			case 3:
				into := m
				if a%2 == 0 {
					into = machine.New(cfg)
				}
				if err := into.RestoreState(m.State(), m.RunningJobs()); err != nil {
					t.Fatalf("op %d: restore: %v", k/3, err)
				}
				m = into
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("op %d at %d: %v", k/3, now, err)
			}
			plan.RebuildFromReleases(now, m.Free(), m.ReleasesBorrow())
			if want := profile.FromRunning(now, cfg.CPUs, m.RunningJobs()); plan.String() != want.String() {
				t.Fatalf("op %d at %d: plan from releases %v != from running set %v", k/3, now, plan, want)
			}
		}
	})
}
