package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"interstitial/internal/job"
	"interstitial/internal/machine"
	"interstitial/internal/sim"
)

// TestMergeUnorderedMatchesSort differential-tests the incremental
// binary-insert merge against a full sort on random priority/submit/ID
// mixes, including duplicate priorities and submit times.
func TestMergeUnorderedMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 200; round++ {
		inc := NewQueue()
		full := NewQueue()
		id := 1
		push := func(n int) {
			for k := 0; k < n; k++ {
				prio := float64(rng.Intn(4)) // few distinct values: exercise tie-breaks
				submit := sim.Time(rng.Intn(5))
				a := job.New(id, "u", "g", 1, 10, 10, submit)
				a.Priority = prio
				b := job.New(id, "u", "g", 1, 10, 10, submit)
				b.Priority = prio
				inc.Push(a)
				full.Push(b)
				id++
			}
		}
		// Interleave arrival batches with ordering steps and removals.
		for batch := 0; batch < 5; batch++ {
			push(rng.Intn(8))
			inc.MergeUnordered()
			full.Sort()
			if inc.Len() > 0 && rng.Intn(2) == 0 {
				i := rng.Intn(inc.Len())
				inc.Remove(i)
				full.Remove(i)
			}
		}
		inc.MergeUnordered()
		full.Sort()
		if inc.Len() != full.Len() {
			t.Fatalf("round %d: len %d != %d", round, inc.Len(), full.Len())
		}
		for i := 0; i < inc.Len(); i++ {
			if inc.At(i).ID != full.At(i).ID {
				t.Fatalf("round %d pos %d: merge %d != sort %d", round, i, inc.At(i).ID, full.At(i).ID)
			}
		}
	}
}

// TestRemoveClearsVacatedSlot checks Remove nils the tail slot so the
// queue's backing array does not pin dispatched jobs.
func TestRemoveClearsVacatedSlot(t *testing.T) {
	q := NewQueue()
	for id := 1; id <= 4; id++ {
		q.Push(job.New(id, "u", "g", 1, 10, 10, 0))
	}
	q.Sort()
	q.Remove(1)
	if got := q.jobs[:4][3]; got != nil {
		t.Fatalf("vacated slot still holds job %d", got.ID)
	}
	want := []int{1, 3, 4}
	for i, id := range want {
		if q.At(i).ID != id {
			t.Fatalf("order[%d] = %d, want %d", i, q.At(i).ID, id)
		}
	}
}

// forceDynamic downgrades any policy to OrderingDynamic, recovering the
// historical reprioritize-everything-every-pass behavior for differential
// testing.
type forceDynamic struct{ Policy }

func (forceDynamic) Ordering() Ordering { return OrderingDynamic }

// TestIncrementalOrderingMatchesDynamic drives two dispatchers — one using
// the policy's declared ordering (static for PBS, epoch for LSF/DPCS), one
// forced to re-sort every pass — through an identical randomized stream of
// submissions, passes, and finishes, and requires identical dispatch
// decisions and queue orders throughout. Interstitial-style jobs fill
// CPUs between passes, started directly on the machine as the controller
// does; their finishes charge exactly 0 (Estimate == Runtime), so under
// the epoch class the passes after them must take the merge path and
// still match the twin. Under the epoch class the run must also see both
// outcomes of an epoch change: a standing order that survived the
// re-prioritization, and one that needed the sort.
func TestIncrementalOrderingMatchesDynamic(t *testing.T) {
	mk := []struct {
		name string
		pol  func() Policy
	}{
		{"PBS", NewPBS},
		{"LSF", NewLSF},
		{"DPCS", func() Policy { return NewDPCS(DPCSGate{}) }},
	}
	for _, tc := range mk {
		t.Run(tc.name, func(t *testing.T) {
			fast := NewDispatcher(tc.pol())
			slow := NewDispatcher(forceDynamic{tc.pol()})
			fm, sm := mkMachine(64), mkMachine(64)
			fq, sq := NewQueue(), NewQueue()
			rng := rand.New(rand.NewSource(9))
			users := []string{"alice", "bob", "carol"}
			groups := []string{"phys", "chem"}
			id := 1
			now := sim.Time(0)
			// finishDue retires every running job whose runtime has elapsed,
			// in deterministic (end, ID) order — the engine invariant that
			// running jobs never overstay start+runtime, which keeps every
			// release in the plan's timeline at or after now. It reports how
			// many of the retired jobs were interstitial.
			finishDue := func(d *Dispatcher, m *machine.Machine, now sim.Time) (fills int) {
				for {
					var pick *job.Job
					for _, j := range m.RunningBorrow() {
						if j.Start+j.Runtime > now {
							continue
						}
						if pick == nil || j.Start+j.Runtime < pick.Start+pick.Runtime ||
							(j.Start+j.Runtime == pick.Start+pick.Runtime && j.ID < pick.ID) {
							pick = j
						}
					}
					if pick == nil {
						return fills
					}
					m.Finish(now, pick)
					d.Policy().OnFinish(now, pick)
					if pick.Class == job.Interstitial {
						fills++
					}
				}
			}
			zeroMerges := 0 // merge-path passes right after a zero charge
			for step := 0; step < 300; step++ {
				now += sim.Time(rng.Intn(600))
				fills := finishDue(fast, fm, now)
				finishDue(slow, sm, now)
				for k := 0; k < rng.Intn(4); k++ {
					u, g := users[rng.Intn(len(users))], groups[rng.Intn(len(groups))]
					cpus := rng.Intn(48) + 1
					rt := sim.Time(rng.Intn(3000) + 1)
					est := rt * sim.Time(rng.Intn(6)+1)
					fq.Push(job.New(id, u, g, cpus, rt, est, now))
					sq.Push(job.New(id, u, g, cpus, rt, est, now))
					id++
				}
				if fills > 0 && fast.orderValid && fast.policy.OrderEpoch() == fast.orderEpoch {
					zeroMerges++
				}
				fres := fast.Schedule(now, fm, fq)
				sres := slow.Schedule(now, sm, sq)
				if len(fres.Started) != len(sres.Started) {
					t.Fatalf("step %d: started %d vs %d", step, len(fres.Started), len(sres.Started))
				}
				for i := range fres.Started {
					if fres.Started[i].ID != sres.Started[i].ID {
						t.Fatalf("step %d: start[%d] %d vs %d", step, i, fres.Started[i].ID, sres.Started[i].ID)
					}
				}
				if fres.HeadReservation != sres.HeadReservation {
					t.Fatalf("step %d: head reservation %d vs %d", step, fres.HeadReservation, sres.HeadReservation)
				}
				if fq.Len() != sq.Len() {
					t.Fatalf("step %d: queue len %d vs %d", step, fq.Len(), sq.Len())
				}
				for i := 0; i < fq.Len(); i++ {
					if fq.At(i).ID != sq.At(i).ID {
						t.Fatalf("step %d: queue[%d] %d vs %d", step, i, fq.At(i).ID, sq.At(i).ID)
					}
				}
				if fm.Free() != sm.Free() {
					t.Fatalf("step %d: free %d vs %d", step, fm.Free(), sm.Free())
				}
				if cpus := rng.Intn(8) + 1; rng.Intn(2) == 0 && fm.CanStart(cpus) {
					rt := sim.Time(rng.Intn(600) + 1)
					fm.Start(now, job.NewInterstitial(id, cpus, rt, now))
					sm.Start(now, job.NewInterstitial(id, cpus, rt, now))
					id++
				}
			}
			if fast.policy.Ordering() == OrderingEpoch {
				if zeroMerges == 0 {
					t.Fatal("no pass after an interstitial finish took the merge path")
				}
				// Both branches of an epoch change must have been
				// exercised against the twin: a re-prioritized order that
				// still stood (arrivals merged) and one that had moved.
				if fast.ordersKept == 0 || fast.ordersSorted == 0 {
					t.Fatalf("epoch changes: %d kept the order, %d re-sorted; want both > 0", fast.ordersKept, fast.ordersSorted)
				}
			}
		})
	}
}

// benchQueue fills m to capacity with running jobs and queues depth
// waiting jobs too wide to start, so every Schedule pass in the benchmark
// loop does full planning work but leaves all state unchanged.
func benchQueue(m *machine.Machine, depth int) *Queue {
	rng := rand.New(rand.NewSource(1))
	cpus := m.Config().CPUs
	id := 1
	for cpus > 0 {
		w := rng.Intn(64) + 1
		if w > cpus {
			w = cpus
		}
		rt := sim.Time(rng.Intn(40000) + 1000)
		m.Start(0, job.New(id, "u", "g", w, rt, rt*2, 0))
		cpus -= w
		id++
	}
	q := NewQueue()
	users := []string{"alice", "bob", "carol", "dave"}
	groups := []string{"phys", "chem", "bio"}
	for k := 0; k < depth; k++ {
		rt := sim.Time(rng.Intn(40000) + 1)
		q.Push(job.New(id, users[rng.Intn(len(users))], groups[rng.Intn(len(groups))],
			rng.Intn(256)+1, rt, rt*sim.Time(rng.Intn(6)+1), sim.Time(rng.Intn(10000))))
		id++
	}
	return q
}

// BenchmarkSchedulePass measures one steady-state scheduling pass at
// paper-scale queue depth on a full Blue Mountain-sized machine: profile
// rebuild, queue ordering, and the backfill walk, with no dispatches (the
// machine stays full, so each iteration sees identical state). EASY is the
// LSF/DPCS flavor; Conservative reserves every queued job and is the
// dispatcher's worst case.
func BenchmarkSchedulePass(b *testing.B) {
	bench := func(b *testing.B, pol Policy) {
		m := mkMachineN("bench", 4662)
		q := benchQueue(m, 1024)
		d := NewDispatcher(pol)
		d.Schedule(0, m, q) // warm up: initial sort + arena growth
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d.Schedule(0, m, q)
		}
	}
	b.Run("easy", func(b *testing.B) { bench(b, NewLSF()) })
	b.Run("conservative", func(b *testing.B) { bench(b, NewPBS()) })
}

func mkMachineN(name string, cpus int) *machine.Machine {
	return machine.New(machine.Config{Name: name, CPUs: cpus, ClockGHz: 1})
}

// BenchmarkFairShareReorder measures one epoch-change reorder: a nonzero
// charge lands, and the dispatcher re-prioritizes a 24-job queue (the
// mean depth a stream-250k pass sees) spread over 8 groups, then keeps or
// re-sorts the standing order. Charges rotate through the groups.
func BenchmarkFairShareReorder(b *testing.B) {
	pol := NewLSF().(*fairSharePolicy)
	d := NewDispatcher(pol)
	q := NewQueue()
	rng := rand.New(rand.NewSource(1))
	groups := make([]*job.Job, 8)
	for g := range groups {
		groups[g] = job.New(-1-g, "u", fmt.Sprintf("g%d", g), 1, 1, 1, 0)
		pol.tree.Charge(0, groups[g], float64(rng.Intn(1e6)+1))
	}
	for id := 1; id <= 24; id++ {
		q.Push(job.New(id, fmt.Sprintf("u%d", id%5), groups[id%8].Group, 1, 10, 10, sim.Time(rng.Intn(1000))))
	}
	d.order(0, q)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol.tree.Charge(0, groups[i%8], 5000)
		d.order(0, q)
	}
}
