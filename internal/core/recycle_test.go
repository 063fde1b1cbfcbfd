package core

import (
	"reflect"
	"testing"

	"interstitial/internal/job"
)

// mustPanic runs fn and reports whether it panicked.
func mustPanic(fn func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	fn()
	return false
}

// TestRecycleRefusesLiveOrForeignRecords: Recycle takes back only a
// finished interstitial record, and only on a controller that discards
// its records. Anything else panics before the record or the spare list
// changes.
func TestRecycleRefusesLiveOrForeignRecords(t *testing.T) {
	withState := func(j *job.Job, st job.State) *job.Job {
		j.State = st
		return j
	}
	maintenance := job.New(3, "_maint", "_maint", 4, 10, 10, 0)
	maintenance.Class = job.Maintenance
	cases := []struct {
		name    string
		j       *job.Job
		discard bool
	}{
		{"running", withState(job.NewInterstitial(1, 4, 10, 0), job.Running), true},
		{"killed", withState(job.NewInterstitial(1, 4, 10, 0), job.Killed), true},
		{"native", withState(job.New(2, "u", "g", 4, 10, 10, 0), job.Finished), true},
		{"maintenance", withState(maintenance, job.Finished), true},
		{"controller keeps Jobs", withState(job.NewInterstitial(1, 4, 10, 0), job.Finished), false},
	}
	for _, tc := range cases {
		c := NewController(JobSpec{CPUs: 4, Runtime: 10})
		c.DiscardRecords = tc.discard
		before := *tc.j
		if !mustPanic(func() { c.Recycle(tc.j) }) {
			t.Errorf("%s: Recycle did not panic", tc.name)
		}
		if !reflect.DeepEqual(*tc.j, before) || len(c.spare) != 0 {
			t.Errorf("%s: the refused Recycle changed the record or kept it (%d spare)", tc.name, len(c.spare))
		}
	}

	c := NewController(JobSpec{CPUs: 4, Runtime: 10})
	c.DiscardRecords = true
	j := withState(job.NewInterstitial(1, 4, 10, 0), job.Finished)
	c.Recycle(j)
	if !mustPanic(func() { c.Recycle(j) }) || len(c.spare) != 1 {
		t.Fatalf("recycling a record twice: want a panic and one spare, have %d", len(c.spare))
	}
}

// TestReusedRecordEqualsFresh runs a continual controller under fair
// share, handing every retired record back, then builds a record from a
// spare one: it must equal a freshly allocated record with the same ID
// field for field, the slots the fair-share tree, the machine and the
// finish registry cached on the old job included.
func TestReusedRecordEqualsFresh(t *testing.T) {
	s := newSim(100)
	c := NewController(JobSpec{CPUs: 10, Runtime: 50})
	c.StopAt = 400
	c.DiscardRecords = true
	retired := 0
	s.SetRetire(func(j *job.Job) {
		if j.Class == job.Interstitial {
			retired++
			c.Recycle(j)
		}
	})
	attach(t, c, s)
	s.Submit(job.New(1, "u", "g", 35, 300, 300, 0), job.New(2, "v", "h", 20, 100, 100, 0))
	s.Run()
	if retired == 0 || c.spareHead == len(c.spare) {
		t.Fatalf("%d records retired, none spare", retired)
	}
	old := c.spare[c.spareHead]
	if u, g := old.FairShareSlots(); u == 0 && g == 0 || old.MachineSlot() == 0 && old.FinishSlot() == 0 {
		t.Fatalf("the spare record has no slots to clear: fair share %d/%d, machine %d, finish %d", u, g, old.MachineSlot(), old.FinishSlot())
	}

	got := c.record(interstitialIDBase+99, 70, 500)
	if got != old {
		t.Fatal("record allocated instead of reusing the spare record")
	}
	want := job.NewInterstitial(interstitialIDBase+99, 10, 70, 500)
	if !reflect.DeepEqual(*got, *want) {
		t.Fatalf("reused record\n got %+v\nwant %+v", *got, *want)
	}
	gu, gg := got.FairShareSlots()
	wu, wg := want.FairShareSlots()
	if gu != wu || gg != wg || got.MachineSlot() != want.MachineSlot() || got.FinishSlot() != want.FinishSlot() {
		t.Fatalf("reused slots: fair share %d/%d machine %d finish %d; fresh %d/%d %d %d",
			gu, gg, got.MachineSlot(), got.FinishSlot(), wu, wg, want.MachineSlot(), want.FinishSlot())
	}
}
