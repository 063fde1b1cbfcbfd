package core

import (
	"math"
	"reflect"
	"testing"

	"interstitial/internal/engine"
	"interstitial/internal/job"
	"interstitial/internal/machine"
	"interstitial/internal/profile"
	"interstitial/internal/sched"
	"interstitial/internal/sim"
	"interstitial/internal/tracing"
)

// admitReference is the admission afterPass ran before cohorts: every
// Figure-1 test, a record, the start and the plan reservation, one job at
// a time, continuations first. FuzzCohortAdmission holds afterPass to it.
func admitReference(c *Controller, s *engine.Simulator, res sched.PassResult) {
	now := s.Now()
	if now < c.StartAt || now > c.StopAt {
		return
	}
	for len(c.backlog) > 0 && admitOneReference(c, s, res, c.backlog[0], tracing.ReasonContinuation) {
		c.backlog = c.backlog[1:]
	}
	for !c.Done() && c.Remaining() != 0 && admitOneReference(c, s, res, c.Spec.Runtime, tracing.ReasonFresh) {
		c.created++
	}
}

// admitOneReference starts one interstitial job of the given runtime if
// every Figure-1 condition holds, and reports whether it did.
func admitOneReference(c *Controller, s *engine.Simulator, res sched.PassResult, runtime sim.Time, reason tracing.Reason) bool {
	now := s.Now()
	m := s.Machine()
	if m.Free() < c.Spec.CPUs {
		return false
	}
	if c.UtilCap > 0 && float64(m.Busy()+c.Spec.CPUs)/float64(m.Config().CPUs) > c.UtilCap {
		return false
	}
	if !c.IgnorePlan && res.Plan != nil && res.Plan.MinFree(now, now+runtime) < c.Spec.CPUs {
		return false
	}
	c.nextID++
	j := job.NewInterstitial(interstitialIDBase+c.nextID, c.Spec.CPUs, runtime, now)
	if t := s.Tracer(); t != nil {
		t.Emit(now, tracing.KindSpawn, reason, j.ID, j.CPUs, m.Busy(), 0)
	}
	s.StartDirect(j)
	if !c.IgnorePlan && res.Plan != nil {
		res.Plan.Reserve(now, c.Spec.CPUs, runtime)
	}
	if !c.DiscardRecords {
		c.Jobs = append(c.Jobs, j)
	}
	return true
}

// cohortCase is one machine state at a pass, spelled as small integers.
type cohortCase struct {
	total   int      // machine CPUs
	now     sim.Time // the pass instant
	natives []byte   // running natives as (CPUs, estimate/16) pairs, each started at now
	// A waiting head job of headCPUs CPUs and headEst seconds is
	// reserved at its earliest fit, as EASY does; headCPUs 0 is an empty
	// queue.
	headCPUs int
	headEst  sim.Time
	cpus     int      // interstitial job CPUs
	runtime  sim.Time // interstitial job runtime
	// capMode picks UtilCap: 0 none; 1 exactly (Busy+capN·cpus)/total;
	// 2 the float just below that; 3 capN/255; 4 above 1, or +Inf when
	// capN is 0.
	capMode, capN int
	limit         int
	metered       bool
	created       int
	ignorePlan    bool
	backlog       []byte // continuations' runtimes, each as run/8
}

// build sets the case up on a fresh simulator and controller, returning
// the pass result the controller sees and the tracer that records the
// admission.
func (c cohortCase) build() (*engine.Simulator, *Controller, sched.PassResult, *tracing.Tracer) {
	s := engine.New(machine.Config{Name: "t", CPUs: c.total, ClockGHz: 1}, sched.NewFCFS())
	s.RunUntil(c.now)
	m := s.Machine()
	for i := 0; i+1 < len(c.natives); i += 2 {
		cpus := min(int(c.natives[i])+1, m.Free())
		if cpus == 0 {
			break
		}
		est := sim.Time(c.natives[i+1])*16 + 1
		s.StartDirect(job.New(i/2+1, "u", "g", cpus, est-est/4, est, c.now))
	}
	plan := &profile.Profile{}
	plan.RebuildFromReleases(c.now, m.Free(), m.ReleasesBorrow())
	res := sched.PassResult{Plan: plan, HeadReservation: sim.Infinity}
	if c.headCPUs > 0 {
		if at, ok := plan.EarliestFit(c.now, c.headCPUs, c.headEst); ok {
			plan.Reserve(at, c.headCPUs, c.headEst)
			res.HeadReservation = at
		}
	}

	ctrl := NewController(JobSpec{CPUs: c.cpus, Runtime: c.runtime})
	ctrl.Limit, ctrl.Metered, ctrl.created = c.limit, c.metered, c.created
	ctrl.nextID = c.created
	ctrl.IgnorePlan = c.ignorePlan
	exact := float64(m.Busy()+c.capN*c.cpus) / float64(c.total)
	switch c.capMode % 5 {
	case 1:
		ctrl.UtilCap = exact
	case 2:
		ctrl.UtilCap = math.Nextafter(exact, 0)
	case 3:
		ctrl.UtilCap = float64(c.capN) / 255
	case 4:
		ctrl.UtilCap = 1 + float64(c.capN)/100
		if c.capN == 0 {
			ctrl.UtilCap = math.Inf(1)
		}
	}
	for _, run := range c.backlog {
		ctrl.backlog = append(ctrl.backlog, sim.Time(run)*8+1)
	}
	tr := tracing.NewCollector(0).Tracer("admission", "t", c.total)
	s.SetTracer(tr)
	return s, ctrl, res, tr
}

// check admits the case as a cohort and through the reference loop, each
// on its own copy, and requires the same jobs, plan and trace.
func (c cohortCase) check(t *testing.T) {
	t.Helper()
	s, ctrl, res, tr := c.build()
	rs, rctrl, rres, rtr := c.build()
	ctrl.afterPass(s, res)
	admitReference(rctrl, rs, rres)

	if len(ctrl.Jobs) != len(rctrl.Jobs) {
		t.Fatalf("%+v: admitted %d jobs, reference %d", c, len(ctrl.Jobs), len(rctrl.Jobs))
	}
	for i := range ctrl.Jobs {
		if got, want := *ctrl.Jobs[i], *rctrl.Jobs[i]; !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: job %d\n got %+v\nwant %+v", c, i, got, want)
		}
	}
	if got, want := res.Plan.String(), rres.Plan.String(); got != want {
		t.Fatalf("%+v: plan\n got %s\nwant %s", c, got, want)
	}
	if got, want := tr.Events(), rtr.Events(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%+v: trace\n got %+v\nwant %+v", c, got, want)
	}
	if got, want := ctrl.State(), rctrl.State(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%+v: state\n got %+v\nwant %+v", c, got, want)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// cohortSeeds are hand-picked differential inputs: an empty machine with
// unlimited and with metered-zero entitlement; caps on, just under and
// between the exact (Busy+n·CPUs)/total boundaries; a head reservation
// that bounds fresh jobs and blocks long continuations; the plan ignored.
var cohortSeeds = []cohortCase{
	{total: 256, now: 0, cpus: 8, runtime: 100},
	{total: 256, now: 50, cpus: 8, runtime: 100, metered: true},
	{total: 256, now: 50, cpus: 8, runtime: 100, metered: true, limit: 7, created: 3},
	{total: 100, now: 10, natives: []byte{49, 200}, cpus: 10, runtime: 1000, capMode: 1, capN: 3},
	{total: 100, now: 10, natives: []byte{49, 200}, cpus: 10, runtime: 1000, capMode: 2, capN: 3},
	{total: 1000, now: 7, natives: []byte{99, 10, 199, 80}, cpus: 7, runtime: 300, capMode: 3, capN: 200},
	{total: 512, now: 3, natives: []byte{200, 30, 100, 90}, headCPUs: 400, headEst: 900, cpus: 16, runtime: 400,
		backlog: []byte{10, 2, 200, 5, 1, 0}},
	{total: 512, now: 3, natives: []byte{200, 30, 100, 90}, headCPUs: 400, headEst: 900, cpus: 16, runtime: 400,
		ignorePlan: true, backlog: []byte{10, 2, 200, 5}},
	{total: 64, now: 1, cpus: 1, runtime: 5, limit: 40, created: 40, backlog: []byte{3, 1}},
	{total: 64, now: 1, cpus: 1, runtime: 5, limit: 10, created: 12, backlog: []byte{3, 1}},
	{total: 64, now: 1, cpus: 3, runtime: 5, capMode: 4},
	{total: 4096, now: 99, natives: []byte{255, 255, 255, 1}, headCPUs: 4000, headEst: 30, cpus: 2, runtime: 2000, capMode: 4, capN: 7},
}

func TestCohortAdmissionMatchesReferenceSeeds(t *testing.T) {
	for _, c := range cohortSeeds {
		c.check(t)
	}
}

func FuzzCohortAdmission(f *testing.F) {
	for _, c := range cohortSeeds {
		f.Add(uint16(c.total-1), uint16(c.now), c.natives, uint16(c.headCPUs), uint16(c.headEst),
			uint8(c.cpus-1), uint16(c.runtime-1), uint8(c.capMode), uint8(c.capN),
			int16(c.limit), c.metered, uint16(c.created), c.ignorePlan, c.backlog)
	}
	f.Fuzz(func(t *testing.T, total, now uint16, natives []byte, headCPUs, headEst uint16,
		cpus uint8, runtime uint16, capMode, capN uint8,
		limit int16, metered bool, created uint16, ignorePlan bool, backlog []byte) {
		c := cohortCase{
			total:      int(total%4096) + 1,
			now:        sim.Time(now),
			natives:    natives[:min(len(natives), 64)],
			headCPUs:   int(headCPUs % 4097),
			headEst:    sim.Time(headEst) + 1,
			cpus:       int(cpus%64) + 1,
			runtime:    sim.Time(runtime%4096) + 1,
			capMode:    int(capMode),
			capN:       int(capN),
			limit:      int(limit),
			metered:    metered,
			created:    int(created),
			ignorePlan: ignorePlan,
			backlog:    backlog[:min(len(backlog), 32)],
		}
		c.check(t)
	})
}
