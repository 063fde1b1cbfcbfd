// Package machine models a space-shared supercomputer as a pool of
// identical processors, following the paper's treatment of the ASCI
// machines: jobs hold a fixed CPU count from start to finish, there is no
// topology, and no time-sharing.
//
// The machine keeps an exact busy-CPU integral split by job class, so
// overall and native-only utilizations (the paper's headline metrics) can
// be read off at any time without replaying the run.
package machine

import (
	"fmt"
	"slices"

	"interstitial/internal/job"
	"interstitial/internal/sim"
)

// Config describes a machine. The three ASCI profiles from Table 1 of the
// paper are provided as constructors.
type Config struct {
	// Name labels the machine in reports.
	Name string
	// CPUs is the total processor count.
	CPUs int
	// ClockGHz is the per-processor clock in GHz; it converts the paper's
	// cycle-denominated project sizes into wallclock seconds.
	ClockGHz float64
}

// TeraCycles reports the machine capacity proxy used in Table 1:
// CPUs x clock, in tera-cycles per second.
func (c Config) TeraCycles() float64 { return float64(c.CPUs) * c.ClockGHz / 1000 }

// Ross returns the ASCI Ross (Sandia) profile: 1436 CPUs at an averaged
// 0.588 GHz. The paper treats its two processor flavors as identical.
func Ross() Config { return Config{Name: "Ross", CPUs: 1436, ClockGHz: 0.588} }

// BlueMountain returns the ASCI Blue Mountain (Los Alamos) profile.
func BlueMountain() Config { return Config{Name: "Blue Mountain", CPUs: 4662, ClockGHz: 0.262} }

// BluePacific returns the ASCI Blue Pacific (Livermore, large partition
// subset) profile.
func BluePacific() Config { return Config{Name: "Blue Pacific", CPUs: 926, ClockGHz: 0.369} }

// Machine is the live CPU pool plus its utilization ledger.
//
// The running set is slice-backed so the scheduler's per-pass iteration is
// cache-friendly, allocation-free, and deterministic in start order — map
// iteration order was both slower and a determinism hazard. Each running
// job carries its own slice index (job.MachineSlot), giving O(1) removal
// without the ID->index map that used to dominate Start/Finish profiles
// with hash traffic.
type Machine struct {
	cfg  Config
	free int

	running  []*job.Job // in start order, swap-removed
	releases []Release  // the running jobs' estimated ends, summed per instant

	// busy integrals in CPU-seconds, updated lazily at each state change.
	lastUpdate      sim.Time
	busyNativeCPUs  int
	busyInterstCPUs int
	nativeCPUSec    float64
	interstCPUSec   float64
	startedJobs     int
	finishedJobs    int
	peakBusy        int
}

// Release is one instant of the machine's release timeline, which the
// scheduler plans with: the CPUs the running jobs estimated to end at At
// give back then. The timeline is ascending by At, and a running job's
// estimated end is fixed once it starts.
type Release struct {
	At   sim.Time
	CPUs int
}

// New returns an idle machine.
func New(cfg Config) *Machine {
	if cfg.CPUs < 1 {
		panic(fmt.Sprintf("machine: %d CPUs", cfg.CPUs))
	}
	return &Machine{cfg: cfg, free: cfg.CPUs}
}

// Config returns the machine's static description.
func (m *Machine) Config() Config { return m.cfg }

// Free reports the number of idle CPUs.
func (m *Machine) Free() int { return m.free }

// Busy reports the number of allocated CPUs.
func (m *Machine) Busy() int { return m.cfg.CPUs - m.free }

// BusyNative reports CPUs held by native jobs.
func (m *Machine) BusyNative() int { return m.busyNativeCPUs }

// BusyInterstitial reports CPUs held by interstitial jobs.
func (m *Machine) BusyInterstitial() int { return m.busyInterstCPUs }

// RunningCount reports how many jobs currently hold CPUs.
func (m *Machine) RunningCount() int { return len(m.running) }

// PeakBusy reports the maximum concurrent allocation seen.
func (m *Machine) PeakBusy() int { return m.peakBusy }

// Running invokes fn for every running job. Iteration order is
// deterministic (start order, perturbed by swap-removal) but not
// meaningful; fn must not start or finish jobs.
func (m *Machine) Running(fn func(*job.Job)) {
	for _, j := range m.running {
		fn(j)
	}
}

// RunningJobs returns the running jobs as a fresh slice.
func (m *Machine) RunningJobs() []*job.Job {
	return append([]*job.Job(nil), m.running...)
}

// RunningBorrow exposes the internal running slice without copying —
// read-only, and valid only until the next Start/Finish/Release. The
// engine checkpoint uses it to stay allocation-free; everyone else (in
// particular concurrent experiment code holding results across machine
// state changes) must use RunningJobs, which copies. The "Borrow" name
// marks the aliasing at every call site.
func (m *Machine) RunningBorrow() []*job.Job { return m.running }

// ReleasesBorrow exposes the release timeline without copying. Like
// RunningBorrow it is read-only and valid only until the next
// Start/Finish/Release.
func (m *Machine) ReleasesBorrow() []Release { return m.releases }

// removeRunning swap-removes the job at index i.
func (m *Machine) removeRunning(i int) {
	last := len(m.running) - 1
	moved := m.running[last]
	m.running[i] = moved
	moved.SetMachineSlot(i)
	m.running = m.running[:last]
}

// runningIndex locates j in the running set via its stored slot, with a
// pointer-identity check so a stale or foreign job cannot alias another
// running job's slot. Panics describe the caller's bug, mirroring the old
// map lookup's not-found panic.
func (m *Machine) runningIndex(op string, j *job.Job) int {
	i := j.MachineSlot()
	if i < 0 || i >= len(m.running) || m.running[i] != j {
		panic(fmt.Sprintf("machine: %s job %d that is not running", op, j.ID))
	}
	return i
}

// releaseIndex returns the index of the first release at or after at.
func (m *Machine) releaseIndex(at sim.Time) int {
	lo, hi := 0, len(m.releases)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.releases[mid].At < at {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// addRelease enters a started job's CPUs at its estimated end.
func (m *Machine) addRelease(j *job.Job) {
	at := j.EstimatedEnd()
	i := m.releaseIndex(at)
	if i < len(m.releases) && m.releases[i].At == at {
		m.releases[i].CPUs += j.CPUs
		return
	}
	m.releases = slices.Insert(m.releases, i, Release{At: at, CPUs: j.CPUs})
}

// advance accrues busy CPU-seconds up to now.
func (m *Machine) advance(now sim.Time) {
	if now < m.lastUpdate {
		panic(fmt.Sprintf("machine: time went backwards %d -> %d", m.lastUpdate, now))
	}
	dt := float64(now - m.lastUpdate)
	m.nativeCPUSec += dt * float64(m.busyNativeCPUs)
	m.interstCPUSec += dt * float64(m.busyInterstCPUs)
	m.lastUpdate = now
}

// CanStart reports whether a job needing cpus processors fits right now.
func (m *Machine) CanStart(cpus int) bool { return cpus <= m.free }

// Start allocates CPUs to j at time now and marks it running. It panics if
// the job does not fit or is not in a startable state, since both indicate
// scheduler bugs.
func (m *Machine) Start(now sim.Time, j *job.Job) {
	if j.CPUs > m.free {
		panic(fmt.Sprintf("machine %s: start job %d needing %d CPUs with %d free", m.cfg.Name, j.ID, j.CPUs, m.free))
	}
	if j.State == job.Running || j.State == job.Finished {
		panic(fmt.Sprintf("machine: job %d started twice (state %v)", j.ID, j.State))
	}
	m.advance(now)
	m.free -= j.CPUs
	if j.Class == job.Interstitial {
		m.busyInterstCPUs += j.CPUs
	} else {
		m.busyNativeCPUs += j.CPUs
	}
	if b := m.Busy(); b > m.peakBusy {
		m.peakBusy = b
	}
	j.Start = now
	j.State = job.Running
	j.SetMachineSlot(len(m.running))
	m.running = append(m.running, j)
	m.addRelease(j)
	m.startedJobs++
}

// leave frees running job j's CPUs at time now and takes it out of the
// running set and of its instant of the release timeline, which goes once
// empty. A missing release means j's estimate or runtime changed while it
// ran: a caller's bug, like leaving a job that is not running.
func (m *Machine) leave(op string, now sim.Time, j *job.Job) {
	i := m.runningIndex(op, j)
	at := j.EstimatedEnd()
	r := m.releaseIndex(at)
	if r == len(m.releases) || m.releases[r].At != at || m.releases[r].CPUs < j.CPUs {
		panic(fmt.Sprintf("machine: %s job %d whose release of %d CPUs at %d is missing (estimate or runtime changed while it ran)", op, j.ID, j.CPUs, at))
	}
	m.releases[r].CPUs -= j.CPUs
	if m.releases[r].CPUs == 0 {
		m.releases = slices.Delete(m.releases, r, r+1)
	}
	m.advance(now)
	m.free += j.CPUs
	if j.Class == job.Interstitial {
		m.busyInterstCPUs -= j.CPUs
	} else {
		m.busyNativeCPUs -= j.CPUs
	}
	m.removeRunning(i)
}

// Finish releases j's CPUs at time now and marks it finished.
func (m *Machine) Finish(now sim.Time, j *job.Job) {
	m.leave("finishing", now, j)
	j.Finish = now
	j.State = job.Finished
	m.finishedJobs++
}

// Release aborts a running job at time now: its CPUs are freed and it
// leaves the running set, but it is not counted as finished. The job is
// marked Killed with no Finish time; the busy integral keeps the work it
// did up to now.
func (m *Machine) Release(now sim.Time, j *job.Job) {
	m.leave("releasing", now, j)
	j.State = job.Killed
}

// Utilization reports (overall, native-only) utilization over [0, now].
// At now == 0 both are 0.
func (m *Machine) Utilization(now sim.Time) (overall, native float64) {
	if now <= 0 {
		return 0, 0
	}
	// Accrue a snapshot without mutating state twice: advance is
	// idempotent for equal timestamps.
	m.advance(now)
	denom := float64(now) * float64(m.cfg.CPUs)
	return (m.nativeCPUSec + m.interstCPUSec) / denom, m.nativeCPUSec / denom
}

// CPUSeconds reports the accumulated (native, interstitial) CPU-second
// integrals up to the last state change or Utilization call.
func (m *Machine) CPUSeconds() (native, interstitial float64) {
	return m.nativeCPUSec, m.interstCPUSec
}

// Counts reports (started, finished) job counts.
func (m *Machine) Counts() (started, finished int) { return m.startedJobs, m.finishedJobs }

// State is the serializable part of the machine's ledger: the lazily
// accrued busy integrals and lifetime counters. The running set itself
// is captured separately (by the engine checkpoint, which also needs
// the finish-event ordering), and handed back to RestoreState.
type State struct {
	LastUpdate    sim.Time `json:"lastUpdate"`
	NativeCPUSec  float64  `json:"nativeCPUSec"`
	InterstCPUSec float64  `json:"interstCPUSec"`
	StartedJobs   int      `json:"startedJobs"`
	FinishedJobs  int      `json:"finishedJobs"`
	PeakBusy      int      `json:"peakBusy"`
}

// State snapshots the ledger.
func (m *Machine) State() State {
	return State{
		LastUpdate:    m.lastUpdate,
		NativeCPUSec:  m.nativeCPUSec,
		InterstCPUSec: m.interstCPUSec,
		StartedJobs:   m.startedJobs,
		FinishedJobs:  m.finishedJobs,
		PeakBusy:      m.peakBusy,
	}
}

// RestoreState reinstates a snapshot onto a fresh machine: the ledger is
// set and the given jobs — which must be in the Running state — are
// adopted as the running set in the given order (the snapshot machine's
// internal order, so later swap-removals replay identically). Occupancy
// is recomputed from the jobs; an overcommitted set is an error.
func (m *Machine) RestoreState(st State, running []*job.Job) error {
	m.free = m.cfg.CPUs
	m.busyNativeCPUs, m.busyInterstCPUs = 0, 0
	m.running = m.running[:0]
	m.releases = m.releases[:0]
	for _, j := range running {
		if j.State != job.Running {
			return fmt.Errorf("machine %s: restoring job %d with state %v", m.cfg.Name, j.ID, j.State)
		}
		m.free -= j.CPUs
		if m.free < 0 {
			return fmt.Errorf("machine %s: restored running set overcommits by %d CPUs", m.cfg.Name, -m.free)
		}
		if j.Class == job.Interstitial {
			m.busyInterstCPUs += j.CPUs
		} else {
			m.busyNativeCPUs += j.CPUs
		}
		j.SetMachineSlot(len(m.running))
		m.running = append(m.running, j)
		m.addRelease(j)
	}
	m.lastUpdate = st.LastUpdate
	m.nativeCPUSec = st.NativeCPUSec
	m.interstCPUSec = st.InterstCPUSec
	m.startedJobs = st.StartedJobs
	m.finishedJobs = st.FinishedJobs
	m.peakBusy = st.PeakBusy
	return m.CheckInvariants()
}

// CheckInvariants verifies the allocation ledger, the release timeline
// included, is self-consistent.
func (m *Machine) CheckInvariants() error {
	sum := 0
	ends := make(map[sim.Time]int, len(m.running))
	for _, j := range m.running {
		if j.State != job.Running {
			return fmt.Errorf("machine %s: job %d in running set with state %v", m.cfg.Name, j.ID, j.State)
		}
		sum += j.CPUs
		ends[j.EstimatedEnd()] += j.CPUs
	}
	if sum != m.Busy() {
		return fmt.Errorf("machine %s: running jobs hold %d CPUs but busy=%d", m.cfg.Name, sum, m.Busy())
	}
	if m.free < 0 || m.free > m.cfg.CPUs {
		return fmt.Errorf("machine %s: free=%d out of range", m.cfg.Name, m.free)
	}
	if m.busyNativeCPUs+m.busyInterstCPUs != m.Busy() {
		return fmt.Errorf("machine %s: class split %d+%d != busy %d", m.cfg.Name, m.busyNativeCPUs, m.busyInterstCPUs, m.Busy())
	}
	released := 0
	for i, r := range m.releases {
		switch {
		case i > 0 && r.At <= m.releases[i-1].At:
			return fmt.Errorf("machine %s: release instants not increasing at %d (%d <= %d)", m.cfg.Name, i, r.At, m.releases[i-1].At)
		case r.CPUs <= 0:
			return fmt.Errorf("machine %s: release at %d holds %d CPUs", m.cfg.Name, r.At, r.CPUs)
		case r.CPUs != ends[r.At]:
			return fmt.Errorf("machine %s: release at %d holds %d CPUs but running jobs end there holding %d", m.cfg.Name, r.At, r.CPUs, ends[r.At])
		}
		released += r.CPUs
	}
	if released != m.Busy() {
		return fmt.Errorf("machine %s: releases return %d CPUs but busy=%d", m.cfg.Name, released, m.Busy())
	}
	if len(m.releases) != len(ends) {
		return fmt.Errorf("machine %s: %d release instants but running jobs end at %d", m.cfg.Name, len(m.releases), len(ends))
	}
	return nil
}
