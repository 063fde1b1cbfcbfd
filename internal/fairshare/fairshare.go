// Package fairshare implements the decayed-usage fair-share accounting the
// three ASCI queueing systems used to order their queues. The paper
// (Section 3) distinguishes three flavors:
//
//   - Ross/PBS: all users have equal shares (flat),
//   - Blue Mountain/LSF: hierarchical group-level fair share,
//   - Blue Pacific/DPCS: user and group-level fair share.
//
// Usage decays exponentially with a configurable half-life; priorities are
// recomputed at every scheduling pass, which produces the dynamic
// reprioritization ("queue poaching") that drives the paper's cascade
// delays.
//
// Decay is lazy: stored values are kept in "reference time" units and the
// decay factor is applied on read, so a scheduling pass costs O(1) per
// account touched instead of O(accounts) — the accounting shows up in
// simulator profiles otherwise.
package fairshare

import (
	"math"

	"interstitial/internal/job"
	"interstitial/internal/sim"
)

// Level selects which attribution levels feed the priority.
type Level uint8

const (
	// Flat ignores usage history: every user has an equal share and
	// priority falls back to submit order (FIFO).
	Flat Level = iota
	// GroupLevel charges usage to groups only (hierarchical group share).
	GroupLevel
	// UserAndGroup charges both the user and the group, weighting them
	// equally.
	UserAndGroup
)

// String names the level.
func (l Level) String() string {
	switch l {
	case Flat:
		return "flat"
	case GroupLevel:
		return "group"
	case UserAndGroup:
		return "user+group"
	}
	return "level?"
}

// Tree tracks decayed CPU-second usage per user and per group.
type Tree struct {
	level    Level
	halfLife sim.Time
	// Stored values are exact at time ref; a value v stored at ref is
	// worth v * 2^(-(now-ref)/halfLife) at time now. Charges made at now
	// are divided by that factor before storing. rebase() keeps the
	// stored magnitudes in floating-point-safe range.
	ref    sim.Time
	users  accounts
	groups accounts
	total  float64
	// epoch counts the Charge calls that moved stored values: nonzero
	// charges and rebases. Because Priority is a ratio of stored values
	// (the decay factor cancels), priorities change only then; the epoch
	// lets schedulers skip re-sorting a queue whose priorities provably
	// have not moved.
	epoch uint64
}

// accounts holds one level's stored usage by dense account number. Jobs
// cache their numbers (job.FairShareSlots), so the per-job paths — every
// queued job's Priority, every start's and finish's Charge — read and
// write slices; the name index is consulted only when a job's cached
// number does not name its account here. An account can exist without
// having been charged (Priority numbers the accounts it reads); only
// charged ones appear in State, so the snapshot's key set is exactly
// the accounts Charge or SetState touched.
type accounts struct {
	names   []string
	usage   []float64
	charged []bool
	index   map[string]int32
	// last is the account the name index last resolved. Fresh jobs come
	// in runs of one account — every interstitial fill is charged to the
	// same one — so checking it spares most first-sight lookups.
	last int32
}

// slot returns the number of account name, trusting cached or last only
// when it names that account, and numbering a new account on first sight.
func (a *accounts) slot(name string, cached int32) int32 {
	if uint32(cached) < uint32(len(a.names)) && a.names[cached] == name {
		return cached
	}
	if uint32(a.last) < uint32(len(a.names)) && a.names[a.last] == name {
		return a.last
	}
	i, ok := a.index[name]
	if !ok {
		if a.index == nil {
			a.index = make(map[string]int32)
		}
		i = int32(len(a.names))
		a.index[name] = i
		a.names = append(a.names, name)
		a.usage = append(a.usage, 0)
		a.charged = append(a.charged, false)
	}
	a.last = i
	return i
}

// get reports name's stored usage; an unknown account holds 0.
func (a *accounts) get(name string) float64 {
	if i, ok := a.index[name]; ok {
		return a.usage[i]
	}
	return 0
}

// snapshot copies the charged accounts into a fresh map.
func (a *accounts) snapshot() map[string]float64 {
	m := make(map[string]float64, len(a.names))
	for i, c := range a.charged {
		if c {
			m[a.names[i]] = a.usage[i]
		}
	}
	return m
}

// restore replaces every account with the snapshot's, all charged.
func (a *accounts) restore(m map[string]float64) {
	*a = accounts{}
	for name, v := range m {
		i := a.slot(name, -1)
		a.usage[i] = v
		a.charged[i] = true
	}
}

// DefaultHalfLife is a one-week usage decay, typical of production
// fair-share configurations.
const DefaultHalfLife = sim.Time(7 * 24 * 3600)

// New returns an empty tree.
func New(level Level, halfLife sim.Time) *Tree {
	if halfLife <= 0 {
		halfLife = DefaultHalfLife
	}
	return &Tree{level: level, halfLife: halfLife}
}

// Level reports the attribution level.
func (t *Tree) Level() Level { return t.level }

// factorAt reports the decay multiplier from the reference time to now.
func (t *Tree) factorAt(now sim.Time) float64 {
	if now <= t.ref {
		return 1
	}
	return math.Exp2(-float64(now-t.ref) / float64(t.halfLife))
}

// rebase rescales all stored values to be exact at time now. Called only
// when stored magnitudes would otherwise outgrow float precision — every
// ~50 half-lives of simulated time.
func (t *Tree) rebase(now sim.Time) {
	f := t.factorAt(now)
	for i := range t.users.usage {
		t.users.usage[i] *= f
	}
	for i := range t.groups.usage {
		t.groups.usage[i] *= f
	}
	t.total *= f
	t.ref = now
}

// Charge records cpuSeconds of usage for the job's user and group at time
// now. Negative charges (corrections when a job finishes early) are
// clamped so no account goes below zero. A zero charge that does not
// rebase — the finish of every job whose runtime matched its estimate,
// interstitial fills included — only marks both accounts charged: adding
// a zero delta leaves every stored value as it was.
func (t *Tree) Charge(now sim.Time, j *job.Job, cpuSeconds float64) {
	us, gs := j.FairShareSlots()
	us, gs = t.users.slot(j.User, us), t.groups.slot(j.Group, gs)
	j.SetFairShareSlots(us, gs)
	t.users.charged[us] = true
	t.groups.charged[gs] = true
	rebased := now > t.ref && float64(now-t.ref) > 50*float64(t.halfLife)
	if cpuSeconds == 0 && !rebased {
		return
	}
	if rebased {
		t.rebase(now)
	}
	f := t.factorAt(now)
	delta := cpuSeconds / f
	t.users.usage[us] = clampNonNeg(t.users.usage[us] + delta)
	t.groups.usage[gs] = clampNonNeg(t.groups.usage[gs] + delta)
	t.total = clampNonNeg(t.total + delta)
	if delta != 0 || rebased {
		t.epoch++
	}
}

// Epoch reports the charge epoch: it advances exactly on the charges that
// may move some priority, nonzero ones and rebases, so a zero charge (a
// finish whose runtime matched its estimate) leaves it standing. Between
// equal epochs, Priority(now, j) is constant for every j regardless of now.
func (t *Tree) Epoch() uint64 { return t.epoch }

func clampNonNeg(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}

// State is a serializable snapshot of the tree's mutable accounting.
// Stored values are reference-time units, exactly as held internally,
// so a restore continues bit-identically (no decay is re-applied).
type State struct {
	Ref    sim.Time           `json:"ref"`
	Users  map[string]float64 `json:"users,omitempty"`
	Groups map[string]float64 `json:"groups,omitempty"`
	Total  float64            `json:"total"`
	Epoch  uint64             `json:"epoch"`
}

// State snapshots the accounting (maps are deep-copied). It holds every
// account ever charged, even by zero, and no other.
func (t *Tree) State() State {
	return State{
		Ref:    t.ref,
		Users:  t.users.snapshot(),
		Groups: t.groups.snapshot(),
		Total:  t.total,
		Epoch:  t.epoch,
	}
}

// SetState replaces the accounting with a snapshot (maps are
// deep-copied, so the caller's snapshot stays independent).
func (t *Tree) SetState(st State) {
	t.ref = st.Ref
	t.total = st.Total
	t.epoch = st.Epoch
	t.users.restore(st.Users)
	t.groups.restore(st.Groups)
}

// UserUsage reports the decayed usage of a user at time now.
func (t *Tree) UserUsage(now sim.Time, user string) float64 {
	return t.users.get(user) * t.factorAt(now)
}

// GroupUsage reports the decayed usage of a group at time now.
func (t *Tree) GroupUsage(now sim.Time, group string) float64 {
	return t.groups.get(group) * t.factorAt(now)
}

// Priority computes the fair-share dispatch priority for j at time now.
// Higher is better. The scale is arbitrary but consistent: a fully unused
// account scores 0 and usage pushes the score negative in units of "share
// of total decayed usage". Flat trees always return 0 so ordering falls
// back to submit time. (Shares are ratios, so the decay factor cancels
// and no sweep over the accounts is needed.)
func (t *Tree) Priority(now sim.Time, j *job.Job) float64 {
	if t.level == Flat {
		return 0
	}
	if t.total <= 0 {
		return 0
	}
	us, gs := j.FairShareSlots()
	gs = t.groups.slot(j.Group, gs)
	g := t.groups.usage[gs] / t.total
	if t.level == GroupLevel {
		j.SetFairShareSlots(us, gs)
		return -g
	}
	us = t.users.slot(j.User, us)
	j.SetFairShareSlots(us, gs)
	u := t.users.usage[us] / t.total
	return -(u + g) / 2
}
