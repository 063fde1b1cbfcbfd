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
	users  map[string]float64
	groups map[string]float64
	total  float64
	// epoch counts the Charge calls that moved stored values: nonzero
	// charges and rebases. Because Priority is a ratio of stored values
	// (the decay factor cancels), priorities change only then; the epoch
	// lets schedulers skip re-sorting a queue whose priorities provably
	// have not moved.
	epoch uint64
}

// DefaultHalfLife is a one-week usage decay, typical of production
// fair-share configurations.
const DefaultHalfLife = sim.Time(7 * 24 * 3600)

// New returns an empty tree.
func New(level Level, halfLife sim.Time) *Tree {
	if halfLife <= 0 {
		halfLife = DefaultHalfLife
	}
	return &Tree{
		level:    level,
		halfLife: halfLife,
		users:    make(map[string]float64),
		groups:   make(map[string]float64),
	}
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
	for k, v := range t.users {
		t.users[k] = v * f
	}
	for k, v := range t.groups {
		t.groups[k] = v * f
	}
	t.total *= f
	t.ref = now
}

// Charge records cpuSeconds of usage for the job's user and group at time
// now. Negative charges (corrections when a job finishes early) are
// clamped so no account goes below zero.
func (t *Tree) Charge(now sim.Time, j *job.Job, cpuSeconds float64) {
	rebased := now > t.ref && float64(now-t.ref) > 50*float64(t.halfLife)
	if rebased {
		t.rebase(now)
	}
	f := t.factorAt(now)
	delta := cpuSeconds / f
	t.users[j.User] = clampNonNeg(t.users[j.User] + delta)
	t.groups[j.Group] = clampNonNeg(t.groups[j.Group] + delta)
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

// State snapshots the accounting (maps are deep-copied).
func (t *Tree) State() State {
	st := State{
		Ref:    t.ref,
		Users:  make(map[string]float64, len(t.users)),
		Groups: make(map[string]float64, len(t.groups)),
		Total:  t.total,
		Epoch:  t.epoch,
	}
	for k, v := range t.users {
		st.Users[k] = v
	}
	for k, v := range t.groups {
		st.Groups[k] = v
	}
	return st
}

// SetState replaces the accounting with a snapshot (maps are
// deep-copied, so the caller's snapshot stays independent).
func (t *Tree) SetState(st State) {
	t.ref = st.Ref
	t.total = st.Total
	t.epoch = st.Epoch
	t.users = make(map[string]float64, len(st.Users))
	t.groups = make(map[string]float64, len(st.Groups))
	for k, v := range st.Users {
		t.users[k] = v
	}
	for k, v := range st.Groups {
		t.groups[k] = v
	}
}

// UserUsage reports the decayed usage of a user at time now.
func (t *Tree) UserUsage(now sim.Time, user string) float64 {
	return t.users[user] * t.factorAt(now)
}

// GroupUsage reports the decayed usage of a group at time now.
func (t *Tree) GroupUsage(now sim.Time, group string) float64 {
	return t.groups[group] * t.factorAt(now)
}

// Priority computes the fair-share dispatch priority for j at time now.
// Higher is better. The scale is arbitrary but consistent: a fully unused
// account scores 0 and usage pushes the score negative in units of "share
// of total decayed usage". Flat trees always return 0 so ordering falls
// back to submit time. (Shares are ratios, so the decay factor cancels
// and no map sweep is needed.)
func (t *Tree) Priority(now sim.Time, j *job.Job) float64 {
	if t.level == Flat {
		return 0
	}
	if t.total <= 0 {
		return 0
	}
	g := t.groups[j.Group] / t.total
	switch t.level {
	case GroupLevel:
		return -g
	default: // UserAndGroup
		u := t.users[j.User] / t.total
		return -(u + g) / 2
	}
}
