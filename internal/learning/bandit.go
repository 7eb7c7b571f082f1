// Package learning implements the reinforcement-learning half of JouleGuard
// (Sec. 3.2): a multi-armed bandit over system configurations whose reward
// is energy efficiency, with Value-Difference Based Exploration (VDBE) to
// balance exploration and exploitation, and the optimistic
// linear-performance / cubic-power prior initialisation the paper relies on.
// A UCB1 policy is included for the exploration ablation.
package learning

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"jouleguard/internal/ckpt"
)

// Bandit tracks per-configuration estimates and selects configurations.
// It is policy-agnostic: Selectors (VDBE, FixedEpsilon, UCB1) decide between
// exploring and exploiting; the bandit supplies BestArm (Eqn 3) and the
// random draw.
//
// A bandit holds only what it has learned. The arms it has pulled each
// have a slot — the arm, its pull count, its efficiency and, in the
// bank, its filters; every other arm still stands at its prior, and the
// PriorTable the bandit was built from, which its siblings share,
// answers for it. So building a bandit costs one zeroed arm-to-slot
// index, whatever the prior model, and a session that pulls a few dozen
// of 1,024 arms holds a few dozen slots.
type Bandit struct {
	table *PriorTable
	// est holds the pulled arms' estimates of computation rate and power
	// draw (paper Eqn 1), by slot.
	est   bank
	index []int32 // arm -> slot+1; 0 while the arm is unpulled
	slots []slot  // the pulled arms, in the order of their first pull
	// pulled is the tournament over the slots. Estimates change only
	// inside Observe, so the slots' cached efficiencies — and the tree
	// over them — stay exact without re-querying the bank, and an Observe
	// pays for the one arm it touched, not for the table.
	pulled argmaxTree
	// next is the cursor into the table's ranking of the priors: the
	// first arm there that is still unpulled, and so — unpulled arms
	// keeping their priors — the best of them. It only moves forward.
	next       int
	totalPulls int
	rng        *rand.Rand
}

// firstSlots is the room a bandit makes at its first pull, for slots,
// filters and tournament alike: a short session pulls a few dozen arms,
// and growing one at a time from nothing would allocate at every power
// of two on the way.
const firstSlots = 16

// slot is one pulled arm's learned state besides its filters.
type slot struct {
	eff   float64 // efficiency of the arm's current estimates
	pulls int
	arm   int
}

// NewBandit creates a bandit with one arm per configuration, using the
// paper's EWMA estimators with gain alpha. priors supplies the initial
// (rate, power) estimate per arm; it must cover every arm. Passing a
// PriorTable skips their evaluation.
func NewBandit(n int, alpha float64, priors Priors, rng *rand.Rand) (*Bandit, error) {
	t, err := Tabulate(n, priors)
	if err != nil {
		return nil, err
	}
	return t.NewBandit(alpha, rng)
}

// NumArms returns the number of configurations.
func (b *Bandit) NumArms() int { return len(b.index) }

// Gain returns the filter gain of an arm's estimator: the EWMA alpha or
// the Kalman gain of its last update.
func (b *Bandit) Gain(arm int) float64 { return b.est.gain(int(b.index[arm]) - 1) }

// Observe folds a measurement of (rate, power) for the given arm into its
// estimates and returns the prediction error used by VDBE: the absolute
// difference between the measured efficiency and the pre-update estimate.
func (b *Bandit) Observe(arm int, rate, power float64) (effError float64, err error) {
	if arm < 0 || arm >= len(b.index) {
		return 0, fmt.Errorf("learning: arm %d out of range [0,%d)", arm, len(b.index))
	}
	s := int(b.index[arm]) - 1
	if s < 0 {
		s = b.open(arm)
	}
	sl := &b.slots[s]
	prior := sl.eff
	var measured float64
	if power > 0 {
		measured = rate / power
	}
	estRate, estPower := b.est.observe(s, rate, power)
	sl.pulls++
	b.totalPulls++

	// Only this slot's score moved: replay its path.
	sl.eff = efficiency(estRate, estPower)
	b.pulled.update(b.slots, s)
	return math.Abs(measured - prior), nil
}

// open gives arm a slot at its prior, makes room for it in the
// tournament and moves the cursor past it; it returns the slot.
func (b *Bandit) open(arm int) int {
	s := len(b.slots)
	if b.slots == nil {
		b.slots = make([]slot, 0, firstSlots)
	}
	b.slots = append(b.slots, slot{eff: b.table.eff[arm], arm: arm})
	b.est.open(b.table, arm)
	b.index[arm] = int32(s + 1)
	b.pulled = b.pulled.grow(b.slots)
	rank := b.table.rank
	for b.next < len(rank) && b.index[rank[b.next]] != 0 {
		b.next++
	}
	return s
}

// BestArm implements Eqn 3: the arm with the highest estimated energy
// efficiency rate/power. Ties break toward the lower index, which (with our
// index convention) prefers fewer resources; an arm whose estimate went
// NaN or -Inf never wins, and arm 0 stands in when every arm has. O(1):
// the best pulled arm is the tournament's champion, the best unpulled
// one is the cursor's, and the answer is the better of the two.
func (b *Bandit) BestArm() int {
	c := b.pulled.best()
	if b.next == len(b.table.rank) {
		if c < 0 {
			return 0
		}
		return b.slots[c].arm
	}
	u := int(b.table.rank[b.next])
	if c < 0 || better(b.table.eff[u], u, b.slots[c].eff, b.slots[c].arm) {
		return u
	}
	return b.slots[c].arm
}

// BestMeasuredArm returns the most efficient arm among those with at
// least one observation, or -1 before any pull (or when no pulled arm has
// a rankable estimate). Like BestArm it is O(1): the watchdog's
// conservative pin consults it every iteration.
func (b *Bandit) BestMeasuredArm() int {
	if c := b.pulled.best(); c >= 0 {
		return b.slots[c].arm
	}
	return -1
}

// RandomArm returns a uniformly random arm index.
func (b *Bandit) RandomArm() int { return b.rng.Intn(len(b.index)) }

// Rate returns the estimated computation rate of an arm.
func (b *Bandit) Rate(arm int) float64 {
	if s := b.index[arm]; s > 0 {
		return b.est.rate(int(s) - 1)
	}
	return b.table.rate[arm]
}

// Power returns the estimated power of an arm.
func (b *Bandit) Power(arm int) float64 {
	if s := b.index[arm]; s > 0 {
		return b.est.power(int(s) - 1)
	}
	return b.table.power[arm]
}

// Efficiency returns the estimated energy efficiency of an arm.
func (b *Bandit) Efficiency(arm int) float64 {
	if s := b.index[arm]; s > 0 {
		return b.slots[s-1].eff
	}
	return b.table.eff[arm]
}

// Pulls returns how many observations an arm has absorbed.
func (b *Bandit) Pulls(arm int) int {
	if s := b.index[arm]; s > 0 {
		return b.slots[s-1].pulls
	}
	return 0
}

// PulledArms returns the arms with at least one observation, in
// ascending order.
func (b *Bandit) PulledArms() []int {
	arms := make([]int, len(b.slots))
	for s := range b.slots {
		arms[s] = b.slots[s].arm
	}
	slices.Sort(arms)
	return arms
}

// TotalPulls returns the number of observations across all arms.
func (b *Bandit) TotalPulls() int { return b.totalPulls }

// Selector is an exploration policy: given the bandit state it picks the
// next arm to run.
type Selector interface {
	// Select returns the next arm and whether the choice was exploratory.
	Select(b *Bandit) (arm int, explored bool)
	// Update feeds back the efficiency prediction error of the last
	// observation (VDBE uses it; others may ignore it).
	Update(effError, measuredEff float64)
	// EncodeState and DecodeState carry the policy's own state through a
	// checkpoint. The random source is not part of it: selectors and the
	// bandit share one, and whoever built it restores its position.
	EncodeState(*ckpt.Enc)
	DecodeState(*ckpt.Dec)
}
