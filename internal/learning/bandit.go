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

	"jouleguard/internal/ckpt"
)

// Bandit tracks per-configuration estimates and selects configurations.
// It is policy-agnostic: Selectors (VDBE, FixedEpsilon, UCB1) decide between
// exploring and exploiting; the bandit supplies BestArm (Eqn 3) and the
// random draw.
type Bandit struct {
	// est holds every arm's estimates of computation rate and power draw
	// (paper Eqn 1); pulls counts the times each arm was the active
	// configuration.
	est   bank
	pulls []int
	// eff caches each arm's estimated efficiency. Estimates change only
	// inside Observe, so the cache — and the two argmax trees over it —
	// stay exact without ever re-querying the bank, and an Observe pays
	// for the one arm it touched, not for the table.
	eff        []float64
	all        argmaxTree // every arm
	pulled     argmaxTree // arms with pulls > 0
	totalPulls int
	rng        *rand.Rand
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
func (b *Bandit) NumArms() int { return len(b.eff) }

// Gain returns the filter gain of an arm's estimator: the EWMA alpha or
// the Kalman gain of its last update.
func (b *Bandit) Gain(arm int) float64 { return b.est.gain(arm) }

// Observe folds a measurement of (rate, power) for the given arm into its
// estimates and returns the prediction error used by VDBE: the absolute
// difference between the measured efficiency and the pre-update estimate.
func (b *Bandit) Observe(arm int, rate, power float64) (effError float64, err error) {
	if arm < 0 || arm >= len(b.eff) {
		return 0, fmt.Errorf("learning: arm %d out of range [0,%d)", arm, len(b.eff))
	}
	prior := b.eff[arm]
	var measured float64
	if power > 0 {
		measured = rate / power
	}
	estRate, estPower := b.est.observe(arm, rate, power)
	b.pulls[arm]++
	b.totalPulls++

	// Only this arm's score moved (and it now counts as pulled): replay
	// its path in both trees.
	b.eff[arm] = efficiency(estRate, estPower)
	b.all.update(b.eff, arm)
	b.pulled.update(b.eff, arm)
	return math.Abs(measured - prior), nil
}

// BestArm implements Eqn 3: the arm with the highest estimated energy
// efficiency rate/power. Ties break toward the lower index, which (with our
// index convention) prefers fewer resources; an arm whose estimate went
// NaN or -Inf never wins, and arm 0 stands in when every arm has. O(1):
// Observe keeps the tournament current.
func (b *Bandit) BestArm() int { return max(b.all.best(), 0) }

// BestMeasuredArm returns the most efficient arm among those with at
// least one observation, or -1 before any pull (or when no pulled arm has
// a rankable estimate). Like BestArm it is O(1): the watchdog's
// conservative pin consults it every iteration.
func (b *Bandit) BestMeasuredArm() int { return b.pulled.best() }

// RandomArm returns a uniformly random arm index.
func (b *Bandit) RandomArm() int { return b.rng.Intn(len(b.eff)) }

// Rate returns the estimated computation rate of an arm.
func (b *Bandit) Rate(arm int) float64 { return b.est.rate(arm) }

// Power returns the estimated power of an arm.
func (b *Bandit) Power(arm int) float64 { return b.est.power(arm) }

// Efficiency returns the estimated energy efficiency of an arm.
func (b *Bandit) Efficiency(arm int) float64 { return b.eff[arm] }

// Pulls returns how many observations an arm has absorbed.
func (b *Bandit) Pulls(arm int) int { return b.pulls[arm] }

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
