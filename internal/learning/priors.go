package learning

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"jouleguard/internal/control"
)

// Priors supplies the initial (rate, power) estimate for every bandit arm.
// JouleGuard does not start from random values: Sec. 3.2 initialises
// performance to grow linearly with allocated resources and power to grow
// cubically with clock speed and linearly with core count — a deliberate
// overestimate ("it is not a gross overestimate") that makes unexplored
// richly-provisioned configurations look attractive until measured.
type Priors interface {
	Estimate(arm int) (rate, power float64)
}

// PriorsFunc adapts a function to the Priors interface.
type PriorsFunc func(arm int) (rate, power float64)

// Estimate implements Priors.
func (f PriorsFunc) Estimate(arm int) (rate, power float64) { return f(arm) }

// ResourceShape describes one configuration's resource allocation in the
// normalised terms the prior model needs: how many cores it uses, the clock
// as a fraction of the maximum, and any constant resource bonus factors
// (hyperthreading, extra memory controllers).
type ResourceShape struct {
	Cores       int     // total cores allocated (>= 1)
	ClockFrac   float64 // clock / max clock, in (0, 1]
	ExtraFactor float64 // multiplicative speed factor for other resources (>= 1); 0 means 1
}

// LinearCubicPriors implements the paper's initialisation over a concrete
// configuration space:
//
//	rate(c)  = BaseRate  * cores * clockFrac * extra      (linear in resources)
//	power(c) = BasePower + CorePower * cores * clockFrac^3 (cubic in clock,
//	                                                        linear in cores)
//
// BaseRate is the rate of one core at full clock; BasePower is the
// platform's idle power and CorePower the per-core power at full clock.
type LinearCubicPriors struct {
	Shapes    []ResourceShape
	BaseRate  float64
	BasePower float64
	CorePower float64
}

// Estimate implements Priors.
func (p LinearCubicPriors) Estimate(arm int) (rate, power float64) {
	s := p.Shapes[arm]
	extra := s.ExtraFactor
	if extra <= 0 {
		extra = 1
	}
	cores := float64(s.Cores)
	if cores < 1 {
		cores = 1
	}
	clock := s.ClockFrac
	if clock <= 0 || clock > 1 {
		clock = 1
	}
	rate = p.BaseRate * cores * clock * extra
	power = p.BasePower + p.CorePower*cores*math.Pow(clock, 3)
	return rate, power
}

// FlatPriors gives every arm the same initial estimate; used by the priors
// ablation ("what if we had started from uninformative values?").
type FlatPriors struct {
	Rate  float64
	Power float64
}

// Estimate implements Priors.
func (p FlatPriors) Estimate(arm int) (rate, power float64) { return p.Rate, p.Power }

// PriorTable is a Priors materialised once per configuration space, and
// with it everything a bandit that has observed nothing would know: the
// priors are the filters' initial estimates, their efficiencies the
// initial scores, and the candidate arms ranked by those scores are the
// order in which the argmax would pick them. Every bandit built from the
// table reads its unpulled arms from it rather than copying them, so
// starting a session costs neither the prior model's work per arm nor a
// copy of its 1,024 answers.
//
// A table is immutable once Tabulate returns (the Kalman priors and the
// flat table are built once, on first use) and safe for concurrent use:
// the bandits built from it only read it. Whoever evaluates a prior model
// repeatedly (a platform per application profile, a testbed per
// registration) keeps the table instead and hands it to NewBandit as the
// Priors.
type PriorTable struct {
	rate, power []float64 // the priors: every unpulled arm's estimates
	eff         []float64
	// rank lists the candidate arms by their priors' efficiency, best
	// first, in the order BestArm plays (see better).
	rank []int32

	kalmanOnce  sync.Once
	kalmanRate  []control.Kalman1D // the Kalman filters an arm's first pull starts from
	kalmanPower []control.Kalman1D

	flatOnce sync.Once
	flat     *PriorTable
}

// Tabulate evaluates priors over n arms. A table that already covers
// exactly n arms is returned as it is.
func Tabulate(n int, priors Priors) (*PriorTable, error) {
	if t, ok := priors.(*PriorTable); ok && len(t.rate) == n {
		return t, nil
	}
	if n <= 0 {
		return nil, fmt.Errorf("learning: bandit needs at least one arm, got %d", n)
	}
	rate, power := make([]float64, n), make([]float64, n)
	for i := range rate {
		rate[i], power[i] = priors.Estimate(i)
	}
	return newPriorTable(rate, power)
}

// newPriorTable takes ownership of the two slices.
func newPriorTable(rate, power []float64) (*PriorTable, error) {
	t := &PriorTable{rate: rate, power: power, eff: make([]float64, len(rate))}
	for i := range rate {
		if rate[i] <= 0 || power[i] <= 0 {
			return nil, fmt.Errorf("learning: prior for arm %d not positive (rate=%v power=%v)", i, rate[i], power[i])
		}
		t.eff[i] = efficiency(rate[i], power[i])
		if candidate(t.eff[i]) {
			t.rank = append(t.rank, int32(i))
		}
	}
	slices.SortFunc(t.rank, func(a, b int32) int {
		if c := cmp.Compare(t.eff[b], t.eff[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return t, nil
}

// Estimate implements Priors.
func (t *PriorTable) Estimate(arm int) (rate, power float64) { return t.rate[arm], t.power[arm] }

// Flat returns the table the priors ablation starts from ("what if we had
// started from uninformative values?"): every arm at the mean of this
// table's priors, so the ablation isolates the shape of the informed
// priors, not their magnitude.
func (t *PriorTable) Flat() *PriorTable {
	t.flatOnce.Do(func() {
		n := len(t.rate)
		var rSum, pSum float64
		for i := range t.rate {
			rSum += t.rate[i]
			pSum += t.power[i]
		}
		flat := FlatPriors{Rate: rSum / float64(n), Power: pSum / float64(n)}
		rate, power := make([]float64, n), make([]float64, n)
		for i := range rate {
			rate[i], power[i] = flat.Rate, flat.Power
		}
		// Means of accepted priors are accepted: this cannot fail.
		t.flat, _ = newPriorTable(rate, power)
	})
	return t.flat
}

// NewBandit builds a bandit over the table's arms with the paper's EWMA
// estimators of gain alpha.
func (t *PriorTable) NewBandit(alpha float64, rng *rand.Rand) (*Bandit, error) {
	if _, err := control.NewEWMA(alpha); err != nil {
		return nil, err
	}
	return t.newBandit(&ewmaBank{alpha: alpha}, rng)
}

// NewKalmanBandit builds a bandit whose arms are tracked by Kalman
// filters (the estimator ablation).
func (t *PriorTable) NewKalmanBandit(rng *rand.Rand) (*Bandit, error) {
	t.kalmanOnce.Do(func() {
		t.kalmanRate = make([]control.Kalman1D, len(t.rate))
		t.kalmanPower = make([]control.Kalman1D, len(t.rate))
		for i := range t.rate {
			t.kalmanRate[i] = newKalmanFilter(t.rate[i])
			t.kalmanPower[i] = newKalmanFilter(t.power[i])
		}
	})
	return t.newBandit(&kalmanBank{}, rng)
}

// newBandit wraps an empty bank in a bandit that has pulled nothing.
func (t *PriorTable) newBandit(est bank, rng *rand.Rand) (*Bandit, error) {
	if rng == nil {
		return nil, fmt.Errorf("learning: nil rng")
	}
	return &Bandit{table: t, est: est, index: make([]int32, len(t.rate)), rng: rng}, nil
}
