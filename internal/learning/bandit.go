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
	"jouleguard/internal/control"
	"jouleguard/internal/telemetry"
)

// Estimator tracks one arm's (rate, power) estimates. The paper uses EWMA
// filters (Eqn 1); a Kalman variant is provided for the estimator ablation
// (adaptive-control literature the paper cites in Sec. 6.4 favours Kalman
// filters for resource provisioning).
type Estimator interface {
	Observe(rate, power float64)
	Rate() float64
	Power() float64
	Efficiency() float64
	// EncodeState and DecodeState carry the filter state through a
	// checkpoint (see Bandit.EncodeState).
	EncodeState(*ckpt.Enc)
	DecodeState(*ckpt.Dec)
}

// Gainer is an optional Estimator extension exposing the filter gain —
// the EWMA alpha or the Kalman gain — for telemetry.
type Gainer interface {
	Gain() float64
}

// ewmaEstimator adapts control.RatePowerEstimate to the Estimator
// interface.
type ewmaEstimator struct {
	rp *control.RatePowerEstimate
}

func (e ewmaEstimator) Observe(rate, power float64) { e.rp.Observe(rate, power) }
func (e ewmaEstimator) Rate() float64               { return e.rp.Rate.Value() }
func (e ewmaEstimator) Power() float64              { return e.rp.Power.Value() }
func (e ewmaEstimator) Efficiency() float64         { return e.rp.Efficiency() }
func (e ewmaEstimator) Gain() float64               { return e.rp.Rate.Alpha() }
func (e ewmaEstimator) EncodeState(enc *ckpt.Enc) {
	e.rp.Rate.EncodeState(enc)
	e.rp.Power.EncodeState(enc)
}
func (e ewmaEstimator) DecodeState(d *ckpt.Dec) {
	e.rp.Rate.DecodeState(d)
	e.rp.Power.DecodeState(d)
}

// kalmanEstimator tracks rate and power with scalar Kalman filters.
type kalmanEstimator struct {
	rate  *control.Kalman1D
	power *control.Kalman1D
}

func (k kalmanEstimator) Observe(rate, power float64) {
	k.rate.Observe(rate)
	k.power.Observe(power)
}
func (k kalmanEstimator) Rate() float64  { return k.rate.Value() }
func (k kalmanEstimator) Power() float64 { return k.power.Value() }
func (k kalmanEstimator) Gain() float64  { return k.rate.Gain() }
func (k kalmanEstimator) Efficiency() float64 {
	p := k.power.Value()
	if p <= 0 {
		return 0
	}
	return k.rate.Value() / p
}
func (k kalmanEstimator) EncodeState(enc *ckpt.Enc) {
	k.rate.EncodeState(enc)
	k.power.EncodeState(enc)
}
func (k kalmanEstimator) DecodeState(d *ckpt.Dec) {
	k.rate.DecodeState(d)
	k.power.DecodeState(d)
}

// EstimatorFactory builds an estimator primed with an arm's priors.
type EstimatorFactory func(ratePrior, powerPrior float64) (Estimator, error)

// EWMAFactory is the paper's Eqn 1 estimator with gain alpha.
func EWMAFactory(alpha float64) EstimatorFactory {
	return func(ratePrior, powerPrior float64) (Estimator, error) {
		rp, err := control.NewRatePowerEstimate(alpha, ratePrior, powerPrior)
		if err != nil {
			return nil, err
		}
		return ewmaEstimator{rp}, nil
	}
}

// KalmanFactory builds Kalman estimators whose initial variance reflects
// low confidence in the priors; process/measurement noise scale with the
// prior magnitudes so the filter is unit-free.
func KalmanFactory() EstimatorFactory {
	return func(ratePrior, powerPrior float64) (Estimator, error) {
		return kalmanEstimator{
			rate:  control.NewKalman1D(ratePrior, ratePrior*ratePrior, 1e-4*ratePrior*ratePrior, 0.01*ratePrior*ratePrior),
			power: control.NewKalman1D(powerPrior, powerPrior*powerPrior, 1e-4*powerPrior*powerPrior, 0.01*powerPrior*powerPrior),
		}, nil
	}
}

// Arm is one bandit arm: a system configuration with estimates of its
// computation rate and power draw (paper Eqn 1).
type Arm struct {
	Estimate Estimator
	Pulls    int // times this arm was the active configuration
}

// Bandit tracks per-configuration estimates and selects configurations.
// It is policy-agnostic: Selectors (VDBE, FixedEpsilon, UCB1) decide between
// exploring and exploiting; the bandit supplies BestArm (Eqn 3) and the
// random draw.
type Bandit struct {
	arms []Arm
	// eff caches Estimate.Efficiency() per arm. Estimators change only
	// inside Observe, so the cache — and the two argmax trees over it —
	// stay exact without ever re-querying the estimator interface, and an
	// Observe pays for the one arm it touched, not for the table.
	eff        []float64
	all        argmaxTree // every arm
	pulled     argmaxTree // arms with Pulls > 0
	totalPulls int
	rng        *rand.Rand
	sink       telemetry.Sink
}

// NewBandit creates a bandit with one arm per configuration, using the
// paper's EWMA estimators with gain alpha. priors supplies the initial
// (rate, power) estimate per arm; it must cover every arm.
func NewBandit(n int, alpha float64, priors Priors, rng *rand.Rand) (*Bandit, error) {
	return NewBanditWithEstimators(n, EWMAFactory(alpha), priors, rng)
}

// NewBanditWithEstimators creates a bandit with a custom estimator per arm
// (e.g. KalmanFactory for the estimator ablation).
func NewBanditWithEstimators(n int, factory EstimatorFactory, priors Priors, rng *rand.Rand) (*Bandit, error) {
	if n <= 0 {
		return nil, fmt.Errorf("learning: bandit needs at least one arm, got %d", n)
	}
	if rng == nil {
		return nil, fmt.Errorf("learning: nil rng")
	}
	if factory == nil {
		return nil, fmt.Errorf("learning: nil estimator factory")
	}
	b := &Bandit{arms: make([]Arm, n), eff: make([]float64, n),
		all: newArgmaxTree(n), pulled: newArgmaxTree(n), rng: rng, sink: telemetry.Nop{}}
	for i := range b.arms {
		rate, power := priors.Estimate(i)
		if rate <= 0 || power <= 0 {
			return nil, fmt.Errorf("learning: prior for arm %d not positive (rate=%v power=%v)", i, rate, power)
		}
		est, err := factory(rate, power)
		if err != nil {
			return nil, err
		}
		b.arms[i].Estimate = est
		b.eff[i] = est.Efficiency()
	}
	b.all.fill(b.eff)
	return b, nil
}

// NumArms returns the number of configurations.
func (b *Bandit) NumArms() int { return len(b.arms) }

// SetSink streams estimator updates into a telemetry sink.
func (b *Bandit) SetSink(s telemetry.Sink) { b.sink = telemetry.OrNop(s) }

// Gain returns the filter gain of an arm's estimator, or NaN when the
// estimator does not expose one.
func (b *Bandit) Gain(arm int) float64 {
	if g, ok := b.arms[arm].Estimate.(Gainer); ok {
		return g.Gain()
	}
	return math.NaN()
}

// Observe folds a measurement of (rate, power) for the given arm into its
// estimates and returns the prediction error used by VDBE: the absolute
// difference between the measured efficiency and the pre-update estimate.
func (b *Bandit) Observe(arm int, rate, power float64) (effError float64, err error) {
	if arm < 0 || arm >= len(b.arms) {
		return 0, fmt.Errorf("learning: arm %d out of range [0,%d)", arm, len(b.arms))
	}
	a := &b.arms[arm]
	prior := b.eff[arm]
	var measured float64
	if power > 0 {
		measured = rate / power
	}
	a.Estimate.Observe(rate, power)
	a.Pulls++
	b.totalPulls++

	// Only this arm's score moved (and it now counts as pulled): replay
	// its path in both trees.
	b.eff[arm] = a.Estimate.Efficiency()
	b.all.update(b.eff, arm)
	b.pulled.update(b.eff, arm)

	gain := math.NaN()
	if g, ok := a.Estimate.(Gainer); ok {
		gain = g.Gain()
	}
	b.sink.EstimatorUpdate(arm, a.Estimate.Rate(), a.Estimate.Power(), gain)
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

// BestFeasibleArm returns the most efficient arm among those accepted by
// keep. It returns -1 if keep rejects every arm. The runtime uses this to
// honour caps (e.g. a power cap in approximate-hardware mode).
func (b *Bandit) BestFeasibleArm(keep func(arm int) bool) int {
	best := -1
	bestEff := math.Inf(-1)
	for i, eff := range b.eff {
		if !keep(i) {
			continue
		}
		if eff > bestEff {
			best, bestEff = i, eff
		}
	}
	return best
}

// RandomArm returns a uniformly random arm index.
func (b *Bandit) RandomArm() int { return b.rng.Intn(len(b.arms)) }

// Rate returns the estimated computation rate of an arm.
func (b *Bandit) Rate(arm int) float64 { return b.arms[arm].Estimate.Rate() }

// Power returns the estimated power of an arm.
func (b *Bandit) Power(arm int) float64 { return b.arms[arm].Estimate.Power() }

// Efficiency returns the estimated energy efficiency of an arm.
func (b *Bandit) Efficiency(arm int) float64 { return b.eff[arm] }

// Pulls returns how many observations an arm has absorbed.
func (b *Bandit) Pulls(arm int) int { return b.arms[arm].Pulls }

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
