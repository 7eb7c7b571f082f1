package learning

import (
	"jouleguard/internal/ckpt"
	"jouleguard/internal/control"
)

// bank is the filter state of every arm of one bandit, held in flat
// pointer-free slices indexed by arm: a bandit is built by copying a
// PriorTable's image of it, not by allocating per arm. The paper's
// estimator is the EWMA of Eqn 1; the Kalman variant serves the
// estimator ablation (the adaptive-control literature the paper cites in
// Sec. 6.4 favours Kalman filters for resource provisioning). Both are
// reached only through this interface, so the bandit has one storage
// path whichever filter runs.
type bank interface {
	// observe folds one (rate, power) measurement into arm's filters and
	// returns the updated estimates.
	observe(arm int, rate, power float64) (estRate, estPower float64)
	rate(arm int) float64
	power(arm int) float64
	// gain is the filter gain of arm's last update: the EWMA alpha or
	// the Kalman gain.
	gain(arm int) float64
	// tag names the filter family in a checkpoint, so a blob written
	// under one estimator is never decoded as the other's fields.
	tag() byte
	// encodeArm and decodeArm carry one arm's filter state through a
	// checkpoint (see Bandit.EncodeState).
	encodeArm(enc *ckpt.Enc, arm int)
	decodeArm(d *ckpt.Dec, arm int)
}

// efficiency is the bandit reward of Sec. 3.2, rate/power. A non-positive
// power estimate yields zero rather than an infinity so that the arg-max
// stays well defined.
func efficiency(rate, power float64) float64 {
	if power <= 0 {
		return 0
	}
	return rate / power
}

// ewmaBank is Eqn 1 over every arm: two estimates per arm and one gain.
// Every estimate starts at its prior, so there is no unprimed state.
type ewmaBank struct {
	alpha  float64
	rates  []float64
	powers []float64
}

func (b *ewmaBank) observe(arm int, rate, power float64) (float64, float64) {
	b.rates[arm] = control.Blend(b.alpha, b.rates[arm], rate)
	b.powers[arm] = control.Blend(b.alpha, b.powers[arm], power)
	return b.rates[arm], b.powers[arm]
}
func (b *ewmaBank) rate(arm int) float64  { return b.rates[arm] }
func (b *ewmaBank) power(arm int) float64 { return b.powers[arm] }
func (b *ewmaBank) gain(int) float64      { return b.alpha }
func (b *ewmaBank) tag() byte             { return 'E' }

// The record is that of two primed control.EWMA filters: estimate, then
// the primed flag.
func (b *ewmaBank) encodeArm(enc *ckpt.Enc, arm int) {
	enc.Float(b.rates[arm])
	enc.Bool(true)
	enc.Float(b.powers[arm])
	enc.Bool(true)
}
func (b *ewmaBank) decodeArm(d *ckpt.Dec, arm int) {
	b.rates[arm] = d.Float()
	ratePrimed := d.Bool()
	b.powers[arm] = d.Float()
	if powerPrimed := d.Bool(); !ratePrimed || !powerPrimed {
		d.Fail("arm %d was pulled but its estimates are not primed", arm)
	}
}

// kalmanBank tracks rate and power with one scalar Kalman filter each,
// stored by value.
type kalmanBank struct {
	rates  []control.Kalman1D
	powers []control.Kalman1D
}

func (b *kalmanBank) observe(arm int, rate, power float64) (float64, float64) {
	return b.rates[arm].Observe(rate), b.powers[arm].Observe(power)
}
func (b *kalmanBank) rate(arm int) float64  { return b.rates[arm].Value() }
func (b *kalmanBank) power(arm int) float64 { return b.powers[arm].Value() }
func (b *kalmanBank) gain(arm int) float64  { return b.rates[arm].Gain() }
func (b *kalmanBank) tag() byte             { return 'K' }
func (b *kalmanBank) encodeArm(enc *ckpt.Enc, arm int) {
	b.rates[arm].EncodeState(enc)
	b.powers[arm].EncodeState(enc)
}
func (b *kalmanBank) decodeArm(d *ckpt.Dec, arm int) {
	b.rates[arm].DecodeState(d)
	b.powers[arm].DecodeState(d)
}

// newKalmanFilter primes one filter at an arm's prior. Its initial
// variance reflects low confidence in the prior; process and measurement
// noise scale with the prior's magnitude so the filter is unit-free.
func newKalmanFilter(prior float64) control.Kalman1D {
	return *control.NewKalman1D(prior, prior*prior, 1e-4*prior*prior, 0.01*prior*prior)
}
