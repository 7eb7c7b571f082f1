package learning

import (
	"jouleguard/internal/ckpt"
	"jouleguard/internal/control"
)

// bank is the filter state of a bandit's pulled arms, one record per
// slot in a flat pointer-free slice: an arm gets a slot at its first
// pull, primed at its prior, and an arm never pulled has no filter at
// all — its estimates are the PriorTable's, which every bandit built
// from the table shares. The paper's estimator is the EWMA of Eqn 1; the
// Kalman variant serves the estimator ablation (the adaptive-control
// literature the paper cites in Sec. 6.4 favours Kalman filters for
// resource provisioning). Both are reached only through this interface,
// so the bandit has one storage path whichever filter runs.
type bank interface {
	// open appends a slot holding arm's filters at its prior in t.
	open(t *PriorTable, arm int)
	// observe folds one (rate, power) measurement into a slot's filters
	// and returns the updated estimates.
	observe(slot int, rate, power float64) (estRate, estPower float64)
	rate(slot int) float64
	power(slot int) float64
	// gain is the filter gain of a slot's last update: the EWMA alpha or
	// the Kalman gain. Slot -1 is an arm not yet pulled.
	gain(slot int) float64
	// tag names the filter family in a checkpoint, so a blob written
	// under one estimator is never decoded as the other's fields.
	tag() byte
	// encodeSlot and decodeSlot carry one pulled arm's filter state
	// through a checkpoint (see Bandit.EncodeState).
	encodeSlot(enc *ckpt.Enc, slot int)
	decodeSlot(d *ckpt.Dec, slot, arm int)
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

// ewmaBank is Eqn 1 over the pulled arms: two estimates per slot and
// one gain.
type ewmaBank struct {
	alpha float64
	est   []struct{ rate, power float64 }
}

func (b *ewmaBank) open(t *PriorTable, arm int) {
	if b.est == nil {
		b.est = make([]struct{ rate, power float64 }, 0, firstSlots)
	}
	b.est = append(b.est, struct{ rate, power float64 }{t.rate[arm], t.power[arm]})
}
func (b *ewmaBank) observe(slot int, rate, power float64) (float64, float64) {
	e := &b.est[slot]
	e.rate = control.Blend(b.alpha, e.rate, rate)
	e.power = control.Blend(b.alpha, e.power, power)
	return e.rate, e.power
}
func (b *ewmaBank) rate(slot int) float64  { return b.est[slot].rate }
func (b *ewmaBank) power(slot int) float64 { return b.est[slot].power }
func (b *ewmaBank) gain(int) float64       { return b.alpha }
func (b *ewmaBank) tag() byte              { return 'E' }

// The record is that of two primed control.EWMA filters: estimate, then
// the primed flag.
func (b *ewmaBank) encodeSlot(enc *ckpt.Enc, slot int) {
	enc.Float(b.est[slot].rate)
	enc.Bool(true)
	enc.Float(b.est[slot].power)
	enc.Bool(true)
}
func (b *ewmaBank) decodeSlot(d *ckpt.Dec, slot, arm int) {
	e := &b.est[slot]
	e.rate = d.Float()
	ratePrimed := d.Bool()
	e.power = d.Float()
	if powerPrimed := d.Bool(); !ratePrimed || !powerPrimed {
		d.Fail("arm %d was pulled but its estimates are not primed", arm)
	}
}

// kalmanBank tracks rate and power with one scalar Kalman filter each,
// stored by value.
type kalmanBank struct {
	est []struct{ rate, power control.Kalman1D }
}

func (b *kalmanBank) open(t *PriorTable, arm int) {
	if b.est == nil {
		b.est = make([]struct{ rate, power control.Kalman1D }, 0, firstSlots)
	}
	b.est = append(b.est, struct{ rate, power control.Kalman1D }{t.kalmanRate[arm], t.kalmanPower[arm]})
}
func (b *kalmanBank) observe(slot int, rate, power float64) (float64, float64) {
	e := &b.est[slot]
	return e.rate.Observe(rate), e.power.Observe(power)
}
func (b *kalmanBank) rate(slot int) float64  { return b.est[slot].rate.Value() }
func (b *kalmanBank) power(slot int) float64 { return b.est[slot].power.Value() }
func (b *kalmanBank) tag() byte              { return 'K' }

// gain is zero before an arm's first update, as a fresh filter's is.
func (b *kalmanBank) gain(slot int) float64 {
	if slot < 0 {
		return 0
	}
	return b.est[slot].rate.Gain()
}
func (b *kalmanBank) encodeSlot(enc *ckpt.Enc, slot int) {
	b.est[slot].rate.EncodeState(enc)
	b.est[slot].power.EncodeState(enc)
}
func (b *kalmanBank) decodeSlot(d *ckpt.Dec, slot, _ int) {
	b.est[slot].rate.DecodeState(d)
	b.est[slot].power.DecodeState(d)
}

// newKalmanFilter primes one filter at an arm's prior. Its initial
// variance reflects low confidence in the prior; process and measurement
// noise scale with the prior's magnitude so the filter is unit-free.
func newKalmanFilter(prior float64) control.Kalman1D {
	return *control.NewKalman1D(prior, prior*prior, 1e-4*prior*prior, 0.01*prior*prior)
}
