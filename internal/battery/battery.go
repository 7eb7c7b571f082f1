// Package battery models the energy store behind the paper's motivating
// mobile scenario (Sec. 1): "few mobile users want to minimize energy —
// they need guarantees that their battery will last until they return to a
// charger". The model is a capacity in joules with a rate-dependent
// discharge penalty (a Peukert-style effect: drawing harder wastes more of
// the stored charge), which is what makes an energy *budget* the right
// abstraction rather than a naive joule counter.
package battery

import (
	"fmt"
	"math"
)

// Battery is a dischargeable energy store.
type Battery struct {
	capacityJ float64 // energy extractable at the rated draw
	remaining float64
	ratedW    float64 // draw at which the capacity is rated
	peukert   float64 // exponent; 1 = ideal, >1 penalises heavy draw
	drawnJ    float64 // useful joules delivered so far
	wastedJ   float64 // extra charge lost to rate effects
}

// New builds a battery. capacityJ is the energy available at the rated
// draw ratedW; peukert >= 1 controls how strongly heavier draws waste
// charge (1 = ideal battery).
func New(capacityJ, ratedW, peukert float64) (*Battery, error) {
	if capacityJ <= 0 || math.IsNaN(capacityJ) {
		return nil, fmt.Errorf("battery: capacity %v must be positive", capacityJ)
	}
	if ratedW <= 0 {
		return nil, fmt.Errorf("battery: rated draw %v must be positive", ratedW)
	}
	if peukert < 1 || peukert > 2 {
		return nil, fmt.Errorf("battery: peukert exponent %v outside [1, 2]", peukert)
	}
	return &Battery{capacityJ: capacityJ, remaining: capacityJ, ratedW: ratedW, peukert: peukert}, nil
}

// Draw discharges the battery at `watts` for `dt` seconds and returns the
// useful energy delivered. Above the rated draw, extra charge is wasted:
// the store depletes by E * (watts/rated)^(peukert-1). Returns an error if
// the battery is already empty; a draw that crosses empty delivers the
// partial energy available.
func (b *Battery) Draw(watts, dt float64) (float64, error) {
	if watts < 0 || dt < 0 || math.IsNaN(watts) || math.IsNaN(dt) {
		return 0, fmt.Errorf("battery: invalid draw %v W for %v s", watts, dt)
	}
	if b.remaining <= 0 {
		return 0, fmt.Errorf("battery: empty")
	}
	useful := watts * dt
	factor := 1.0
	if watts > b.ratedW {
		factor = math.Pow(watts/b.ratedW, b.peukert-1)
	}
	depletion := useful * factor
	if depletion > b.remaining {
		frac := b.remaining / depletion
		useful *= frac
		depletion = b.remaining
	}
	b.remaining -= depletion
	b.drawnJ += useful
	b.wastedJ += depletion - useful
	return useful, nil
}

// StateOfCharge returns the remaining fraction in [0, 1].
func (b *Battery) StateOfCharge() float64 { return b.remaining / b.capacityJ }

// RemainingJ returns the remaining extractable energy at the rated draw.
func (b *Battery) RemainingJ() float64 { return b.remaining }

// Empty reports whether the battery is exhausted.
func (b *Battery) Empty() bool { return b.remaining <= 0 }

// BudgetFor returns a conservative energy budget for a workload that will
// draw approximately `expectedW`: the joules the battery can actually
// deliver at that draw. Handing this to JouleGuard as E makes the paper's
// "reach the charger" guarantee account for rate losses.
func (b *Battery) BudgetFor(expectedW float64) float64 {
	if expectedW <= b.ratedW {
		return b.remaining
	}
	return b.remaining / math.Pow(expectedW/b.ratedW, b.peukert-1)
}
