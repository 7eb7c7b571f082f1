// Package control implements the control-theoretic machinery JouleGuard is
// built on: exponentially weighted moving-average estimators (paper Eqn 1),
// the proportional-integral speedup controller with adaptive pole placement
// (Eqns 5, 10 and 11), and Z-domain analysis tools used to verify the formal
// stability and robustness guarantees of Sec. 3.4 numerically.
package control

import (
	"fmt"
	"math"
)

// DefaultAlpha is the EWMA gain the paper selects after sweeping all
// applications and systems (Sec. 3.2): "We use alpha = .85".
const DefaultAlpha = 0.85

// EWMA is an exponentially weighted moving average of a scalar signal,
// implementing paper Eqn 1:
//
//	v(t) = (1-alpha) * v(t-1) + alpha * v(t)
//
// Note the paper's convention: alpha weighs the *new* observation, so large
// alpha tracks quickly and small alpha smooths heavily. The zero value is
// not ready for use; construct with NewEWMA.
type EWMA struct {
	alpha  float64
	value  float64
	primed bool
}

// NewEWMA returns an EWMA with the given gain. The gain must lie in (0, 1].
func NewEWMA(alpha float64) (*EWMA, error) {
	if alpha <= 0 || alpha > 1 || math.IsNaN(alpha) {
		return nil, fmt.Errorf("control: EWMA alpha %v outside (0, 1]", alpha)
	}
	return &EWMA{alpha: alpha}, nil
}

// MustEWMA is NewEWMA for statically known gains; it panics on a bad gain.
func MustEWMA(alpha float64) *EWMA {
	e, err := NewEWMA(alpha)
	if err != nil {
		panic(err)
	}
	return e
}

// Observe folds a new measurement into the average and returns the updated
// estimate. The first observation primes the filter (the paper initialises
// estimates from priors instead; see Prime).
func (e *EWMA) Observe(x float64) float64 {
	if !e.primed {
		e.value = x
		e.primed = true
		return e.value
	}
	e.value = Blend(e.alpha, e.value, x)
	return e.value
}

// Blend is one step of Eqn 1: the estimate after folding observation x
// into prev with gain alpha. It is the whole filter for callers that keep
// their estimates in flat tables (the bandit's per-arm bank) rather than
// in one EWMA per signal.
func Blend(alpha, prev, x float64) float64 { return (1-alpha)*prev + alpha*x }

// Prime seeds the filter with an a-priori estimate, as JouleGuard does with
// its linear-performance / cubic-power initialisation (Sec. 3.2). Subsequent
// observations blend into this prior rather than replacing it.
func (e *EWMA) Prime(x float64) {
	e.value = x
	e.primed = true
}

// Value returns the current estimate (the prior if nothing was observed yet).
func (e *EWMA) Value() float64 { return e.value }

// Alpha returns the filter gain.
func (e *EWMA) Alpha() float64 { return e.alpha }
