package control

import "math"

// Kalman1D is a scalar Kalman filter tracking a slowly varying quantity
// (e.g. an application's base computation rate) through noisy observations.
// The paper's related-work section (Sec. 6.4) points to Kalman-based
// adaptive resource provisioning [28, 29]; we include the filter both as an
// optional estimator for the SEO (ablation: EWMA vs Kalman) and as a
// building block for users who embed the runtime in noisier environments.
//
// Model:
//
//	x(t) = x(t-1) + w,   w ~ N(0, Q)   (random-walk state)
//	z(t) = x(t)   + v,   v ~ N(0, R)   (noisy measurement)
type Kalman1D struct {
	x float64 // state estimate
	p float64 // estimate variance
	q float64 // process noise variance
	r float64 // measurement noise variance
	k float64 // last Kalman gain, for observability
	n int     // observations folded in
}

// NewKalman1D returns a filter with the given initial state/variance and
// noise parameters. Q and R must be positive.
func NewKalman1D(x0, p0, q, r float64) *Kalman1D {
	if q <= 0 {
		q = 1e-9
	}
	if r <= 0 {
		r = 1e-9
	}
	if p0 <= 0 {
		p0 = 1
	}
	return &Kalman1D{x: x0, p: p0, q: q, r: r}
}

// Observe folds one measurement into the filter and returns the updated
// state estimate.
func (f *Kalman1D) Observe(z float64) float64 {
	if math.IsNaN(z) || math.IsInf(z, 0) {
		return f.x
	}
	// Predict.
	f.p += f.q
	// Update.
	f.k = f.p / (f.p + f.r)
	f.x += f.k * (z - f.x)
	f.p *= 1 - f.k
	f.n++
	return f.x
}

// Value returns the current state estimate.
func (f *Kalman1D) Value() float64 { return f.x }

// Gain returns the Kalman gain applied at the last update.
func (f *Kalman1D) Gain() float64 { return f.k }

// Count returns how many observations the filter has absorbed.
func (f *Kalman1D) Count() int { return f.n }
