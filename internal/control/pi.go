package control

import "math"

// SpeedupController is JouleGuard's proportional-integral controller
// (Sec. 3.3). It converts the error between required and measured
// performance into an application speedup signal:
//
//	s(t) = s(t-1) + (1 - pole(t)) * error(t) / rbestsys(t)    (Eqn 5)
//
// where error(t) = rtarget(t) - r(t) and rbestsys(t) is the learner's
// current estimate of the performance of the most energy-efficient system
// configuration. The pole adapts to the learner's model error (Eqns 10-11),
// which is the mechanism that lets JouleGuard couple a learning system and a
// control system without the oscillation shown in Fig. 1.
type SpeedupController struct {
	speedup  float64 // s(t-1), the integrator state
	pole     float64 // pole(t), updated via AdaptPole
	minS     float64 // lower clamp for the speedup signal
	maxS     float64 // upper clamp for the speedup signal
	adaptive bool    // whether AdaptPole updates are applied
	lastErr  float64 // most recent error, for observability
	lastDelt float64 // most recent multiplicative model error delta(t)
	steps    int     // Steps taken that moved the integrator; not checkpointed
}

// ControllerOption configures a SpeedupController.
type ControllerOption func(*SpeedupController)

// WithSpeedupBounds clamps the control signal to [min, max]. JouleGuard
// clamps to the application's achievable speedup range: below 1 there is
// nothing to slow down for (the energy goal is exceeded with full accuracy),
// and above the frontier maximum the goal is infeasible (Sec. 3.4.3).
func WithSpeedupBounds(min, max float64) ControllerOption {
	return func(c *SpeedupController) { c.minS, c.maxS = min, max }
}

// WithFixedPole pins the pole and disables adaptation; used by the
// uncoordinated baseline (Sec. 2.3) and the pole ablation.
func WithFixedPole(pole float64) ControllerOption {
	return func(c *SpeedupController) { c.pole, c.adaptive = pole, false }
}

// WithInitialSpeedup seeds the integrator. The default of 1 means "no
// application-level approximation yet".
func WithInitialSpeedup(s float64) ControllerOption {
	return func(c *SpeedupController) { c.speedup = s }
}

// NewSpeedupController returns a controller with state s(0)=1, pole 0 (the
// deadbeat, most aggressive setting) and adaptation enabled.
func NewSpeedupController(opts ...ControllerOption) *SpeedupController {
	c := &SpeedupController{speedup: 1, minS: 1, maxS: math.Inf(1), adaptive: true}
	for _, o := range opts {
		o(c)
	}
	return c
}

// AdaptPole implements the adaptive pole placement of Sec. 3.4.2. measured
// is the performance r(t) observed this iteration and estimated is the
// learner's previous estimate for the configuration the system was actually
// in. The multiplicative model error is
//
//	delta(t) = | measured/estimated - 1 |                     (Eqn 10)
//
// and the pole is
//
//	pole(t) = 1 - 2/delta(t)   if delta(t) > 2
//	pole(t) = 0                otherwise                      (Eqn 11)
//
// guaranteeing 0 < delta < 2/(1-pole) (Eqn 9), the stability condition of
// the closed loop in Eqn 8. When the learner is wildly wrong the pole
// approaches 1 and the controller all but freezes; when the models are good
// the pole is 0 and the controller is deadbeat.
func (c *SpeedupController) AdaptPole(measured, estimated float64) {
	if !c.adaptive {
		return
	}
	if estimated <= 0 || math.IsNaN(measured) || math.IsNaN(estimated) {
		// No usable model: be maximally conservative this round.
		c.pole = 0.99
		c.lastDelt = math.Inf(1)
		return
	}
	delta := math.Abs(measured/estimated - 1)
	c.lastDelt = delta
	c.pole = PoleForDelta(delta)
}

// maxPole caps the adaptive pole strictly below 1: a pole of exactly 1 would
// freeze the controller forever, and floating-point round-off reaches 1 for
// astronomically large deltas.
const maxPole = 1 - 1e-9

// Step advances the control law one iteration. target and measured are the
// required and observed performance; rbestsys is the estimated performance
// of the chosen system configuration, which scales the integral gain (the
// plant gain in Eqn 7 is rbestsys, so dividing by it normalises the loop
// gain to 1-pole). Returns the new speedup signal, clamped to the
// configured bounds.
func (c *SpeedupController) Step(target, measured, rbestsys float64) float64 {
	if rbestsys <= 0 || math.IsNaN(rbestsys) {
		return c.speedup // cannot scale the gain; hold
	}
	err := target - measured
	c.lastErr = err
	c.steps++
	c.speedup += (1 - c.pole) * err / rbestsys
	if c.speedup < c.minS {
		c.speedup = c.minS
	}
	if c.speedup > c.maxS {
		c.speedup = c.maxS
	}
	return c.speedup
}

// Steps returns how many Steps moved the integrator: a Step that holds
// for want of a usable rbestsys does not count. A caller compares two
// readings to learn whether a step happened in between.
func (c *SpeedupController) Steps() int { return c.steps }

// Speedup returns the current control signal without advancing the loop.
func (c *SpeedupController) Speedup() float64 { return c.speedup }

// Pole returns the current pole.
func (c *SpeedupController) Pole() float64 { return c.pole }

// LastError returns error(t) from the most recent Step.
func (c *SpeedupController) LastError() float64 { return c.lastErr }

// Reset restores the integrator to the given speedup and zeroes the pole,
// as on a workload phase change forced by the caller.
func (c *SpeedupController) Reset(speedup float64) {
	c.speedup = speedup
	c.pole = 0
	c.lastErr = 0
	c.lastDelt = 0
}

// MaxTolerableDelta returns the largest multiplicative model error the loop
// tolerates at a given pole before going unstable: delta < 2/(1-pole)
// (Eqn 9). For pole = 0.1 this is about 2.2, the example in Sec. 3.4.2.
func MaxTolerableDelta(pole float64) float64 {
	if pole >= 1 {
		return math.Inf(1)
	}
	return 2 / (1 - pole)
}

// PoleForDelta inverts Eqn 11: the smallest stable pole for a measured
// model error delta, capped strictly below 1.
func PoleForDelta(delta float64) float64 {
	if delta > 2 {
		return math.Min(1-2/delta, maxPole)
	}
	return 0
}
