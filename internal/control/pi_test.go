package control

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// plant simulates the application model A(z) = r/z of Sec. 3.4.1: the
// performance measured at iteration t reflects the speedup commanded at the
// end of iteration t-1. The test loops call step *before* updating the
// controller, so the one-step delay is realised by the call ordering.
type plant struct {
	rate float64
}

func (p *plant) step(speedup float64) float64 {
	return speedup * p.rate
}

func TestControllerConvergesWithAccurateModel(t *testing.T) {
	// With a perfect model (delta = 1) and pole 0 the loop is deadbeat:
	// it should hit the target within a couple of iterations.
	c := NewSpeedupController(WithSpeedupBounds(0, math.Inf(1)))
	p := &plant{rate: 100}
	target := 250.0
	var measured float64
	for i := 0; i < 20; i++ {
		measured = p.step(c.Speedup())
		c.AdaptPole(measured, 100*c.Speedup())
		c.Step(target, measured, 100)
	}
	if math.Abs(measured-target) > 1e-6 {
		t.Fatalf("did not converge: measured %v, target %v", measured, target)
	}
	if got, want := c.Speedup(), 2.5; math.Abs(got-want) > 1e-6 {
		t.Fatalf("speedup: got %v, want %v", got, want)
	}
}

func TestControllerConvergesDespiteModelError(t *testing.T) {
	// The learner thinks the system runs at 100 units/s but the truth is
	// delta times that. Within the Eqn 9 bound the loop must still settle.
	for _, delta := range []float64{0.5, 1, 1.5, 1.9} {
		c := NewSpeedupController(WithFixedPole(0), WithSpeedupBounds(0, math.Inf(1)))
		trueRate := 100 * delta
		p := &plant{rate: trueRate}
		target := 300.0
		var measured float64
		for i := 0; i < 200; i++ {
			measured = p.step(c.Speedup())
			c.Step(target, measured, 100) // note: controller believes rate=100
		}
		if math.Abs(measured-target) > 1e-3 {
			t.Errorf("delta=%v: measured %v, want %v", delta, measured, target)
		}
	}
}

func TestControllerDivergesBeyondRobustnessBound(t *testing.T) {
	// Outside the Eqn 9 bound (delta > 2 at pole 0) a fixed-pole loop must
	// oscillate with growing amplitude — this is the instability JouleGuard's
	// adaptive pole exists to prevent.
	c := NewSpeedupController(WithFixedPole(0), WithSpeedupBounds(math.Inf(-1), math.Inf(1)))
	delta := 2.5
	p := &plant{rate: 100 * delta}
	target := 300.0
	var maxErr float64
	for i := 0; i < 60; i++ {
		measured := p.step(c.Speedup())
		e := math.Abs(target - measured)
		if i > 10 && e > maxErr {
			maxErr = e
		}
		c.Step(target, measured, 100)
	}
	if maxErr < 1000 {
		t.Fatalf("expected divergence with delta=%v, max error only %v", delta, maxErr)
	}
}

func TestAdaptivePoleRestoresStability(t *testing.T) {
	// The learner starts with a grossly wrong model (rate estimate 100, true
	// rate 450, a 4.5x error: far outside the pole-0 stability bound). In
	// JouleGuard the adaptive pole slows the controller while the EWMA
	// estimator corrects the model (Sec. 3.4.2); together they converge
	// where a fixed-pole controller with the same wrong model diverges
	// (TestControllerDivergesBeyondRobustnessBound).
	c := NewSpeedupController(WithSpeedupBounds(0, math.Inf(1)))
	trueRate := 450.0
	est := MustEWMA(DefaultAlpha)
	est.Prime(100)
	p := &plant{rate: trueRate}
	target := 900.0
	var measured float64
	for i := 0; i < 400; i++ {
		measured = p.step(c.Speedup())
		// Normalise by the speedup commanded when this measurement was
		// produced to recover the system rate, as the runtime does.
		sysRate := measured / math.Max(c.Speedup(), 1e-9)
		c.AdaptPole(sysRate, est.Value())
		est.Observe(sysRate)
		c.Step(target, measured, est.Value())
	}
	if math.Abs(measured-target) > 1 {
		t.Fatalf("adaptive loop did not converge: measured %v, target %v", measured, target)
	}
	if math.Abs(est.Value()-trueRate) > 1 {
		t.Fatalf("estimator did not learn the rate: %v", est.Value())
	}
}

func TestAdaptPoleMatchesEqn11(t *testing.T) {
	c := NewSpeedupController()
	cases := []struct {
		measured, estimated, wantPole float64
	}{
		{100, 100, 0}, // delta = 0
		{150, 100, 0}, // delta = 0.5 <= 2
		{300, 100, 0}, // delta = 2 boundary -> 0
		{301, 100, 1 - 2/2.01},
		{500, 100, 1 - 2/4.0}, // delta = 4 -> pole 0.5
	}
	for _, tc := range cases {
		c.AdaptPole(tc.measured, tc.estimated)
		if math.Abs(c.Pole()-tc.wantPole) > 1e-9 {
			t.Errorf("AdaptPole(%v, %v): pole %v, want %v",
				tc.measured, tc.estimated, c.Pole(), tc.wantPole)
		}
	}
}

func TestAdaptPoleDegenerateEstimate(t *testing.T) {
	c := NewSpeedupController()
	c.AdaptPole(100, 0)
	if c.Pole() < 0.9 {
		t.Fatalf("degenerate estimate should force a conservative pole, got %v", c.Pole())
	}
	if !math.IsInf(c.lastDelt, 1) {
		t.Fatalf("delta: %v", c.lastDelt)
	}
}

func TestFixedPoleIgnoresAdaptation(t *testing.T) {
	c := NewSpeedupController(WithFixedPole(0.3))
	c.AdaptPole(1e9, 1)
	if c.Pole() != 0.3 {
		t.Fatalf("fixed pole moved: %v", c.Pole())
	}
}

func TestSpeedupBoundsClamp(t *testing.T) {
	c := NewSpeedupController(WithSpeedupBounds(1, 4))
	c.Step(1e9, 0, 1) // enormous positive error
	if c.Speedup() != 4 {
		t.Fatalf("upper clamp: %v", c.Speedup())
	}
	c.Step(-1e9, 1e12, 1) // enormous negative error
	if c.Speedup() != 1 {
		t.Fatalf("lower clamp: %v", c.Speedup())
	}
}

func TestStepHoldsOnDegenerateGain(t *testing.T) {
	c := NewSpeedupController(WithInitialSpeedup(2))
	if got := c.Step(10, 5, 0); got != 2 {
		t.Fatalf("Step with zero gain moved the state: %v", got)
	}
	if got := c.Step(10, 5, math.NaN()); got != 2 {
		t.Fatalf("Step with NaN gain moved the state: %v", got)
	}
	if n := c.Steps(); n != 0 {
		t.Fatalf("Steps() = %d after two held steps, want 0", n)
	}
	c.Step(10, 5, 1)
	if n := c.Steps(); n != 1 {
		t.Fatalf("Steps() = %d after one step, want 1", n)
	}
}

func TestReset(t *testing.T) {
	c := NewSpeedupController()
	c.AdaptPole(1000, 1)
	c.Step(100, 0, 10)
	c.Reset(1)
	if c.Speedup() != 1 || c.Pole() != 0 || c.LastError() != 0 {
		t.Fatalf("Reset left state: s=%v pole=%v err=%v", c.Speedup(), c.Pole(), c.LastError())
	}
}

func TestMaxTolerableDelta(t *testing.T) {
	if got := MaxTolerableDelta(0.1); math.Abs(got-2/0.9) > 1e-12 {
		t.Fatalf("MaxTolerableDelta(0.1) = %v", got) // paper's example: ~2.2
	}
	if !math.IsInf(MaxTolerableDelta(1), 1) {
		t.Fatal("MaxTolerableDelta(1) should be +Inf")
	}
}

// Property: PoleForDelta always yields a pole whose tolerance covers delta.
func TestPoleForDeltaCoversProperty(t *testing.T) {
	f := func(raw float64) bool {
		delta := math.Abs(raw)
		if math.IsNaN(delta) || math.IsInf(delta, 0) || delta == 0 {
			return true
		}
		pole := PoleForDelta(delta)
		if pole < 0 || pole >= 1 {
			return false
		}
		if delta > 1e9 {
			// Beyond the pole cap the bound is intentionally not covered;
			// only require a valid pole (checked above).
			return true
		}
		// Strictly inside the bound except exactly at delta=2.
		return delta <= MaxTolerableDelta(pole)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: for random stable configurations the closed loop converges to
// any positive target from any initial state.
func TestControllerConvergenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		rate := 1 + rng.Float64()*999
		delta := 0.2 + rng.Float64()*1.7 // inside the pole-0 bound
		target := rate * (0.5 + rng.Float64()*3)
		c := NewSpeedupController(WithFixedPole(0), WithSpeedupBounds(0, math.Inf(1)), WithInitialSpeedup(rng.Float64()*3))
		p := &plant{rate: rate * delta}
		var measured float64
		for i := 0; i < 500; i++ {
			measured = p.step(c.Speedup())
			c.Step(target, measured, rate)
		}
		if math.Abs(measured-target) > 1e-2*target {
			t.Fatalf("trial %d (rate=%v delta=%v target=%v): measured %v",
				trial, rate, delta, target, measured)
		}
	}
}
