package control

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewEWMARejectsBadAlpha(t *testing.T) {
	for _, alpha := range []float64{0, -0.1, 1.0001, math.NaN()} {
		if _, err := NewEWMA(alpha); err == nil {
			t.Errorf("NewEWMA(%v): want error, got nil", alpha)
		}
	}
	if _, err := NewEWMA(1); err != nil {
		t.Errorf("NewEWMA(1): unexpected error %v", err)
	}
}

func TestMustEWMAPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustEWMA(-1) did not panic")
		}
	}()
	MustEWMA(-1)
}

func TestEWMAFirstObservationPrimes(t *testing.T) {
	e := MustEWMA(0.85)
	if e.primed {
		t.Fatal("fresh EWMA reports primed")
	}
	if got := e.Observe(42); got != 42 {
		t.Fatalf("first observation: got %v, want 42", got)
	}
	if !e.primed {
		t.Fatal("EWMA not primed after observation")
	}
}

func TestEWMAFollowsEqn1(t *testing.T) {
	// Paper Eqn 1 with alpha = 0.85: v(t) = 0.15 v(t-1) + 0.85 x(t).
	e := MustEWMA(0.85)
	e.Prime(10)
	got := e.Observe(20)
	want := 0.15*10 + 0.85*20
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Observe: got %v, want %v", got, want)
	}
}

func TestEWMAConvergesToConstantSignal(t *testing.T) {
	e := MustEWMA(0.5)
	e.Prime(0)
	for i := 0; i < 100; i++ {
		e.Observe(7)
	}
	if math.Abs(e.Value()-7) > 1e-9 {
		t.Fatalf("EWMA did not converge: %v", e.Value())
	}
}

func TestEWMAPrimeOverrides(t *testing.T) {
	e := MustEWMA(0.85)
	e.Observe(1)
	e.Prime(100)
	if e.Value() != 100 {
		t.Fatalf("Prime did not override: %v", e.Value())
	}
}

// Property: the EWMA output always lies between the min and max of the prior
// value and every observation (convex combination invariant).
func TestEWMAConvexCombinationProperty(t *testing.T) {
	f := func(prior float64, obs []float64) bool {
		if math.IsNaN(prior) || math.IsInf(prior, 0) {
			return true
		}
		e := MustEWMA(0.85)
		e.Prime(prior)
		lo, hi := prior, prior
		for _, x := range obs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			e.Observe(x)
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
			if e.Value() < lo-1e-9 || e.Value() > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: higher alpha tracks a step change faster.
func TestEWMAAlphaOrderingProperty(t *testing.T) {
	slow := MustEWMA(0.2)
	fast := MustEWMA(0.9)
	slow.Prime(0)
	fast.Prime(0)
	for i := 0; i < 10; i++ {
		slow.Observe(1)
		fast.Observe(1)
		if fast.Value() < slow.Value() {
			t.Fatalf("step %d: fast (%v) behind slow (%v)", i, fast.Value(), slow.Value())
		}
	}
}

func TestKalmanConvergesToConstant(t *testing.T) {
	f := NewKalman1D(0, 10, 1e-4, 0.5)
	for i := 0; i < 500; i++ {
		f.Observe(3)
	}
	if math.Abs(f.Value()-3) > 1e-3 {
		t.Fatalf("Kalman did not converge: %v", f.Value())
	}
	if f.Count() != 500 {
		t.Fatalf("count: %d", f.Count())
	}
}

func TestKalmanIgnoresNonFinite(t *testing.T) {
	f := NewKalman1D(1, 1, 1e-3, 1e-2)
	f.Observe(math.NaN())
	f.Observe(math.Inf(1))
	if f.Value() != 1 {
		t.Fatalf("non-finite observation moved the state: %v", f.Value())
	}
}

func TestKalmanVarianceShrinks(t *testing.T) {
	f := NewKalman1D(0, 100, 1e-6, 1)
	v0 := f.p
	for i := 0; i < 50; i++ {
		f.Observe(0)
	}
	if f.p >= v0 {
		t.Fatalf("variance did not shrink: %v -> %v", v0, f.p)
	}
}

func TestKalmanSanitisesParameters(t *testing.T) {
	f := NewKalman1D(0, -1, -1, 0)
	f.Observe(5)
	if math.IsNaN(f.Value()) {
		t.Fatal("filter produced NaN with degenerate parameters")
	}
}
