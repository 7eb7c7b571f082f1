package learning

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// fakeSystem is a ground truth for bandit tests: arm i has rate i+1 and a
// power curve with an interior efficiency peak.
type fakeSystem struct {
	rates  []float64
	powers []float64
}

func newFakeSystem(n int) *fakeSystem {
	fs := &fakeSystem{rates: make([]float64, n), powers: make([]float64, n)}
	for i := 0; i < n; i++ {
		f := float64(i+1) / float64(n)
		fs.rates[i] = 100 * f
		fs.powers[i] = 10 + 90*f*f*f // cubic: efficiency peaks in the interior
	}
	return fs
}

func (fs *fakeSystem) trueBest() int {
	best, bestEff := 0, 0.0
	for i := range fs.rates {
		if eff := fs.rates[i] / fs.powers[i]; eff > bestEff {
			best, bestEff = i, eff
		}
	}
	return best
}

func optimisticPriors(n int) Priors {
	return PriorsFunc(func(arm int) (float64, float64) {
		f := float64(arm+1) / float64(n)
		return 120 * f, 10 + 50*f // overestimates rate, underestimates power
	})
}

// banditKinds builds a bandit under each estimator family.
var banditKinds = map[string]func(n int, priors Priors, rng *rand.Rand) (*Bandit, error){
	"ewma": func(n int, priors Priors, rng *rand.Rand) (*Bandit, error) {
		return NewBandit(n, 0.85, priors, rng)
	},
	"kalman": func(n int, priors Priors, rng *rand.Rand) (*Bandit, error) {
		t, err := Tabulate(n, priors)
		if err != nil {
			return nil, err
		}
		return t.NewKalmanBandit(rng)
	},
}

func TestNewBanditValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewBandit(0, 0.85, FlatPriors{1, 1}, rng); err == nil {
		t.Error("want error for zero arms")
	}
	if _, err := NewBandit(3, 0.85, FlatPriors{1, 1}, nil); err == nil {
		t.Error("want error for nil rng")
	}
	if _, err := NewBandit(3, 0.85, FlatPriors{0, 1}, rng); err == nil {
		t.Error("want error for non-positive prior")
	}
	if _, err := NewBandit(3, 2, FlatPriors{1, 1}, rng); err == nil {
		t.Error("want error for alpha out of range")
	}
}

func TestObserveValidatesArm(t *testing.T) {
	b, err := NewBandit(2, 0.85, FlatPriors{1, 1}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Observe(-1, 1, 1); err == nil {
		t.Error("want error for arm -1")
	}
	if _, err := b.Observe(2, 1, 1); err == nil {
		t.Error("want error for arm out of range")
	}
}

func TestBestArmTracksObservations(t *testing.T) {
	n := 16
	fs := newFakeSystem(n)
	b, err := NewBandit(n, 0.85, optimisticPriors(n), rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	// Feed the truth for every arm several times; BestArm must match the
	// true optimum (Eqn 3).
	for round := 0; round < 30; round++ {
		for i := 0; i < n; i++ {
			if _, err := b.Observe(i, fs.rates[i], fs.powers[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got, want := b.BestArm(), fs.trueBest(); got != want {
		t.Fatalf("BestArm = %d, want %d", got, want)
	}
}

func TestObserveReturnsPredictionError(t *testing.T) {
	b, _ := NewBandit(1, 1, FlatPriors{Rate: 10, Power: 10}, rand.New(rand.NewSource(4)))
	// Prior efficiency 1. Measured efficiency 3 -> error 2.
	e, err := b.Observe(0, 30, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-2) > 1e-12 {
		t.Fatalf("prediction error: got %v, want 2", e)
	}
	// Now the estimate matches (alpha=1), so the next identical observation
	// has zero error.
	e, _ = b.Observe(0, 30, 10)
	if e != 0 {
		t.Fatalf("second error: %v", e)
	}
}

func TestObserveZeroPower(t *testing.T) {
	b, _ := NewBandit(1, 0.85, FlatPriors{1, 1}, rand.New(rand.NewSource(5)))
	if _, err := b.Observe(0, 10, 0); err != nil {
		t.Fatalf("zero power observation should be tolerated: %v", err)
	}
}

func TestPullsAccounting(t *testing.T) {
	b, _ := NewBandit(3, 0.85, FlatPriors{1, 1}, rand.New(rand.NewSource(6)))
	b.Observe(0, 1, 1)
	b.Observe(0, 1, 1)
	b.Observe(2, 1, 1)
	if b.Pulls(0) != 2 || b.Pulls(1) != 0 || b.Pulls(2) != 1 {
		t.Fatalf("pulls: %d %d %d", b.Pulls(0), b.Pulls(1), b.Pulls(2))
	}
	if b.TotalPulls() != 3 {
		t.Fatalf("total pulls: %d", b.TotalPulls())
	}
}

func TestVDBEEpsilonStartsAtOneAndDecays(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	v := NewVDBE(10, 0.85, rng)
	if v.Epsilon() != 1 {
		t.Fatalf("eps(0) = %v", v.Epsilon())
	}
	// Perfect predictions: eps decays geometrically toward 0.
	for i := 0; i < 400; i++ {
		v.Update(0, 1)
	}
	if v.Epsilon() > 1e-9 {
		t.Fatalf("eps did not decay: %v", v.Epsilon())
	}
}

func TestVDBEEpsilonGrowsOnModelError(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	v := NewVDBE(10, 0.85, rng)
	v.eps = 0
	for i := 0; i < 50; i++ {
		v.Update(100, 1) // huge persistent prediction error
	}
	if v.Epsilon() < 0.5 {
		t.Fatalf("eps did not grow under model error: %v", v.Epsilon())
	}
}

func TestVDBEEpsilonBounded(t *testing.T) {
	f := func(errs []float64) bool {
		v := NewVDBE(5, 0.85, rand.New(rand.NewSource(9)))
		for _, e := range errs {
			v.Update(e, 1)
			if v.Epsilon() < 0 || v.Epsilon() > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVDBESelectExploitsWhenEpsilonZero(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	v := NewVDBE(4, 0.85, rng)
	v.eps = 0
	b, _ := NewBandit(4, 1, FlatPriors{1, 1}, rng)
	b.Observe(2, 100, 1) // make arm 2 clearly best
	for i := 0; i < 50; i++ {
		arm, explored := v.Select(b)
		if explored || arm != 2 {
			t.Fatalf("iteration %d: arm=%d explored=%v", i, arm, explored)
		}
	}
}

func TestVDBESelectExploresWhenEpsilonOne(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	v := NewVDBE(4, 0.85, rng) // eps = 1
	b, _ := NewBandit(4, 1, FlatPriors{1, 1}, rng)
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		arm, explored := v.Select(b)
		if !explored {
			t.Fatalf("iteration %d did not explore at eps=1", i)
		}
		seen[arm] = true
	}
	if len(seen) != 4 {
		t.Fatalf("exploration did not cover the arms: %v", seen)
	}
}

func TestVDBEIgnoresNonFiniteErrors(t *testing.T) {
	v := NewVDBE(4, 0.85, rand.New(rand.NewSource(12)))
	v.eps = 0.5
	v.Update(math.NaN(), 1)
	v.Update(math.Inf(1), 1)
	if v.Epsilon() != 0.5 {
		t.Fatalf("eps moved on non-finite error: %v", v.Epsilon())
	}
}

func TestFixedEpsilonPolicy(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	b, _ := NewBandit(4, 1, FlatPriors{1, 1}, rng)
	b.Observe(1, 100, 1)
	greedy := NewFixedEpsilon(0, rng)
	for i := 0; i < 20; i++ {
		if arm, explored := greedy.Select(b); explored || arm != 1 {
			t.Fatalf("eps=0 policy explored: arm=%d", arm)
		}
	}
	always := NewFixedEpsilon(1, rng)
	var explorations int
	for i := 0; i < 100; i++ {
		if _, explored := always.Select(b); explored {
			explorations++
		}
	}
	if explorations != 100 {
		t.Fatalf("eps=1 policy exploited %d times", 100-explorations)
	}
	if NewFixedEpsilon(5, rng).Eps != 1 || NewFixedEpsilon(-1, rng).Eps != 0 {
		t.Fatal("epsilon not clamped")
	}
}

func TestUCB1TriesEveryArmOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	n := 6
	fs := newFakeSystem(n)
	b, _ := NewBandit(n, 0.85, FlatPriors{1, 1}, rng)
	u := NewUCB1(0)
	for i := 0; i < n; i++ {
		arm, _ := u.Select(b)
		if arm != i {
			t.Fatalf("initial sweep: got arm %d, want %d", arm, i)
		}
		b.Observe(arm, fs.rates[arm], fs.powers[arm])
		u.Update(0, fs.rates[arm]/fs.powers[arm])
	}
}

func TestUCB1ConvergesToBestArm(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	n := 8
	fs := newFakeSystem(n)
	b, _ := NewBandit(n, 0.85, FlatPriors{1, 1}, rng)
	u := NewUCB1(0.1)
	counts := make([]int, n)
	for i := 0; i < 3000; i++ {
		arm, _ := u.Select(b)
		b.Observe(arm, fs.rates[arm], fs.powers[arm])
		u.Update(0, fs.rates[arm]/fs.powers[arm])
		if i >= 2000 {
			counts[arm]++
		}
	}
	best := fs.trueBest()
	if counts[best] < 800 {
		t.Fatalf("UCB1 pulled true best %d only %d/1000 times (counts %v)", best, counts[best], counts)
	}
}

func TestLinearCubicPriors(t *testing.T) {
	p := LinearCubicPriors{
		Shapes: []ResourceShape{
			{Cores: 1, ClockFrac: 0.5},
			{Cores: 4, ClockFrac: 1, ExtraFactor: 1.2},
			{Cores: 0, ClockFrac: -1}, // degenerate, must be sanitised
		},
		BaseRate:  10,
		BasePower: 5,
		CorePower: 20,
	}
	r, w := p.Estimate(0)
	if math.Abs(r-5) > 1e-12 || math.Abs(w-(5+20*0.125)) > 1e-12 {
		t.Fatalf("arm 0: rate=%v power=%v", r, w)
	}
	r, w = p.Estimate(1)
	if math.Abs(r-48) > 1e-12 || math.Abs(w-85) > 1e-12 {
		t.Fatalf("arm 1: rate=%v power=%v", r, w)
	}
	r, w = p.Estimate(2)
	if r <= 0 || w <= 0 {
		t.Fatalf("degenerate shape not sanitised: rate=%v power=%v", r, w)
	}
}

// Property: linear-cubic priors are monotone in cores at fixed clock — more
// resources never look slower a priori, the structural assumption Sec. 3.2
// relies on.
func TestPriorsMonotoneProperty(t *testing.T) {
	f := func(clockRaw float64, coresRaw uint8) bool {
		clock := 0.1 + math.Mod(math.Abs(clockRaw), 0.9)
		if math.IsNaN(clock) {
			return true
		}
		cores := int(coresRaw%15) + 1
		p := LinearCubicPriors{
			Shapes: []ResourceShape{
				{Cores: cores, ClockFrac: clock},
				{Cores: cores + 1, ClockFrac: clock},
			},
			BaseRate: 7, BasePower: 3, CorePower: 11,
		}
		r0, w0 := p.Estimate(0)
		r1, w1 := p.Estimate(1)
		return r1 > r0 && w1 > w0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKalmanBanditConverges(t *testing.T) {
	n := 16
	fs := newFakeSystem(n)
	b, err := banditKinds["kalman"](n, optimisticPriors(n), rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 40; round++ {
		for i := 0; i < n; i++ {
			b.Observe(i, fs.rates[i], fs.powers[i])
		}
	}
	if got, want := b.BestArm(), fs.trueBest(); got != want {
		t.Fatalf("Kalman bandit best arm %d, want %d", got, want)
	}
	// Estimates must be close to truth after many observations.
	best := fs.trueBest()
	if math.Abs(b.Rate(best)-fs.rates[best])/fs.rates[best] > 0.05 {
		t.Fatalf("Kalman rate estimate %v vs true %v", b.Rate(best), fs.rates[best])
	}
}

// TestEfficiencyEstimate pins the reward the arg-max ranks: rate/power of
// the current estimates, from the prior through convergence, and zero —
// not an infinity — while the power estimate is not positive.
func TestEfficiencyEstimate(t *testing.T) {
	for name, construct := range banditKinds {
		b, err := construct(1, FlatPriors{Rate: 100, Power: 50}, rand.New(rand.NewSource(22)))
		if err != nil {
			t.Fatal(err)
		}
		if got := b.Efficiency(0); math.Abs(got-2) > 1e-12 {
			t.Fatalf("%s: prior efficiency %v, want 2", name, got)
		}
		for i := 0; i < 400; i++ {
			b.Observe(0, 60, 30)
		}
		if got := b.Efficiency(0); math.Abs(got-2) > 1e-3 || math.Abs(b.Rate(0)-60) > 1e-2 {
			t.Fatalf("%s: converged to rate %v, efficiency %v; want 60, 2", name, b.Rate(0), got)
		}
	}
	b, _ := NewBandit(1, 1, FlatPriors{Rate: 100, Power: 1}, rand.New(rand.NewSource(22)))
	b.Observe(0, 100, 0)
	if got := b.Efficiency(0); got != 0 {
		t.Fatalf("efficiency with zero power: got %v, want 0", got)
	}
}

func TestVDBEUpdateWeightOption(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	fast := NewVDBE(1000, 0.85, rng, WithUpdateWeight(0.5))
	slow := NewVDBE(1000, 0.85, rand.New(rand.NewSource(23)))
	for i := 0; i < 10; i++ {
		fast.Update(0, 1)
		slow.Update(0, 1)
	}
	if fast.Epsilon() >= slow.Epsilon() {
		t.Fatalf("weighted VDBE should decay faster: %v vs %v", fast.Epsilon(), slow.Epsilon())
	}
	ignored := NewVDBE(10, 0.85, rng, WithUpdateWeight(-1), WithUpdateWeight(2))
	if ignored.Epsilon() != 1 {
		t.Fatal("invalid weights should be ignored")
	}
}

// Integration-style test: full VDBE + bandit loop on a noisy system finds a
// near-optimal configuration and stops exploring.
func TestVDBEBanditConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	n := 32
	fs := newFakeSystem(n)
	b, err := NewBandit(n, 0.85, optimisticPriors(n), rng)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVDBE(n, 0.85, rng)
	arm := n - 1
	for i := 0; i < 4000; i++ {
		rate := fs.rates[arm] * (1 + 0.02*rng.NormFloat64())
		power := fs.powers[arm] * (1 + 0.02*rng.NormFloat64())
		effErr, err := b.Observe(arm, rate, power)
		if err != nil {
			t.Fatal(err)
		}
		v.Update(effErr, rate/power)
		arm, _ = v.Select(b)
	}
	best := fs.trueBest()
	gotEff := fs.rates[b.BestArm()] / fs.powers[b.BestArm()]
	optEff := fs.rates[best] / fs.powers[best]
	if gotEff < 0.95*optEff {
		t.Fatalf("converged to arm %d (eff %v), optimum %d (eff %v)", b.BestArm(), gotEff, best, optEff)
	}
	if v.Epsilon() > 0.2 {
		t.Fatalf("exploration did not settle: eps=%v", v.Epsilon())
	}
}
