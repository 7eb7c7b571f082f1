package core

import (
	"math"
	"math/rand"
	"testing"

	"jouleguard/internal/knob"
	"jouleguard/internal/learning"
	"jouleguard/internal/sim"
)

// fakeWorld is a minimal closed-loop world for driving the runtime without
// the full simulator: nSys system configurations with rates/powers, an app
// frontier, and a perfect energy sensor.
type fakeWorld struct {
	rates   []float64 // iterations/sec at app speedup 1
	powers  []float64
	energy  float64
	iter    int
	rng     *rand.Rand
	speedup func(cfg int) float64
}

func newFakeWorld(n int) *fakeWorld {
	w := &fakeWorld{rng: rand.New(rand.NewSource(3))}
	for i := 0; i < n; i++ {
		f := float64(i+1) / float64(n)
		w.rates = append(w.rates, 10*f)
		w.powers = append(w.powers, 20+180*f*f*f)
	}
	return w
}

func (w *fakeWorld) step(gov *Runtime, frontier *knob.Frontier) sim.Feedback {
	appCfg, sysCfg := gov.Decide(w.iter)
	var sp float64 = 1
	for _, p := range frontier.Points() {
		if p.Config == appCfg {
			sp = p.Speedup
		}
	}
	rate := w.rates[sysCfg] * sp * (1 + 0.01*w.rng.NormFloat64())
	power := w.powers[sysCfg] * (1 + 0.01*w.rng.NormFloat64())
	dur := 1 / rate
	w.energy += power * dur
	w.iter++
	fb := sim.Feedback{
		Iter:           w.iter - 1,
		AppConfig:      appCfg,
		SysConfig:      sysCfg,
		Work:           1,
		Duration:       dur,
		Power:          power,
		Energy:         w.energy,
		Accuracy:       1,
		IterationsDone: w.iter,
	}
	gov.Observe(fb)
	return fb
}

func testFrontier(t *testing.T) *knob.Frontier {
	t.Helper()
	f, err := knob.NewFrontier(&knob.Profile{Points: []knob.Point{
		{Config: 0, Speedup: 1, Accuracy: 1},
		{Config: 1, Speedup: 1.5, Accuracy: 0.95},
		{Config: 2, Speedup: 2.2, Accuracy: 0.9},
		{Config: 3, Speedup: 3.5, Accuracy: 0.8},
		{Config: 4, Speedup: 5, Accuracy: 0.6},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func optimisticPriors(w *fakeWorld) learning.Priors {
	return learning.PriorsFunc(func(arm int) (float64, float64) {
		return w.rates[arm] * 1.3, w.powers[arm] * 1.1
	})
}

func TestNewValidates(t *testing.T) {
	f := testFrontier(t)
	w := newFakeWorld(4)
	pri := optimisticPriors(w)
	cases := []struct {
		name string
		fn   func() (*Runtime, error)
	}{
		{"zero workload", func() (*Runtime, error) { return New(0, 10, f, 4, pri, 3, Options{}) }},
		{"zero budget", func() (*Runtime, error) { return New(10, 0, f, 4, pri, 3, Options{}) }},
		{"nil frontier", func() (*Runtime, error) { return New(10, 10, nil, 4, pri, 3, Options{}) }},
		{"bad default", func() (*Runtime, error) { return New(10, 10, f, 4, pri, 9, Options{}) }},
		{"bad selector", func() (*Runtime, error) {
			return New(10, 10, f, 4, pri, 3, Options{Selector: "nope"})
		}},
	}
	for _, tc := range cases {
		if _, err := tc.fn(); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
}

func TestMeetsLooseGoalAtFullAccuracy(t *testing.T) {
	// A goal the system alone can meet must not cost any accuracy: the
	// controller should settle at the minimum-speedup frontier point.
	w := newFakeWorld(16)
	f := testFrontier(t)
	iters := 500
	// Budget: generous — default config energy * iters.
	budget := w.powers[15] / w.rates[15] * float64(iters)
	gov, err := New(float64(iters), budget, f, 16, optimisticPriors(w), 15, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < iters; i++ {
		w.step(gov, f)
	}
	if w.energy > budget {
		t.Fatalf("overspent: %v > %v", w.energy, budget)
	}
	appCfg, _ := gov.Decide(iters)
	if appCfg != 0 {
		t.Fatalf("loose goal cost accuracy: settled on app config %d", appCfg)
	}
	if gov.Infeasible() {
		t.Fatal("loose goal flagged infeasible")
	}
}

func TestMeetsTightGoalWithApproximation(t *testing.T) {
	// A goal needing ~2x the best system efficiency must engage the
	// frontier and still respect the budget within a few percent.
	w := newFakeWorld(16)
	f := testFrontier(t)
	iters := 800
	// Best efficiency configuration energy per iteration:
	bestEPI := math.Inf(1)
	for i := range w.rates {
		if e := w.powers[i] / w.rates[i]; e < bestEPI {
			bestEPI = e
		}
	}
	budget := bestEPI / 2 * float64(iters)
	gov, err := New(float64(iters), budget, f, 16, optimisticPriors(w), 15, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var lastApp int
	for i := 0; i < iters; i++ {
		fb := w.step(gov, f)
		lastApp = fb.AppConfig
	}
	if over := (w.energy - budget) / budget; over > 0.05 {
		t.Fatalf("overspent budget by %.1f%%", over*100)
	}
	if lastApp == 0 {
		t.Fatal("tight goal met without engaging the frontier?")
	}
	if gov.Infeasible() {
		t.Fatal("achievable goal flagged infeasible")
	}
}

func TestInfeasibleGoalReported(t *testing.T) {
	// A goal beyond max speedup x best efficiency must set the infeasible
	// flag and pin the maximum-speedup configuration (Sec. 3.4.3).
	w := newFakeWorld(8)
	f := testFrontier(t)
	iters := 300
	bestEPI := math.Inf(1)
	for i := range w.rates {
		if e := w.powers[i] / w.rates[i]; e < bestEPI {
			bestEPI = e
		}
	}
	budget := bestEPI / 20 * float64(iters) // 4x beyond max speedup 5
	gov, err := New(float64(iters), budget, f, 8, optimisticPriors(w), 7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < iters; i++ {
		w.step(gov, f)
	}
	if !gov.Infeasible() {
		t.Fatal("impossible goal not reported infeasible")
	}
	appCfg, _ := gov.Decide(iters)
	if appCfg != 4 {
		t.Fatalf("infeasible goal should pin max speedup config, got %d", appCfg)
	}
}

func TestEnergyAccountingRespondsToDeficit(t *testing.T) {
	// Force a deficit by feeding the runtime high-energy feedback early; it
	// must command more speedup than the steady-state demand afterwards.
	w := newFakeWorld(8)
	f := testFrontier(t)
	iters := 400
	bestEPI := math.Inf(1)
	for i := range w.rates {
		if e := w.powers[i] / w.rates[i]; e < bestEPI {
			bestEPI = e
		}
	}
	budget := bestEPI / 1.5 * float64(iters)
	gov, err := New(float64(iters), budget, f, 8, optimisticPriors(w), 7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Burn 30% of the budget in the first 10% of iterations.
	w.energy = budget * 0.3
	for i := 0; i < iters/2; i++ {
		w.step(gov, f)
	}
	if gov.Speedup() <= 1.5 {
		t.Fatalf("deficit did not raise the speedup demand: %v", gov.Speedup())
	}
}

func TestDoneHoldsConfiguration(t *testing.T) {
	w := newFakeWorld(4)
	f := testFrontier(t)
	gov, err := New(10, 1000, f, 4, optimisticPriors(w), 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 15; i++ {
		w.step(gov, f)
	}
	if !gov.Done() {
		t.Fatal("workload completion not detected")
	}
}

func TestSelectorsConstructible(t *testing.T) {
	w := newFakeWorld(4)
	f := testFrontier(t)
	for _, sel := range []SelectorKind{SelectVDBE, SelectFixedEps, SelectUCB} {
		gov, err := New(100, 1000, f, 4, optimisticPriors(w), 3, Options{Selector: sel, FixedEpsilon: 0.1})
		if err != nil {
			t.Fatalf("%s: %v", sel, err)
		}
		world := newFakeWorld(4)
		for i := 0; i < 50; i++ {
			world.step(gov, f)
		}
	}
}

func TestFlatPriorsOption(t *testing.T) {
	w := newFakeWorld(8)
	f := testFrontier(t)
	gov, err := New(200, 1e6, f, 8, optimisticPriors(w), 7, Options{FlatPriors: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		w.step(gov, f)
	}
	// With flat priors it must still find a reasonable configuration.
	if gov.bandit.BestArm() < 0 {
		t.Fatal("no best arm")
	}
}

func TestFixedPoleOption(t *testing.T) {
	w := newFakeWorld(4)
	f := testFrontier(t)
	gov, err := New(100, 1000, f, 4, optimisticPriors(w), 3, Options{FixedPoleSet: true, FixedPole: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		w.step(gov, f)
	}
	if gov.Pole() != 0.5 {
		t.Fatalf("fixed pole drifted: %v", gov.Pole())
	}
}

func TestZeroDurationFeedbackIgnored(t *testing.T) {
	w := newFakeWorld(4)
	f := testFrontier(t)
	gov, err := New(100, 1000, f, 4, optimisticPriors(w), 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a0, s0 := gov.Decide(0)
	gov.Observe(sim.Feedback{Duration: 0, IterationsDone: 1})
	a1, s1 := gov.Decide(1)
	if a0 != a1 || s0 != s1 {
		t.Fatal("degenerate feedback changed the decision")
	}
	_ = w
}

func TestCorruptFeedbackDoesNotPoison(t *testing.T) {
	// NaN/Inf/negative observations must change nothing: same next
	// decision, no budget movement, no learner update.
	bad := []sim.Feedback{
		{Duration: math.NaN(), Power: 10, Energy: 10, IterationsDone: 21},
		{Duration: 0.1, Power: math.Inf(1), Energy: 10, IterationsDone: 21},
		{Duration: 0.1, Power: 10, Energy: math.NaN(), IterationsDone: 21},
		{Duration: 0.1, Power: -5, Energy: 10, IterationsDone: 21},
		{Duration: 0.1, Power: 10, Energy: -1, IterationsDone: 21},
		{Duration: -0.1, Power: 10, Energy: 10, IterationsDone: 21},
		{Duration: 0.1, Power: 10, Energy: 10, Accuracy: math.NaN(), IterationsDone: 21},
	}
	// The samples go in runs shorter than the watchdog's threshold, each
	// on a fresh governor, so the watchdog (tested separately) does not
	// legitimately move the pin.
	for start := 0; start < len(bad); start += degradeAfter - 1 {
		run := bad[start:min(start+degradeAfter-1, len(bad))]
		w := newFakeWorld(4)
		f := testFrontier(t)
		gov, err := New(100, 1000, f, 4, optimisticPriors(w), 3, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			w.step(gov, f)
		}
		a0, s0 := gov.Decide(20)
		sp0 := gov.Speedup()
		for i, fb := range run {
			gov.Observe(fb)
			a, s := gov.Decide(21)
			if a != a0 || s != s0 {
				t.Fatalf("corrupt feedback %d changed the decision: (%d,%d) -> (%d,%d)", start+i, a0, s0, a, s)
			}
			if gov.Speedup() != sp0 {
				t.Fatalf("corrupt feedback %d moved the speedup demand", start+i)
			}
		}
		if gov.badStreak != len(run) {
			t.Fatalf("rejected streak after samples %d..%d: %d, want %d", start, start+len(run)-1, gov.badStreak, len(run))
		}
	}
}

func TestWatchdogDegradesAndRecovers(t *testing.T) {
	// A run of rejected observations must trip the watchdog into the
	// conservative pinned configuration; healthy feedback must release it.
	w := newFakeWorld(8)
	f := testFrontier(t)
	gov, err := New(1000, 1e6, f, 8, optimisticPriors(w), 7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		w.step(gov, f)
	}
	if gov.Degraded() {
		t.Fatal("healthy run already degraded")
	}
	for i := 0; i < degradeAfter; i++ {
		if gov.Degraded() {
			t.Fatalf("watchdog tripped after %d of %d rejected samples", i, degradeAfter)
		}
		gov.Observe(sim.Feedback{Duration: math.NaN(), IterationsDone: 31 + i})
	}
	if !gov.Degraded() {
		t.Fatal("watchdog did not trip after the configured streak")
	}
	if gov.DegradeEvents() != 1 {
		t.Fatalf("degrade events: %d", gov.DegradeEvents())
	}
	appCfg, sysCfg := gov.Decide(31 + degradeAfter)
	if appCfg != 4 {
		t.Fatalf("degraded mode should pin max speedup (most conservative), got app %d", appCfg)
	}
	if sysCfg != gov.bandit.BestArm() {
		t.Fatalf("degraded mode should pin the best known arm, got %d", sysCfg)
	}
	// One healthy sample must NOT release the pin (sticky recovery:
	// intermittent corruption would otherwise flap the degraded state), but
	// a sustained healthy streak must.
	w.step(gov, f)
	if !gov.Degraded() {
		t.Fatal("a single healthy sample released the pin; recovery must be sticky")
	}
	for i := 0; i < degradeAfter; i++ {
		w.step(gov, f)
	}
	if gov.Degraded() {
		t.Fatal("sustained healthy feedback did not release the degraded state")
	}
	if gov.badStreak != 0 {
		t.Fatal("streak survived recovery")
	}
}

func TestEstimatedFeedbackCountsTowardDegradation(t *testing.T) {
	// Model-estimated observations keep the ledger honest but must not
	// feed the learners, and a long run of them trips the watchdog just
	// like missing data (an estimate must not reinforce itself).
	w := newFakeWorld(8)
	f := testFrontier(t)
	gov, err := New(1000, 1e6, f, 8, optimisticPriors(w), 7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		w.step(gov, f)
	}
	for i := 0; i < degradeAfter; i++ {
		gov.Observe(sim.Feedback{
			Duration: 0.1, Power: 50, Energy: w.energy, Accuracy: 1,
			IterationsDone: 31 + i, Estimated: true,
		})
	}
	if !gov.Degraded() {
		t.Fatal("estimated-only feedback did not trip the watchdog")
	}
	for i := 0; i < 6; i++ {
		w.step(gov, f)
	}
	if gov.Degraded() {
		t.Fatal("sustained real feedback did not release the degraded state")
	}
}

func TestExhaustedBudgetPinsMinEnergy(t *testing.T) {
	w := newFakeWorld(8)
	f := testFrontier(t)
	gov, err := New(100, 10, f, 8, optimisticPriors(w), 7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Report energy far beyond budget.
	gov.Observe(sim.Feedback{
		Duration: 0.1, Power: 100, Energy: 50, IterationsDone: 1, SysConfig: 7, AppConfig: 0,
	})
	if !gov.Infeasible() {
		t.Fatal("blown budget not flagged")
	}
	appCfg, sysCfg := gov.Decide(1)
	if appCfg != 4 {
		t.Fatalf("blown budget should pin max speedup, got app %d", appCfg)
	}
	if sysCfg != gov.bandit.BestArm() {
		t.Fatalf("blown budget should pin best system arm, got %d", sysCfg)
	}
}
