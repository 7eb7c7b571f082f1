package core

import (
	"sync"
	"testing"

	"jouleguard/internal/hwapprox"
	"jouleguard/internal/learning"
	"jouleguard/internal/platform"
	"jouleguard/internal/sim"
	"jouleguard/internal/telemetry"
)

func hwSetup(t *testing.T) (*hwapprox.Unit, *platform.Platform, learning.Priors, float64) {
	t.Helper()
	unit, err := hwapprox.NewUnit(8, 0.7, 11)
	if err != nil {
		t.Fatal(err)
	}
	plat := platform.Tablet()
	prof, err := platform.ProfileFor("hwapprox")
	if err != nil {
		t.Fatal(err)
	}
	work, _, _ := unit.Compute(0, 0)
	base := plat.Priors(prof)
	priors := learning.PriorsFunc(func(arm int) (float64, float64) {
		r, p := base.Estimate(arm)
		return r / work, p
	})
	def := plat.DefaultConfig()
	defEPI := plat.Power(def, prof) * work / plat.Rate(def, prof)
	return unit, plat, priors, defEPI
}

func TestNewHardwareValidates(t *testing.T) {
	unit, plat, priors, _ := hwSetup(t)
	front := unit.MeasureFrontier(16)
	if _, err := NewHardware(0, 10, front, plat.NumConfigs(), priors, Options{}); err == nil {
		t.Error("want error for zero workload")
	}
	if _, err := NewHardware(10, 0, front, plat.NumConfigs(), priors, Options{}); err == nil {
		t.Error("want error for zero budget")
	}
	if _, err := NewHardware(10, 10, front[:1], plat.NumConfigs(), priors, Options{}); err == nil {
		t.Error("want error for degenerate frontier")
	}
}

// TestHardwareModeMeetsBudget: the Sec. 3.7 runtime must meet an energy
// goal that requires hardware approximation (beyond the best system
// configuration alone) while keeping output quality above the deepest
// overscaling level's.
func TestHardwareModeMeetsBudget(t *testing.T) {
	unit, plat, priors, defEPI := hwSetup(t)
	front := unit.MeasureFrontier(32)
	iters := 600
	// Goal: the best-efficiency configuration's energy scaled by a further
	// 10% power cut — reachable only with hardware approximation.
	prof, _ := platform.ProfileFor("hwapprox")
	work, _, _ := unit.Compute(0, 0)
	_, bestEff := plat.BestEfficiency(prof)
	bestEPI := work / bestEff
	budget := bestEPI * 0.92 * float64(iters)
	gov, err := NewHardware(float64(iters), budget, front, plat.NumConfigs(), priors, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.New(hwapprox.Approx{Unit: unit}, plat, 13)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := eng.Run(iters, gov)
	if err != nil {
		t.Fatal(err)
	}
	if over := (rec.TrueEnergy - budget) / budget; over > 0.06 {
		t.Fatalf("hardware mode overshot budget by %.1f%%", over*100)
	}
	if rec.TrueEnergy > defEPI*float64(iters) {
		t.Fatal("hardware mode spent more than the default configuration")
	}
	deepest := front[len(front)-1].Accuracy
	if acc := rec.MeanAccuracy(); acc < deepest {
		t.Fatalf("accuracy %v below the deepest level %v — no optimisation happened", acc, deepest)
	}
	if gov.Infeasible() {
		t.Fatal("achievable goal flagged infeasible")
	}
}

// TestHardwareModeLooseGoalStaysExact: a goal the SEO can meet alone must
// not engage approximation.
func TestHardwareModeLooseGoalStaysExact(t *testing.T) {
	unit, plat, priors, defEPI := hwSetup(t)
	front := unit.MeasureFrontier(32)
	iters := 400
	// Headroom above the default configuration's draw, so measurement
	// noise cannot dither the power command below 1.
	budget := defEPI * 1.15 * float64(iters)
	gov, err := NewHardware(float64(iters), budget, front, plat.NumConfigs(), priors, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.New(hwapprox.Approx{Unit: unit}, plat, 17)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := eng.Run(iters, gov)
	if err != nil {
		t.Fatal(err)
	}
	// The tail must be exact (level 0).
	for _, lvl := range rec.AppConfigs[iters-50:] {
		if lvl != 0 {
			t.Fatalf("loose goal engaged approximation level %d", lvl)
		}
	}
	if gov.Scale() < 0.99 {
		t.Fatalf("loose goal commanded scale %v", gov.Scale())
	}
}

// TestHardwareModeInfeasible: a budget below the deepest overscaling at the
// best configuration must be flagged.
func TestHardwareModeInfeasible(t *testing.T) {
	unit, plat, priors, _ := hwSetup(t)
	front := unit.MeasureFrontier(32)
	iters := 300
	prof, _ := platform.ProfileFor("hwapprox")
	work, _, _ := unit.Compute(0, 0)
	_, bestEff := plat.BestEfficiency(prof)
	budget := work / bestEff * 0.3 * float64(iters) // 0.3 << min scale 0.7
	gov, err := NewHardware(float64(iters), budget, front, plat.NumConfigs(), priors, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.New(hwapprox.Approx{Unit: unit}, plat, 19)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(iters, gov); err != nil {
		t.Fatal(err)
	}
	if !gov.Infeasible() {
		t.Fatal("impossible hardware goal not flagged")
	}
}

// TestObserveZeroAllocWithSessionSink pins the traced Observe of both
// runtimes at zero allocations with a live session sink: the record is
// built in the runtime's own Decision and lent to the sink by pointer,
// and a pointer that let it escape would cost one allocation per
// decision.
func TestObserveZeroAllocWithSessionSink(t *testing.T) {
	var owner sync.Mutex
	tel := telemetry.New(0)
	owner.Lock() // every call into a session sink is made under its owner lock
	pin := func(name string, gov sim.Governor) {
		t.Helper()
		iter, energy := 0, 0.0
		step := func() {
			app, sys := gov.Decide(iter)
			energy += 0.2
			iter++
			gov.Observe(sim.Feedback{Iter: iter - 1, AppConfig: app, SysConfig: sys, Work: 1,
				Duration: 0.01 * (1 + 0.1*float64(iter%3)), Power: 20, Energy: energy,
				Accuracy: 1, IterationsDone: iter})
		}
		for i := 0; i < 100; i++ {
			step()
		}
		if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
			t.Errorf("%s.Observe allocates %v per decision, want 0", name, allocs)
		}
	}

	w := newFakeWorld(16)
	gov, err := New(1e6, 1e9, testFrontier(t), 16, optimisticPriors(w), 15,
		Options{Telemetry: telemetry.WithSession(tel, "s-000001", 0, &owner, nil)})
	if err != nil {
		t.Fatal(err)
	}
	pin("Runtime", gov)

	unit, plat, priors, _ := hwSetup(t)
	hw, err := NewHardware(1e6, 1e9, unit.MeasureFrontier(16), plat.NumConfigs(), priors,
		Options{Telemetry: telemetry.WithSession(tel, "s-000002", 0, &owner, nil)})
	if err != nil {
		t.Fatal(err)
	}
	pin("HardwareRuntime", hw)
	owner.Unlock()
	if n := len(tel.Decisions("", 0, 0)); n == 0 {
		t.Fatal("the session sinks recorded no decisions")
	}
}
