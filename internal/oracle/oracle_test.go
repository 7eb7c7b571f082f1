package oracle

import (
	"math"
	"testing"

	"jouleguard/internal/knob"
	"jouleguard/internal/platform"
	"jouleguard/internal/workload"
)

func testFrontier(t *testing.T) *knob.Frontier {
	t.Helper()
	f, err := knob.NewFrontier(&knob.Profile{Points: []knob.Point{
		{Config: 0, Speedup: 1, Accuracy: 1},
		{Config: 1, Speedup: 2, Accuracy: 0.9},
		{Config: 2, Speedup: 4, Accuracy: 0.7},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func newOracle(t *testing.T) *Oracle {
	t.Helper()
	plat := platform.Tablet()
	prof := platform.Profiles["x264"]
	o, err := New(testFrontier(t), plat, prof, 100000)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestNewValidates(t *testing.T) {
	plat := platform.Tablet()
	prof := platform.Profiles["x264"]
	if _, err := New(nil, plat, prof, 1); err == nil {
		t.Error("want error for nil frontier")
	}
	if _, err := New(testFrontier(t), plat, prof, 0); err == nil {
		t.Error("want error for zero work")
	}
}

func TestBestAccuracyMonotoneInBudget(t *testing.T) {
	o := newOracle(t)
	def := o.defaultEPI
	prev := -1.0
	for _, f := range []float64{3, 2.5, 2, 1.5, 1.2, 1} {
		pt, ok := o.BestAccuracy(def / f)
		if !ok {
			continue
		}
		if pt.AppPoint.Accuracy < prev {
			t.Fatalf("accuracy decreased as budget loosened at f=%v", f)
		}
		prev = pt.AppPoint.Accuracy
	}
	// The full budget must allow full accuracy.
	pt, ok := o.BestAccuracy(def)
	if !ok || pt.AppPoint.Accuracy != 1 {
		t.Fatalf("full budget: %+v ok=%v", pt, ok)
	}
}

func TestBestAccuracyRespectsBudget(t *testing.T) {
	o := newOracle(t)
	budget := o.defaultEPI / 1.8
	pt, ok := o.BestAccuracy(budget)
	if !ok {
		t.Fatal("feasible budget reported infeasible")
	}
	if pt.EnergyPerIter > budget {
		t.Fatalf("oracle chose %v J/iter over budget %v", pt.EnergyPerIter, budget)
	}
}

func TestImpossibleBudget(t *testing.T) {
	o := newOracle(t)
	if _, ok := o.BestAccuracy(o.MinEnergyPerIter().EnergyPerIter / 2); ok {
		t.Fatal("impossible budget reported feasible")
	}
	if _, ok := o.BestAccuracyForFactor(o.MaxFeasibleFactor() * 1.01); ok {
		t.Fatal("beyond max feasible factor reported feasible")
	}
	if _, ok := o.BestAccuracyForFactor(-1); ok {
		t.Fatal("negative factor reported feasible")
	}
}

func TestMaxFeasibleFactorConsistent(t *testing.T) {
	o := newOracle(t)
	f := o.MaxFeasibleFactor()
	if f < 1 {
		t.Fatalf("max feasible factor %v < 1", f)
	}
	if _, ok := o.BestAccuracyForFactor(f * 0.999); !ok {
		t.Fatal("just-inside factor reported infeasible")
	}
}

func TestMinEnergyUsesMaxSpeedup(t *testing.T) {
	o := newOracle(t)
	min := o.MinEnergyPerIter()
	if min.AppPoint.Speedup != 4 {
		t.Fatalf("min energy should use the fastest app config, got speedup %v", min.AppPoint.Speedup)
	}
}

func TestPhasedAllocationBeatsUniform(t *testing.T) {
	o := newOracle(t)
	tr := workload.ThreePhaseVideo(100)
	// Budget: the uniform solution for f=1.8 over the trace's total cost.
	def := o.defaultEPI
	var uniformEnergy float64
	uniformPt, ok := o.BestAccuracy(def / 1.8)
	if !ok {
		t.Fatal("uniform infeasible")
	}
	for i := 0; i < tr.Len(); i++ {
		uniformEnergy += uniformPt.EnergyPerIter * tr.Cost(i)
	}
	plan, acc, ok := o.BestAccuracyPhased(tr, uniformEnergy)
	if !ok {
		t.Fatal("phased allocation infeasible at the uniform budget")
	}
	if len(plan) != 3 {
		t.Fatalf("plan phases: %d", len(plan))
	}
	if acc < uniformPt.AppPoint.Accuracy-1e-9 {
		t.Fatalf("phased accuracy %v below uniform %v", acc, uniformPt.AppPoint.Accuracy)
	}
	// Verify plan energy within budget.
	var total float64
	for _, pp := range plan {
		total += pp.Choice.EnergyPerIter * pp.Phase.Cost * float64(pp.Phase.Iterations)
	}
	if total > uniformEnergy*(1+1e-9) {
		t.Fatalf("plan exceeds budget: %v > %v", total, uniformEnergy)
	}
}

func TestPhasedInfeasible(t *testing.T) {
	o := newOracle(t)
	tr, err := workload.NewTrace(workload.Phase{Name: "steady", Iterations: 10, Cost: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := o.BestAccuracyPhased(tr, 1e-12); ok {
		t.Fatal("absurd budget reported feasible")
	}
}

func TestDefaultEnergyMatchesModel(t *testing.T) {
	plat := platform.Server()
	prof := platform.Profiles["swish++"]
	work := 250000.0
	o, err := New(testFrontier(t), plat, prof, work)
	if err != nil {
		t.Fatal(err)
	}
	def := plat.DefaultConfig()
	want := plat.Power(def, prof) * work / plat.Rate(def, prof)
	if math.Abs(o.defaultEPI-want) > 1e-9*want {
		t.Fatalf("default EPI %v, want %v", o.defaultEPI, want)
	}
}
