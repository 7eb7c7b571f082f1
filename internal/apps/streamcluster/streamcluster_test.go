package streamcluster

import (
	"math"
	"testing"
)

func TestRatesLadder(t *testing.T) {
	c := New()
	r := c.rates
	if len(r) != numConfigs || r[0] != 0 {
		t.Fatalf("rates: %v", r)
	}
	if math.Abs(1/(1-r[numConfigs-1])-targetSpeed) > 1e-9 {
		t.Fatalf("max rate %v does not match target speedup %v", r[numConfigs-1], targetSpeed)
	}
}

func TestPointsDeterministic(t *testing.T) {
	a := makePoints(3)
	b := makePoints(3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("point generation not deterministic")
		}
	}
}

func TestClusteringFindsStructure(t *testing.T) {
	c := New()
	// The refined cost must be far below the cost of a single-center
	// degenerate clustering (the grand mean).
	for inst := 0; inst < 4; inst++ {
		pts := makePoints(inst)
		var mean [dim]float64
		for _, p := range pts {
			for d := 0; d < dim; d++ {
				mean[d] += p[d]
			}
		}
		for d := 0; d < dim; d++ {
			mean[d] /= points
		}
		var degenerate float64
		for _, p := range pts {
			degenerate += math.Sqrt(dist2(p, mean))
		}
		cost, _ := c.cluster(inst, 0)
		if cost > degenerate/2 {
			t.Fatalf("inst %d: refined cost %v vs degenerate %v — no structure found", inst, cost, degenerate)
		}
	}
}

func TestPerforationWorkRatioExact(t *testing.T) {
	c := New()
	_, wFull := c.cluster(0, 0)
	_, wPerf := c.cluster(0, numConfigs-1)
	// Work is pure distance evaluations in the refinement; the ratio must
	// match the perforation speedup closely (ceil rounding aside).
	ratio := wFull / wPerf
	if math.Abs(ratio-targetSpeed) > 0.15 {
		t.Fatalf("work ratio %v, want ~%v", ratio, targetSpeed)
	}
}

func TestSubsamplingBarelyHurtsQuality(t *testing.T) {
	c := New()
	var lossSum float64
	for inst := 0; inst < instances; inst++ {
		cost, _ := c.cluster(inst, numConfigs-1)
		ref := c.refCost[inst]
		loss := cost/ref - 1
		if loss < 0 {
			loss = 0
		}
		lossSum += loss
	}
	meanLoss := lossSum / instances
	// The raw (pre-calibration) loss must be small — that is the whole
	// point of this benchmark in the paper (0.55% loss at 5.52x).
	if meanLoss > 0.2 {
		t.Fatalf("raw subsampling loss %v too large", meanLoss)
	}
}

func TestStepCyclesInstances(t *testing.T) {
	c := New()
	w1, a1 := c.Step(3, 1)
	w2, a2 := c.Step(3, 1+instances)
	if w1 != w2 || a1 != a2 {
		t.Fatal("iterations should cycle over instances")
	}
}

func TestEmptyClusterKeepsCenter(t *testing.T) {
	// Clustering must not produce NaNs even at extreme perforation where
	// some centers receive no points.
	c := New()
	for inst := 0; inst < instances; inst++ {
		cost, _ := c.cluster(inst, numConfigs-1)
		if math.IsNaN(cost) || math.IsInf(cost, 0) {
			t.Fatalf("inst %d: degenerate cost %v", inst, cost)
		}
	}
}
