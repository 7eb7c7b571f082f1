package canneal

import (
	"math"
	"testing"
)

func TestConfigLadder(t *testing.T) {
	a := New()
	if a.NumConfigs() != 3 {
		t.Fatalf("configs: %d", a.NumConfigs())
	}
	r := rates
	if r[0] != 0 {
		t.Fatalf("default rate: %v", r[0])
	}
	if math.Abs(1/(1-r[2])-targetSpeed) > 1e-9 {
		t.Fatalf("max rate %v does not match target speedup", r[2])
	}
}

func TestAnnealImprovesPlacement(t *testing.T) {
	a := New()
	// Final wire length must beat the initial row-major placement.
	initial := func(inst int) float64 {
		pos := make([]int, cells)
		for c := range pos {
			pos[c] = c
		}
		var wl float64
		for _, m := range a.netlists[inst] {
			minX, minY := math.Inf(1), math.Inf(1)
			maxX, maxY := math.Inf(-1), math.Inf(-1)
			for _, c := range m {
				x, y := float64(pos[c]%gridW), float64(pos[c]/gridW)
				minX, maxX = math.Min(minX, x), math.Max(maxX, x)
				minY, maxY = math.Min(minY, y), math.Max(maxY, y)
			}
			wl += (maxX - minX) + (maxY - minY)
		}
		return wl
	}
	improved := 0
	for inst := 0; inst < instances; inst++ {
		wl, _ := a.anneal(inst, 0)
		if wl < initial(inst) {
			improved++
		}
	}
	if improved < instances*3/4 {
		t.Fatalf("annealing only improved %d/%d instances", improved, instances)
	}
}

func TestPerforationTradesWireLengthForWork(t *testing.T) {
	a := New()
	var wlFull, wlPerf, wFull, wPerf float64
	for inst := 0; inst < instances; inst++ {
		wl0, w0 := a.anneal(inst, 0)
		wl2, w2 := a.anneal(inst, rates[2])
		wlFull += wl0
		wlPerf += wl2
		wFull += w0
		wPerf += w2
	}
	if wPerf >= wFull {
		t.Fatalf("perforated work %v not below full %v", wPerf, wFull)
	}
	if wlPerf <= wlFull {
		t.Fatalf("perforated wire length %v not above full %v", wlPerf, wlFull)
	}
}

func TestAnnealDeterministic(t *testing.T) {
	a := New()
	wl1, w1 := a.anneal(2, 0.28)
	wl2, w2 := a.anneal(2, 0.28)
	if wl1 != wl2 || w1 != w2 {
		t.Fatal("anneal not deterministic")
	}
}

func TestSwapFixesPositions(t *testing.T) {
	slots := []int{0, 1, -1}
	pos := []int{0, 1}
	swap(slots, pos, 0, 2)
	if slots[0] != -1 || slots[2] != 0 || pos[0] != 2 {
		t.Fatalf("swap broken: slots=%v pos=%v", slots, pos)
	}
	swap(slots, pos, 1, 2)
	if slots[1] != 0 || slots[2] != 1 || pos[0] != 1 || pos[1] != 2 {
		t.Fatalf("second swap broken: slots=%v pos=%v", slots, pos)
	}
}

func TestStepUsesInstanceCycle(t *testing.T) {
	a := New()
	w1, a1 := a.Step(1, 2)
	w2, a2 := a.Step(1, 2+instances)
	if w1 != w2 || a1 != a2 {
		t.Fatal("iterations should cycle over netlist instances")
	}
}
