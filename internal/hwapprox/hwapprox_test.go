package hwapprox

import (
	"math"
	"testing"
)

func TestNewUnitValidates(t *testing.T) {
	if _, err := NewUnit(1, 0.7, 1); err == nil {
		t.Error("want error for one level")
	}
	if _, err := NewUnit(4, 0, 1); err == nil {
		t.Error("want error for zero power scale")
	}
	if _, err := NewUnit(4, 1, 1); err == nil {
		t.Error("want error for scale 1")
	}
}

func TestLevelLadderShape(t *testing.T) {
	u, err := NewUnit(8, 0.7, 3)
	if err != nil {
		t.Fatal(err)
	}
	lv := u.levels
	if lv[0].PowerScale != 1 || lv[0].BitErrProb != 0 {
		t.Fatalf("level 0 must be exact at full power: %+v", lv[0])
	}
	if math.Abs(lv[7].PowerScale-0.7) > 1e-12 {
		t.Fatalf("last level scale: %v", lv[7].PowerScale)
	}
	for i := 1; i < len(lv); i++ {
		if lv[i].PowerScale >= lv[i-1].PowerScale {
			t.Fatal("power scales must strictly decrease")
		}
		if lv[i].BitErrProb < lv[i-1].BitErrProb {
			t.Fatal("bit-error probability must not decrease as power drops")
		}
	}
}

func TestExactLevelIsExact(t *testing.T) {
	u, _ := NewUnit(6, 0.7, 4)
	for it := 0; it < 20; it++ {
		_, q, ps := u.Compute(0, it)
		if q != 1 || ps != 1 {
			t.Fatalf("level 0: quality %v, scale %v", q, ps)
		}
	}
}

func TestDeterministicCompute(t *testing.T) {
	u, _ := NewUnit(6, 0.7, 5)
	w1, q1, _ := u.Compute(4, 9)
	w2, q2, _ := u.Compute(4, 9)
	if w1 != w2 || q1 != q2 {
		t.Fatal("compute not deterministic")
	}
}

func TestQualityDegradesWithOverscaling(t *testing.T) {
	u, _ := NewUnit(8, 0.7, 6)
	front := u.MeasureFrontier(64)
	if len(front) != 8 {
		t.Fatalf("frontier size: %d", len(front))
	}
	if front[0].Accuracy != 1 {
		t.Fatalf("exact level accuracy: %v", front[0].Accuracy)
	}
	last := front[len(front)-1]
	if last.Accuracy >= 0.999 {
		t.Fatalf("deepest overscaling shows no degradation: %v", last.Accuracy)
	}
	// Broadly monotone: each level at most marginally better than the
	// previous (individual noise allowed).
	for i := 1; i < len(front); i++ {
		if front[i].Accuracy > front[i-1].Accuracy+0.02 {
			t.Fatalf("accuracy rose sharply with overscaling at level %d: %v > %v",
				i, front[i].Accuracy, front[i-1].Accuracy)
		}
	}
}

func TestComputeBadInputs(t *testing.T) {
	u, _ := NewUnit(4, 0.7, 7)
	w, q, ps := u.Compute(-1, -3)
	if w <= 0 || q <= 0 || q > 1 || ps != 1 {
		t.Fatalf("bad-input compute: w=%v q=%v ps=%v", w, q, ps)
	}
	if u.PowerScale(99) != 1 {
		t.Fatal("out-of-range level must report scale 1")
	}
}

func TestApproxAdapter(t *testing.T) {
	u, _ := NewUnit(5, 0.75, 8)
	a := Approx{u}
	if a.Name() != "hwapprox" || a.NumConfigs() != 5 || a.DefaultConfig() != 0 {
		t.Fatal("adapter surface wrong")
	}
	w, acc := a.Step(2, 3)
	if w <= 0 || acc <= 0 || acc > 1 {
		t.Fatalf("adapter step: %v %v", w, acc)
	}
	if a.PowerScale(4) >= a.PowerScale(1) {
		t.Fatal("power scale ordering wrong")
	}
}
