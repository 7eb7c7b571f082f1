package knob

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewSpaceValidates(t *testing.T) {
	if _, err := NewSpace(); err == nil {
		t.Error("want error for no knobs")
	}
	if _, err := NewSpace(Knob{Name: "k", Values: nil}); err == nil {
		t.Error("want error for empty knob")
	}
}

func TestSpaceSizeAndDecode(t *testing.T) {
	s, err := NewSpace(
		Knob{Name: "a", Values: []float64{1, 2, 3}},
		Knob{Name: "b", Values: []float64{10, 20}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 6 {
		t.Fatalf("size: %d", s.Size())
	}
	seen := map[[2]float64]bool{}
	for id := 0; id < s.Size(); id++ {
		vals, err := s.Settings(id)
		if err != nil {
			t.Fatal(err)
		}
		seen[[2]float64{vals[0], vals[1]}] = true
	}
	if len(seen) != 6 {
		t.Fatalf("settings not unique: %d distinct", len(seen))
	}
	if _, err := s.Settings(-1); err == nil {
		t.Error("want error for negative id")
	}
	if _, err := s.Settings(6); err == nil {
		t.Error("want error for id out of range")
	}
}

func TestSpaceIndexRoundTrip(t *testing.T) {
	s, _ := NewSpace(
		Knob{Name: "a", Values: []float64{0, 1, 2, 3}},
		Knob{Name: "b", Values: []float64{0, 1, 2}},
		Knob{Name: "c", Values: []float64{0, 1}},
	)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 2; k++ {
				id, err := s.Index([]int{i, j, k})
				if err != nil {
					t.Fatal(err)
				}
				vals, _ := s.Settings(id)
				if vals[0] != float64(i) || vals[1] != float64(j) || vals[2] != float64(k) {
					t.Fatalf("round trip (%d,%d,%d) -> id %d -> %v", i, j, k, id, vals)
				}
			}
		}
	}
	if _, err := s.Index([]int{0}); err == nil {
		t.Error("want error for wrong arity")
	}
	if _, err := s.Index([]int{9, 0, 0}); err == nil {
		t.Error("want error for out-of-range value index")
	}
}

func TestFrontierExtraction(t *testing.T) {
	prof := &Profile{Points: []Point{
		{Config: 0, Speedup: 1.0, Accuracy: 1.0},
		{Config: 1, Speedup: 2.0, Accuracy: 0.9},
		{Config: 2, Speedup: 1.5, Accuracy: 0.8}, // dominated by config 1
		{Config: 3, Speedup: 4.0, Accuracy: 0.7},
		{Config: 4, Speedup: 0.8, Accuracy: 0.95}, // dominated by config 0
	}}
	f, err := NewFrontier(prof)
	if err != nil {
		t.Fatal(err)
	}
	pts := f.Points()
	if len(pts) != 3 {
		t.Fatalf("frontier size: %d (%v)", len(pts), pts)
	}
	wantCfg := []int{0, 1, 3}
	for i, w := range wantCfg {
		if pts[i].Config != w {
			t.Fatalf("frontier[%d].Config = %d, want %d", i, pts[i].Config, w)
		}
	}
	if f.MaxSpeedup() != 4 || f.MinSpeedup() != 1 {
		t.Fatalf("speedup range: [%v, %v]", f.MinSpeedup(), f.MaxSpeedup())
	}
}

func TestFrontierEmptyProfile(t *testing.T) {
	if _, err := NewFrontier(nil); err == nil {
		t.Error("want error for nil profile")
	}
	if _, err := NewFrontier(&Profile{}); err == nil {
		t.Error("want error for empty profile")
	}
}

func TestForSpeedupEqn6(t *testing.T) {
	f, _ := NewFrontier(&Profile{Points: []Point{
		{Config: 0, Speedup: 1, Accuracy: 1},
		{Config: 1, Speedup: 2, Accuracy: 0.9},
		{Config: 2, Speedup: 4, Accuracy: 0.5},
	}})
	cases := []struct {
		s       float64
		wantCfg int
		wantOK  bool
	}{
		{0.5, 0, true}, // below min: full accuracy config
		{1, 0, true},
		{1.5, 1, true},
		{2, 1, true},
		{3.9, 2, true},
		{4, 2, true},
		{4.1, 2, false}, // infeasible: fastest config, flagged
	}
	for _, tc := range cases {
		pt, ok := f.ForSpeedup(tc.s)
		if pt.Config != tc.wantCfg || ok != tc.wantOK {
			t.Errorf("ForSpeedup(%v) = cfg %d ok %v, want cfg %d ok %v",
				tc.s, pt.Config, ok, tc.wantCfg, tc.wantOK)
		}
	}
}

// dominates reports whether point a Pareto-dominates point b.
func dominates(a, b Point) bool {
	if a.Speedup >= b.Speedup && a.Accuracy >= b.Accuracy {
		return a.Speedup > b.Speedup || a.Accuracy > b.Accuracy
	}
	return false
}

// Property: no frontier point dominates another, every profiled point is
// dominated-or-equalled by some frontier point, and ForSpeedup returns the
// max-accuracy point among those meeting the demand.
func TestFrontierProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(n uint8) bool {
		count := int(n%40) + 1
		prof := &Profile{}
		for i := 0; i < count; i++ {
			prof.Points = append(prof.Points, Point{
				Config:   i,
				Speedup:  0.5 + rng.Float64()*9.5,
				Accuracy: rng.Float64(),
			})
		}
		fr, err := NewFrontier(prof)
		if err != nil {
			return false
		}
		pts := fr.Points()
		for i := range pts {
			for j := range pts {
				if i != j && dominates(pts[i], pts[j]) {
					return false
				}
			}
		}
		for _, p := range prof.Points {
			covered := false
			for _, fp := range pts {
				if fp.Speedup >= p.Speedup && fp.Accuracy >= p.Accuracy {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
		// Spot-check Eqn 6 against a linear scan.
		for trial := 0; trial < 5; trial++ {
			s := rng.Float64() * 11
			got, ok := fr.ForSpeedup(s)
			bestAcc := -1.0
			for _, p := range prof.Points {
				if p.Speedup >= s && p.Accuracy > bestAcc {
					bestAcc = p.Accuracy
				}
			}
			if bestAcc < 0 {
				if ok {
					return false
				}
			} else if !ok || math.Abs(got.Accuracy-bestAcc) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
