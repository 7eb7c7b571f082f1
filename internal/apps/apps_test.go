package apps

import (
	"math"
	"testing"
)

// TestTable2Calibration asserts every kernel reproduces its Table 2 row:
// exact configuration count, max speedup within 10%, and max accuracy loss
// within a factor of [0.3, 3] (the loss is measured from real, noisy
// computations; the calibration pins its average, not each profile draw).
func TestTable2Calibration(t *testing.T) {
	for _, spec := range Table2 {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			a, err := New(spec.Name)
			if err != nil {
				t.Fatal(err)
			}
			if a.NumConfigs() != spec.Configs {
				t.Errorf("configs = %d, want %d", a.NumConfigs(), spec.Configs)
			}
			if a.Metric() != spec.Metric {
				t.Errorf("metric = %q, want %q", a.Metric(), spec.Metric)
			}
			f, err := Frontier(a, 4)
			if err != nil {
				t.Fatal(err)
			}
			if got := f.MaxSpeedup(); math.Abs(got/spec.MaxSpeedup-1) > 0.10 {
				t.Errorf("max speedup = %.3f, want %.3f +/-10%%", got, spec.MaxSpeedup)
			}
			last := f.Points()[f.Len()-1]
			loss := 1 - last.Accuracy
			if loss < spec.MaxLoss*0.3 || loss > spec.MaxLoss*3 {
				t.Errorf("loss at max speedup = %.4f, want ~%.4f (factor 3 band)", loss, spec.MaxLoss)
			}
		})
	}
}

// TestDefaultConfigFullAccuracy: by construction, the default configuration
// reproduces the reference output exactly on every iteration.
func TestDefaultConfigFullAccuracy(t *testing.T) {
	all, err := allApps()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range all {
		for iter := 0; iter < 8; iter++ {
			_, acc := a.Step(a.DefaultConfig(), iter)
			if math.Abs(acc-1) > 1e-9 {
				t.Errorf("%s iter %d: default accuracy %v, want 1", a.Name(), iter, acc)
			}
		}
	}
}

// TestStepDeterminism: Step is a pure function of (config, iteration).
func TestStepDeterminism(t *testing.T) {
	all, err := allApps()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range all {
		cfgs := []int{0, a.DefaultConfig(), a.NumConfigs() - 1, a.NumConfigs() / 2}
		for _, cfg := range cfgs {
			for iter := 0; iter < 3; iter++ {
				w1, a1 := a.Step(cfg, iter)
				w2, a2 := a.Step(cfg, iter)
				if w1 != w2 || a1 != a2 {
					t.Errorf("%s cfg %d iter %d: non-deterministic (%v,%v) vs (%v,%v)",
						a.Name(), cfg, iter, w1, a1, w2, a2)
				}
			}
		}
	}
}

// TestStepOutputsValid: work is positive and accuracy in [0,1] for every
// benchmark across a spread of configurations and iterations.
func TestStepOutputsValid(t *testing.T) {
	all, err := allApps()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range all {
		n := a.NumConfigs()
		for _, cfg := range []int{0, n / 4, n / 2, 3 * n / 4, n - 1} {
			for iter := 0; iter < 5; iter++ {
				w, acc := a.Step(cfg, iter)
				if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
					t.Errorf("%s cfg %d: bad work %v", a.Name(), cfg, w)
				}
				if acc < 0 || acc > 1 || math.IsNaN(acc) {
					t.Errorf("%s cfg %d: bad accuracy %v", a.Name(), cfg, acc)
				}
			}
		}
	}
}

// TestStepToleratesBadInputs: out-of-range configs and negative iterations
// must not panic (the runtime may probe during exploration).
func TestStepToleratesBadInputs(t *testing.T) {
	all, err := allApps()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range all {
		for _, cfg := range []int{-1, a.NumConfigs(), a.NumConfigs() + 100} {
			w, acc := a.Step(cfg, -5)
			if w <= 0 || acc < 0 || acc > 1 {
				t.Errorf("%s: bad-input Step returned (%v, %v)", a.Name(), w, acc)
			}
		}
	}
}

// TestFrontierMonotone: along every benchmark's frontier, accuracy is
// non-increasing in speedup — the structure Eqn 6's binary search needs.
func TestFrontierMonotone(t *testing.T) {
	all, err := allApps()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range all {
		f, err := Frontier(a, 3)
		if err != nil {
			t.Fatal(err)
		}
		pts := f.Points()
		for i := 1; i < len(pts); i++ {
			if pts[i].Speedup <= pts[i-1].Speedup {
				t.Errorf("%s: frontier speedups not increasing at %d", a.Name(), i)
			}
			if pts[i].Accuracy > pts[i-1].Accuracy+1e-9 {
				t.Errorf("%s: frontier accuracy increases with speedup at %d", a.Name(), i)
			}
		}
		// The frontier must include a ~full-accuracy point.
		if pts[0].Accuracy < 0.999 {
			t.Errorf("%s: no full-accuracy frontier point (best %.4f)", a.Name(), pts[0].Accuracy)
		}
	}
}

func TestCalibrationItersScalesWithSpace(t *testing.T) {
	x264, err := New("x264")
	if err != nil {
		t.Fatal(err)
	}
	radar, err := New("radar")
	if err != nil {
		t.Fatal(err)
	}
	big := CalibrationIters(x264)    // 560 configs
	small := CalibrationIters(radar) // 26 configs
	if big >= small {
		t.Fatalf("bigger spaces should profile fewer iterations: %d vs %d", big, small)
	}
	bt, _ := New("bodytrack")
	if mid := CalibrationIters(bt); mid <= big || mid >= small {
		t.Fatalf("mid-size space iters %d not between %d and %d", mid, big, small)
	}
}

func TestCalibratedFrontierMemoised(t *testing.T) {
	a, err := New("radar")
	if err != nil {
		t.Fatal(err)
	}
	f1, err := CalibratedFrontier(a)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := CalibratedFrontier(a)
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Fatal("frontier not memoised per instance")
	}
}

func TestNewUnknown(t *testing.T) {
	if _, err := New("nope"); err == nil {
		t.Fatal("want error for unknown benchmark")
	}
}

func TestNewCaches(t *testing.T) {
	a1, err := New("radar")
	if err != nil {
		t.Fatal(err)
	}
	a2, err := New("radar")
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("registry did not cache the instance")
	}
}

func TestNames(t *testing.T) {
	n := Names()
	if len(n) != 8 || n[0] != "x264" || n[7] != "streamcluster" {
		t.Fatalf("Names: %v", n)
	}
}

func TestProfileAppValidates(t *testing.T) {
	if _, err := ProfileApp(badApp{}, 1); err == nil {
		t.Fatal("want error for zero-config app")
	}
}

type badApp struct{}

func (badApp) Name() string                     { return "bad" }
func (badApp) NumConfigs() int                  { return 0 }
func (badApp) DefaultConfig() int               { return 0 }
func (badApp) Metric() string                   { return "" }
func (badApp) Step(c, i int) (float64, float64) { return 0, 0 }

// TestNewX264WithPhases: the three-phase encoder must genuinely run faster
// in the easy middle scene (early termination in motion search).
func TestNewX264WithPhases(t *testing.T) {
	diff := func(iter int) float64 {
		if iter >= 20 && iter < 40 {
			return 0.3
		}
		return 1
	}
	a := NewX264WithPhases(diff)
	var hard, easy float64
	for i := 5; i < 15; i++ {
		w, _ := a.Step(a.DefaultConfig(), i)
		hard += w
	}
	for i := 25; i < 35; i++ {
		w, _ := a.Step(a.DefaultConfig(), i)
		easy += w
	}
	if easy >= hard {
		t.Fatalf("easy scene not faster: easy=%v hard=%v", easy, hard)
	}
	speed := hard / easy
	if speed < 1.1 || speed > 2.5 {
		t.Errorf("easy-scene speedup %v outside the plausible 1.1-2.5x band (paper: ~1.4x)", speed)
	}
}

// allApps constructs every benchmark.
func allApps() ([]App, error) {
	out := make([]App, 0, len(Table2))
	for _, s := range Table2 {
		a, err := New(s.Name)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}
