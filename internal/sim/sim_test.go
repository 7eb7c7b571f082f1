package sim

import (
	"math"
	"strings"
	"testing"

	"jouleguard/internal/apps"
	"jouleguard/internal/platform"
	"jouleguard/internal/workload"
)

func newEngine(t *testing.T) *Engine {
	t.Helper()
	app, err := apps.New("radar")
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(app, platform.Tablet(), 7)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRunDefaultConfig(t *testing.T) {
	e := newEngine(t)
	gov := FixedGovernor{AppCfg: e.App.DefaultConfig(), SysCfg: e.Platform.DefaultConfig()}
	rec, err := e.Run(100, gov)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Iterations != 100 || len(rec.Accuracies) != 100 {
		t.Fatalf("iterations: %d", rec.Iterations)
	}
	if rec.TrueEnergy <= 0 || rec.Time <= 0 {
		t.Fatalf("energy %v time %v", rec.TrueEnergy, rec.Time)
	}
	if acc := rec.MeanAccuracy(); math.Abs(acc-1) > 1e-9 {
		t.Fatalf("default accuracy: %v", acc)
	}
	// Power must hover around the platform model's prediction.
	want := e.Platform.Power(e.Platform.DefaultConfig(), e.Profile)
	got := rec.TrueEnergy / rec.Time
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("mean power %v, model %v", got, want)
	}
}

func TestMeasuredEnergyTracksTruth(t *testing.T) {
	e := newEngine(t)
	rec, err := e.Run(200, FixedGovernor{AppCfg: 0, SysCfg: 10})
	if err != nil {
		t.Fatal(err)
	}
	// The sensor reconstruction (RAPL + fixed adder on Tablet) must be
	// within a few percent of ground truth.
	if rel := math.Abs(rec.MeasEnergy-rec.TrueEnergy) / rec.TrueEnergy; rel > 0.05 {
		t.Fatalf("measured energy off by %.1f%%", rel*100)
	}
	// And the external meter integrates the same truth exactly.
	if math.Abs(e.Meter.EnergyJ()-rec.TrueEnergy) > 1e-9*rec.TrueEnergy {
		t.Fatalf("external meter %v, truth %v", e.Meter.EnergyJ(), rec.TrueEnergy)
	}
}

func TestRunValidates(t *testing.T) {
	e := newEngine(t)
	if _, err := e.Run(0, FixedGovernor{}); err == nil {
		t.Error("want error for zero iterations")
	}
	if _, err := e.Run(10, FixedGovernor{AppCfg: -1, SysCfg: 0}); err == nil {
		t.Error("want error for bad app config")
	}
	if _, err := e.Run(10, FixedGovernor{AppCfg: 0, SysCfg: 99999}); err == nil {
		t.Error("want error for bad sys config")
	}
}

func TestDeterministicRuns(t *testing.T) {
	app, _ := apps.New("radar")
	e1, _ := New(app, platform.Tablet(), 42)
	e2, _ := New(app, platform.Tablet(), 42)
	gov := FixedGovernor{AppCfg: 3, SysCfg: 20}
	r1, err := e1.Run(50, gov)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := e2.Run(50, gov)
	if r1.TrueEnergy != r2.TrueEnergy || r1.Time != r2.Time {
		t.Fatal("same seed produced different runs")
	}
	e3, _ := New(app, platform.Tablet(), 43)
	r3, _ := e3.Run(50, gov)
	if r3.TrueEnergy == r1.TrueEnergy {
		t.Fatal("different seeds produced identical noise")
	}
}

func TestExternalTraceScalesWork(t *testing.T) {
	app, _ := apps.New("radar")
	plain, _ := New(app, platform.Tablet(), 5)
	heavy, _ := New(app, platform.Tablet(), 5)
	tr, err := workload.NewTrace(workload.Phase{Name: "hard", Iterations: 50, Cost: 2})
	if err != nil {
		t.Fatal(err)
	}
	heavy.Trace = tr
	gov := FixedGovernor{AppCfg: 0, SysCfg: 20}
	rp, _ := plain.Run(50, gov)
	rh, _ := heavy.Run(50, gov)
	ratio := rh.Time / rp.Time
	if math.Abs(ratio-2) > 0.1 {
		t.Fatalf("trace cost 2 gave time ratio %v", ratio)
	}
}

func TestRecordCSV(t *testing.T) {
	e := newEngine(t)
	rec, err := e.Run(5, FixedGovernor{AppCfg: 1, SysCfg: 3})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := rec.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("csv lines: %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "iter,energy_j") {
		t.Fatalf("header: %q", lines[0])
	}
	if !strings.HasSuffix(lines[1], ",1,3") {
		t.Fatalf("row: %q", lines[1])
	}
}

func TestDisturbHook(t *testing.T) {
	base := newEngine(t)
	plain, err := base.Run(50, FixedGovernor{AppCfg: 0, SysCfg: 20})
	if err != nil {
		t.Fatal(err)
	}
	dist := newEngine(t)
	dist.Disturb = func(iter int) (float64, float64) {
		return 0.5, 1.2 // half speed, 20% more power, every iteration
	}
	rec, err := dist.Run(50, FixedGovernor{AppCfg: 0, SysCfg: 20})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Time <= plain.Time*1.8 {
		t.Fatalf("disturbed run not slower: %v vs %v", rec.Time, plain.Time)
	}
	if rec.TrueEnergy <= plain.TrueEnergy*2 {
		t.Fatalf("disturbed run energy %v vs plain %v", rec.TrueEnergy, plain.TrueEnergy)
	}
}

func TestHeartbeatStreamMatchesRun(t *testing.T) {
	e := newEngine(t)
	rec, err := e.Run(60, FixedGovernor{AppCfg: 0, SysCfg: 20})
	if err != nil {
		t.Fatal(err)
	}
	if e.HB.Count() != 60 {
		t.Fatalf("heartbeats: %d", e.HB.Count())
	}
	// The windowed heart rate must agree with the run's tail iteration
	// rate (fixed config -> near-constant intervals).
	var tail float64
	for _, d := range rec.Durations[40:] {
		tail += d
	}
	wantRate := 20 / tail
	if got := e.HB.WindowRate(); math.Abs(got-wantRate)/wantRate > 0.02 {
		t.Fatalf("window rate %v, run tail rate %v", got, wantRate)
	}
}

func TestNewValidatesAppProfile(t *testing.T) {
	if _, err := New(unknownApp{}, platform.Tablet(), 1); err == nil {
		t.Fatal("want error for app without a profile")
	}
}

type unknownApp struct{}

func (unknownApp) Name() string                     { return "mystery" }
func (unknownApp) NumConfigs() int                  { return 1 }
func (unknownApp) DefaultConfig() int               { return 0 }
func (unknownApp) Metric() string                   { return "" }
func (unknownApp) Step(c, i int) (float64, float64) { return 1, 1 }

func TestDisturbIgnoresDegenerateMultipliers(t *testing.T) {
	// Zero, negative and non-positive multipliers must be ignored rather
	// than zeroing rates (divide-by-zero durations) or negating power.
	base := newEngine(t)
	plain, err := base.Run(40, FixedGovernor{AppCfg: 0, SysCfg: 20})
	if err != nil {
		t.Fatal(err)
	}
	dist := newEngine(t)
	dist.Disturb = func(iter int) (float64, float64) {
		switch iter % 3 {
		case 0:
			return 0, 0
		case 1:
			return -2, -0.5
		}
		return 1, 1
	}
	rec, err := dist.Run(40, FixedGovernor{AppCfg: 0, SysCfg: 20})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rec.Time-plain.Time)/plain.Time > 1e-9 {
		t.Fatalf("degenerate multipliers changed timing: %v vs %v", rec.Time, plain.Time)
	}
	if math.Abs(rec.TrueEnergy-plain.TrueEnergy)/plain.TrueEnergy > 1e-9 {
		t.Fatalf("degenerate multipliers changed energy: %v vs %v", rec.TrueEnergy, plain.TrueEnergy)
	}
	for _, d := range rec.Durations {
		if d <= 0 || math.IsInf(d, 0) || math.IsNaN(d) {
			t.Fatalf("degenerate duration %v", d)
		}
	}
}

func TestDisturbNilIsNoDisturbance(t *testing.T) {
	a, b := newEngine(t), newEngine(t)
	b.Disturb = nil
	ra, err := a.Run(30, FixedGovernor{AppCfg: 0, SysCfg: 20})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Run(30, FixedGovernor{AppCfg: 0, SysCfg: 20})
	if err != nil {
		t.Fatal(err)
	}
	if ra.TrueEnergy != rb.TrueEnergy || ra.Time != rb.Time {
		t.Fatal("nil Disturb must be identical to no hook")
	}
}
