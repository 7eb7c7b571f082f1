// Package apps defines the approximate-application abstraction JouleGuard
// manages and the registry of the paper's eight benchmarks (Table 2). Each
// benchmark is a real miniature kernel — the accuracy numbers are measured
// from actual computations, not synthesised — built with one of the two
// approximation frameworks the paper uses: PowerDial dynamic knobs
// (internal/knob) or Loop Perforation (internal/perforation).
package apps

import (
	"fmt"

	"jouleguard/internal/apps/kernel"
	"jouleguard/internal/knob"
	"jouleguard/internal/par"
)

// App is an approximate application. Configurations are dense ids in
// [0, NumConfigs()); DefaultConfig is the full-accuracy configuration the
// paper normalises against ("the default configuration ... without
// PowerDial or Loop Perforation", Sec. 4.1).
//
// Step executes one iteration (a frame, a query batch, a pricing task, ...)
// of input `iter` at configuration `cfg` and returns the abstract work
// units actually executed (the platform model converts work to time) and
// the measured accuracy of this iteration's output relative to the default
// configuration on the same input (1 = identical to default). Step must be
// a deterministic pure function of (cfg, iter), safe to call from several
// goroutines at once: calibration measures configurations in parallel, and
// the experiment drivers run their cells concurrently on shared instances.
type App interface {
	Name() string
	NumConfigs() int
	DefaultConfig() int
	Metric() string // the accuracy metric of Table 2
	Step(cfg, iter int) (work, accuracy float64)
}

// Spec records the Table 2 expectations for one benchmark; calibration
// tests assert each kernel is faithful to them.
type Spec struct {
	Name       string
	Configs    int     // total available configurations
	MaxSpeedup float64 // fastest config vs default
	MaxLoss    float64 // max accuracy loss, fraction of default (e.g. 0.062)
	Metric     string
	Framework  string // "PowerDial" or "LoopPerforation"
}

// Table2 lists the paper's application characteristics verbatim.
var Table2 = []Spec{
	{Name: "x264", Configs: 560, MaxSpeedup: 4.26, MaxLoss: 0.062, Metric: "Peak Signal to Noise Ratio (PSNR)", Framework: "PowerDial"},
	{Name: "swaptions", Configs: 100, MaxSpeedup: 100.35, MaxLoss: 0.015, Metric: "swaption price", Framework: "PowerDial"},
	{Name: "bodytrack", Configs: 200, MaxSpeedup: 7.38, MaxLoss: 0.144, Metric: "track quality", Framework: "PowerDial"},
	{Name: "swish++", Configs: 6, MaxSpeedup: 1.52, MaxLoss: 0.834, Metric: "precision and recall", Framework: "PowerDial"},
	{Name: "radar", Configs: 26, MaxSpeedup: 19.39, MaxLoss: 0.053, Metric: "signal to noise ratio", Framework: "PowerDial"},
	{Name: "canneal", Configs: 3, MaxSpeedup: 1.93, MaxLoss: 0.071, Metric: "wire length", Framework: "LoopPerforation"},
	{Name: "ferret", Configs: 8, MaxSpeedup: 1.24, MaxLoss: 0.182, Metric: "similarity", Framework: "LoopPerforation"},
	{Name: "streamcluster", Configs: 7, MaxSpeedup: 5.52, MaxLoss: 0.0055, Metric: "quality of clustering", Framework: "LoopPerforation"},
}

// ProfileApp measures every configuration of an application over calibIters
// calibration iterations and returns the resulting performance/accuracy
// profile, with speedups anchored at the default configuration. This is the
// PowerDial calibration step (and its Loop Perforation analogue) that
// JouleGuard's AAO consumes as a Pareto frontier. The configurations are
// measured in parallel, each into its own slot.
func ProfileApp(a App, calibIters int) (*knob.Profile, error) {
	if calibIters <= 0 {
		calibIters = 1
	}
	n := a.NumConfigs()
	if n <= 0 {
		return nil, fmt.Errorf("apps: %s has no configurations", a.Name())
	}
	measure := func(cfg int) (work, acc float64) {
		for it := 0; it < calibIters; it++ {
			w, ac := a.Step(cfg, it)
			work += w
			acc += ac
		}
		return work, acc / float64(calibIters)
	}
	defCfg := a.DefaultConfig()
	defWork, defAcc := measure(defCfg)
	if defWork <= 0 {
		return nil, fmt.Errorf("apps: %s default config reported no work", a.Name())
	}
	prof := &knob.Profile{Points: make([]knob.Point, n)}
	err := par.Map(n, func(cfg int) error {
		w, acc := defWork, defAcc
		if cfg != defCfg {
			w, acc = measure(cfg)
		}
		if w <= 0 {
			return fmt.Errorf("apps: %s config %d reported no work", a.Name(), cfg)
		}
		prof.Points[cfg] = knob.Point{Config: cfg, Speedup: defWork / w, Accuracy: acc}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return prof, nil
}

// Frontier profiles the application and extracts its Pareto frontier.
func Frontier(a App, calibIters int) (*knob.Frontier, error) {
	prof, err := ProfileApp(a, calibIters)
	if err != nil {
		return nil, err
	}
	return knob.NewFrontier(prof)
}

// CalibrationIters picks a profiling length for an application: enough
// iterations that per-input accuracy noise cannot promote a spurious
// high-speedup configuration onto the frontier, bounded so profiling huge
// spaces (x264's 560 configurations) stays affordable.
func CalibrationIters(a App) int {
	n := a.NumConfigs()
	switch {
	case n >= 400:
		return 4
	case n >= 100:
		return 10
	default:
		return 16
	}
}

// frontiers holds one calibrated frontier per App instance.
var frontiers kernel.OnceMap[App, *knob.Frontier]

// CalibratedFrontier returns the application's Pareto frontier profiled at
// the CalibrationIters length, memoised per App instance: profiles are
// deterministic, so one frontier serves every concurrent experiment and
// session. A caller asking for an instance another is still calibrating
// waits for that calibration; one asking for a different instance does
// not.
func CalibratedFrontier(a App) (*knob.Frontier, error) {
	return frontiers.Do(a, func() (*knob.Frontier, error) {
		return Frontier(a, CalibrationIters(a))
	})
}
