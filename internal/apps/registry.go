package apps

import (
	"fmt"

	"jouleguard/internal/apps/bodytrack"
	"jouleguard/internal/apps/canneal"
	"jouleguard/internal/apps/ferret"
	"jouleguard/internal/apps/kernel"
	"jouleguard/internal/apps/radar"
	"jouleguard/internal/apps/search"
	"jouleguard/internal/apps/streamcluster"
	"jouleguard/internal/apps/swaptions"
	"jouleguard/internal/apps/x264"
)

// Names lists the benchmarks in Table 2 order.
func Names() []string {
	out := make([]string, len(Table2))
	for i, s := range Table2 {
		out[i] = s.Name
	}
	return out
}

// registry holds one instance per benchmark name.
var registry kernel.OnceMap[string, App]

// maxStepMemo bounds each benchmark's Step memo. Full-size replicate runs
// visit well under 10^5 distinct (config, iteration) keys per app; the
// cap only guards pathological sweeps from growing without bound (stored
// keys keep being served after the cap, new keys just stop being stored).
const maxStepMemo = 1 << 21

// stepVal is one memoised Step result.
type stepVal struct{ work, acc float64 }

// periodic is implemented by a kernel whose Step(cfg, iter) depends on an
// iteration iter >= 0 only through iter mod Period(): the kernels that
// cycle through a fixed pool of inputs.
type periodic interface{ Period() int }

// stepMemo caches an application's Step results. The kernels' Step
// methods are deterministic pure functions of (config, iteration), so
// storing and replaying the exact returned float64s is observably
// identical to recomputing them — experiments repeatedly traverse the
// same pairs (every baseline walks the default configuration, trials and
// ablations revisit converged configurations), and the kernels are the
// dominant cost of a run. A periodic kernel's iterations are keyed by
// their residue, so each of its inputs is computed once per configuration
// however long the run; negative iterations keep their own keys, since
// the kernels map them differently (some negate, some wrap). Concurrent
// callers of one key wait for a single computation. None of the registry
// benchmarks implement sim.PowerScaler, so the wrapper hiding extra
// methods loses nothing.
type stepMemo struct {
	App
	period int                             // 0: Step depends on the whole iteration
	m      kernel.OnceMap[[2]int, stepVal] // keyed by (cfg, iter or its residue)
}

func memoizeSteps(a App) App {
	s := &stepMemo{App: a}
	if p, ok := a.(periodic); ok {
		s.period = p.Period()
	}
	s.m.Max = maxStepMemo
	return s
}

func (s *stepMemo) Step(cfg, iter int) (work, accuracy float64) {
	if s.period > 0 && iter >= 0 {
		iter %= s.period
	}
	v := s.m.Get([2]int{cfg, iter}, func() stepVal {
		w, acc := s.App.Step(cfg, iter)
		return stepVal{w, acc}
	})
	return v.work, v.acc
}

// New constructs a benchmark by name. Construction includes synthetic input
// generation and two-point Table 2 calibration, so each benchmark is built
// once per process and shared: its Step is a deterministic pure function
// of (config, iteration), safe for the concurrent callers of the parallel
// experiment drivers and of calibration. A caller asking for a benchmark
// another is still constructing waits for that construction; one asking
// for a different benchmark does not.
func New(name string) (App, error) {
	build, ok := constructors[name]
	if !ok {
		return nil, fmt.Errorf("apps: unknown benchmark %q (known: %v)", name, Names())
	}
	return registry.Do(name, func() (App, error) {
		a, err := build()
		if err != nil {
			return nil, err
		}
		return memoizeSteps(a), nil
	})
}

// constructors builds each benchmark by name.
var constructors = map[string]func() (App, error){
	"x264":      func() (App, error) { return x264.New(nil), nil },
	"swaptions": func() (App, error) { return swaptions.New(), nil },
	"bodytrack": func() (App, error) { return bodytrack.New(), nil },
	"swish++": func() (App, error) {
		e, err := search.New()
		if err != nil {
			return nil, err
		}
		return e, nil
	},
	"radar":         func() (App, error) { return radar.New(), nil },
	"canneal":       func() (App, error) { return canneal.New(), nil },
	"ferret":        func() (App, error) { return ferret.New(), nil },
	"streamcluster": func() (App, error) { return streamcluster.New(), nil },
}

// NewX264WithPhases constructs a fresh x264 encoder whose scene difficulty
// follows the given function (Fig. 8's three-phase input). Not cached
// across calls, but its own Step results are memoised like the registry's.
func NewX264WithPhases(difficulty func(iter int) float64) App {
	return memoizeSteps(x264.New(difficulty))
}
