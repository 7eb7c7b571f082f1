package apps

import (
	"fmt"
	"sync"

	"jouleguard/internal/apps/bodytrack"
	"jouleguard/internal/apps/canneal"
	"jouleguard/internal/apps/ferret"
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

var (
	cacheMu sync.Mutex
	cache   = map[string]App{}
)

// maxStepMemo bounds each benchmark's Step memo. Full-size replicate runs
// visit well under 10^5 distinct (config, iteration) pairs per app; the
// cap only guards pathological sweeps from growing without bound (hits
// keep being served after the cap, new pairs just stop being stored).
const maxStepMemo = 1 << 21

// stepVal is one memoised Step result.
type stepVal struct{ work, acc float64 }

// stepMemo caches an application's Step results. The kernels' Step
// methods are deterministic pure functions of (config, iteration), so
// storing and replaying the exact returned float64s is observably
// identical to recomputing them — experiments repeatedly traverse the
// same pairs (every baseline walks the default configuration, trials and
// ablations revisit converged configurations), and the kernels are the
// dominant cost of a run. None of the registry benchmarks implement
// sim.PowerScaler, so the wrapper hiding extra methods loses nothing.
type stepMemo struct {
	App
	mu sync.RWMutex
	m  map[uint64]stepVal
}

func memoizeSteps(a App) App {
	return &stepMemo{App: a, m: make(map[uint64]stepVal)}
}

func (s *stepMemo) Step(cfg, iter int) (work, accuracy float64) {
	key := uint64(uint32(cfg))<<32 | uint64(uint32(iter))
	s.mu.RLock()
	v, ok := s.m[key]
	s.mu.RUnlock()
	if ok {
		return v.work, v.acc
	}
	work, accuracy = s.App.Step(cfg, iter)
	s.mu.Lock()
	if len(s.m) < maxStepMemo {
		s.m[key] = stepVal{work, accuracy}
	}
	s.mu.Unlock()
	return work, accuracy
}

// New constructs a benchmark by name. Construction includes synthetic input
// generation and two-point Table 2 calibration, so instances are cached and
// shared: the kernels' Step methods are deterministic pure functions of
// (config, iteration) and safe to share across sequential experiments.
func New(name string) (App, error) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if a, ok := cache[name]; ok {
		return a, nil
	}
	var (
		a   App
		err error
	)
	switch name {
	case "x264":
		a = x264.New(nil)
	case "swaptions":
		a = swaptions.New()
	case "bodytrack":
		a = bodytrack.New()
	case "swish++":
		a, err = search.New()
	case "radar":
		a = radar.New()
	case "canneal":
		a = canneal.New()
	case "ferret":
		a = ferret.New()
	case "streamcluster":
		a = streamcluster.New()
	default:
		return nil, fmt.Errorf("apps: unknown benchmark %q (known: %v)", name, Names())
	}
	if err != nil {
		return nil, err
	}
	a = memoizeSteps(a)
	cache[name] = a
	return a, nil
}

// NewX264WithPhases constructs a fresh x264 encoder whose scene difficulty
// follows the given function (Fig. 8's three-phase input). Not cached
// across calls, but its own Step results are memoised like the registry's.
func NewX264WithPhases(difficulty func(iter int) float64) App {
	return memoizeSteps(x264.New(difficulty))
}
