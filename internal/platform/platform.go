// Package platform simulates the three hardware platforms of the paper's
// evaluation (Sec. 4.2, Table 3): Mobile (an ODROID-XU3-like big.LITTLE
// SoC), Tablet (an i5-4210Y-like dual-core with firmware-collapsed
// P-states) and Server (a dual-socket Xeon with 16 cores, 16 speeds,
// hyperthreading and two memory controllers).
//
// A platform is a finite set of configurations, each assigning cores of one
// cluster at one clock speed, plus optional hyperthreading and memory-
// controller allocation. For an application characterised by an AppProfile
// (parallel fraction, memory-boundness, hyperthreading gain), the platform
// yields a computation rate (work units/second, via an Amdahl x DVFS x
// roofline speed model) and a full-system power draw (idle + per-core
// static + cubic-in-frequency dynamic power).
//
// Configuration indices follow the paper's Fig. 3 convention: the highest
// index is the default configuration (all resources at their highest
// setting) and the lowest is a single slow core.
package platform

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"jouleguard/internal/learning"
)

// AppProfile characterises how an application exercises hardware. The
// profile is what makes energy-efficiency landscapes application-specific
// (paper Sec. 4.3: every app has its own efficiency peak on Server).
type AppProfile struct {
	Name          string
	ParallelFrac  float64 // Amdahl parallel fraction, in [0, 1)
	MemFrac       float64 // fraction of time bound on memory at max clock
	HTGain        float64 // throughput multiplier from hyperthreading (>= 1)
	UnitsPerSpeed float64 // app work units per second per unit of model speed
}

// CoreType describes one cluster of identical cores.
type CoreType struct {
	Name     string
	IPC      float64   // relative instructions/cycle (LITTLE A7 = 1.0)
	Freqs    []float64 // available clock speeds in GHz, ascending
	MaxCores int
	StaticW  float64 // per active core, leakage + base
	DynW     float64 // per core at max listed frequency, full utilisation
}

// Config is one platform configuration.
type Config struct {
	Cluster  int // index into the platform's core types
	Cores    int // 1..MaxCores
	FreqIdx  int // index into the cluster's Freqs
	HT       bool
	MemCtrls int // 1 or 2 (1 when the platform has no controller knob)
}

// ResourceRow is one row of Table 3: a resource and its setting count.
type ResourceRow struct {
	Resource string
	Settings int
}

// Platform is a simulated machine.
type Platform struct {
	Name      string
	CoreTypes []CoreType
	IdleW     float64 // full-system idle power (board, DRAM, disk, ...)
	HTPowerup float64 // power multiplier when hyperthreading is enabled
	MemCtrlW  float64 // extra watts for the second memory controller
	MemSpeed  float64 // roofline memory speed in GHz-equivalents
	UncoreW   float64 // per-socket uncore power while any core is active
	DynExp    float64 // frequency exponent of dynamic power (3 = classic
	// f*V^2 scaling; low-voltage parts whose voltage barely scales sit
	// nearer 1.5, which is what makes race-to-idle win on Tablet)
	hasHT      bool
	hasMemCtrl bool
	configs    []Config
	rows       []ResourceRow

	// Memoized speed/power models. Rate and Power are pure functions of
	// (configuration index, profile), but they sit on the per-iteration hot
	// path of the simulator, the oracle's exhaustive profiling and the
	// baselines' brute-force sweeps — so each (platform, profile) pair is
	// evaluated once into a dense lookup table on first use. AppProfile is a
	// comparable value type, which makes it directly usable as the map key.
	memoMu sync.RWMutex
	memo   map[AppProfile]*modelTable
}

// modelTable holds the fully evaluated speed/power model for one profile,
// and the prior tables governors over that profile start from.
type modelTable struct {
	rate  []float64
	power []float64

	priorsMu sync.Mutex
	priors   map[float64]learning.Priors // by work units per iteration
}

// table returns the memoized model for prof, computing it on first use. The
// tables hold exactly the values rateDirect/powerDirect produce, so lookups
// are bit-identical to direct evaluation.
func (p *Platform) table(prof AppProfile) *modelTable {
	p.memoMu.RLock()
	t := p.memo[prof]
	p.memoMu.RUnlock()
	if t != nil {
		return t
	}
	p.memoMu.Lock()
	defer p.memoMu.Unlock()
	if t = p.memo[prof]; t != nil {
		return t
	}
	t = &modelTable{
		rate:  make([]float64, len(p.configs)),
		power: make([]float64, len(p.configs)),
	}
	for i := range p.configs {
		t.rate[i] = p.rateDirect(i, prof)
		t.power[i] = p.powerDirect(i, prof)
	}
	if p.memo == nil {
		p.memo = make(map[AppProfile]*modelTable)
	}
	p.memo[prof] = t
	return t
}

// NumConfigs returns the size of the configuration space.
func (p *Platform) NumConfigs() int { return len(p.configs) }

// Configs returns a copy of the configuration list in index order. The copy
// makes the result safe to mutate; hot paths iterating the space should use
// ConfigAt instead of calling this per loop.
func (p *Platform) Configs() []Config { return append([]Config(nil), p.configs...) }

// Config returns the configuration at a dense index.
func (p *Platform) Config(i int) (Config, error) {
	if i < 0 || i >= len(p.configs) {
		return Config{}, fmt.Errorf("platform %s: config %d out of range [0,%d)", p.Name, i, len(p.configs))
	}
	return p.configs[i], nil
}

// ConfigAt is the allocation-free accessor for hot loops over the
// configuration space: it returns the configuration at a dense index and,
// like a slice access, panics when i is out of [0, NumConfigs()).
func (p *Platform) ConfigAt(i int) Config { return p.configs[i] }

// DefaultConfig is the highest index: all resources at their maximum — how
// the paper runs each application "out of the box".
func (p *Platform) DefaultConfig() int { return len(p.configs) - 1 }

// Table3 returns the platform's resource rows (for the Table 3 generator).
func (p *Platform) Table3() []ResourceRow { return append([]ResourceRow(nil), p.rows...) }

// singleCoreSpeed is the roofline single-thread speed: compute time scales
// with 1/(IPC*f), memory time is clock-independent.
func (p *Platform) singleCoreSpeed(ct CoreType, f float64, prof AppProfile) float64 {
	compute := (1 - prof.MemFrac) / (ct.IPC * f)
	memory := prof.MemFrac / p.MemSpeed
	return 1 / (compute + memory)
}

// Rate returns the application's computation rate (work units per second)
// in configuration i, from the memoized model table.
func (p *Platform) Rate(i int, prof AppProfile) float64 {
	return p.table(prof).rate[i]
}

// rateDirect evaluates the speed model from scratch (table construction and
// the memoization benchmarks).
func (p *Platform) rateDirect(i int, prof AppProfile) float64 {
	c := p.configs[i]
	ct := p.CoreTypes[c.Cluster]
	f := ct.Freqs[c.FreqIdx]
	s1 := p.singleCoreSpeed(ct, f, prof)
	capacity := float64(c.Cores)
	if c.HT {
		gain := prof.HTGain
		if gain < 1 {
			gain = 1
		}
		capacity *= gain
	}
	if c.MemCtrls > 1 {
		// A second memory controller relieves the memory roofline; the
		// most memory-bound applications gain the most (Table 3: up to
		// 1.84x on Server).
		capacity *= 1 + 1.9*prof.MemFrac
	}
	phi := prof.ParallelFrac
	speed := s1 / ((1 - phi) + phi/capacity)
	return speed * prof.UnitsPerSpeed
}

// Power returns the full-system power draw (watts) while the application
// runs in configuration i: platform idle + uncore + per-core static +
// cubic-in-frequency dynamic power, with hyperthreading and memory-
// controller powerups. Memory-bound applications stall cores and draw
// proportionally less dynamic power. Served from the memoized model table.
func (p *Platform) Power(i int, prof AppProfile) float64 {
	return p.table(prof).power[i]
}

// powerDirect evaluates the power model from scratch.
func (p *Platform) powerDirect(i int, prof AppProfile) float64 {
	c := p.configs[i]
	ct := p.CoreTypes[c.Cluster]
	fMax := ct.Freqs[len(ct.Freqs)-1]
	fRel := ct.Freqs[c.FreqIdx] / fMax
	util := 1 - 0.45*prof.MemFrac
	exp := p.DynExp
	if exp <= 0 {
		exp = 3
	}
	dyn := ct.DynW * math.Pow(fRel, exp) * util
	perCore := ct.StaticW + dyn
	power := p.IdleW + p.UncoreW + float64(c.Cores)*perCore
	if c.HT {
		power *= p.HTPowerup
	}
	if c.MemCtrls > 1 {
		power += p.MemCtrlW
	}
	return power
}

// Efficiency returns rate/power for configuration i — the paper's
// energy-efficiency metric (Sec. 4.3).
func (p *Platform) Efficiency(i int, prof AppProfile) float64 {
	t := p.table(prof)
	return t.rate[i] / t.power[i]
}

// BestEfficiency sweeps the whole space and returns the most efficient
// configuration index and its efficiency (the brute-force search of
// Sec. 2.1).
func (p *Platform) BestEfficiency(prof AppProfile) (int, float64) {
	t := p.table(prof)
	best, bestEff := 0, math.Inf(-1)
	for i := range t.rate {
		if e := t.rate[i] / t.power[i]; e > bestEff {
			best, bestEff = i, e
		}
	}
	return best, bestEff
}

// PriorShapes exposes every configuration in the normalised terms
// JouleGuard's optimistic prior initialisation needs (Sec. 3.2): linear in
// cores and clock for performance, with constant bonus factors for
// hyperthreading and memory controllers.
func (p *Platform) PriorShapes() []learning.ResourceShape {
	shapes := make([]learning.ResourceShape, len(p.configs))
	// Normalise clock by the fastest core-type peak "capability".
	var maxCap float64
	for _, ct := range p.CoreTypes {
		if c := ct.IPC * ct.Freqs[len(ct.Freqs)-1]; c > maxCap {
			maxCap = c
		}
	}
	for i, c := range p.configs {
		ct := p.CoreTypes[c.Cluster]
		// Optimistic bonus factors for the extra resources — "an
		// overestimate for all applications, but not a gross overestimate"
		// (Sec. 3.2). Grossly inflated priors would force the greedy
		// exploitation loop to deflate hundreds of arms before its best-arm
		// estimate means anything.
		extra := 1.0
		if c.HT {
			extra *= 1.35
		}
		if c.MemCtrls > 1 {
			extra *= 1.45
		}
		shapes[i] = learning.ResourceShape{
			Cores:       c.Cores,
			ClockFrac:   ct.IPC * ct.Freqs[c.FreqIdx] / maxCap,
			ExtraFactor: extra,
		}
	}
	return shapes
}

// Priors returns the paper's linear-performance / cubic-power prior
// initialisation over this platform for an application profile, in work
// units per second and watts: a deliberate overestimate of both.
func (p *Platform) Priors(prof AppProfile) learning.Priors {
	return p.PriorsPerIteration(prof, 1)
}

// PriorsPerIteration returns Priors(prof) with rates in iterations per
// second, for an application whose iteration is workPerIter work units —
// the unit a governor observes. The model is evaluated once per (profile,
// workPerIter) into a learning.PriorTable, which every governor's bandit
// then reads for the arms it has not pulled: building one neither
// re-derives nor copies the 1,024 priors on Server.
func (p *Platform) PriorsPerIteration(prof AppProfile, workPerIter float64) learning.Priors {
	t := p.table(prof)
	t.priorsMu.Lock()
	defer t.priorsMu.Unlock()
	if pr, ok := t.priors[workPerIter]; ok {
		return pr
	}
	model := p.priorModel(prof)
	var pr learning.Priors = learning.PriorsFunc(func(arm int) (float64, float64) {
		r, w := model.Estimate(arm)
		return r / workPerIter, w
	})
	// A model the bandit would refuse (a profile with no positive rate)
	// stays unevaluated, so the refusal comes from the constructor it is
	// handed to.
	if table, err := learning.Tabulate(len(p.configs), pr); err == nil {
		pr = table
	}
	if t.priors == nil {
		t.priors = make(map[float64]learning.Priors)
	}
	t.priors[workPerIter] = pr
	return pr
}

// priorModel is the prior initialisation in closed form.
func (p *Platform) priorModel(prof AppProfile) learning.LinearCubicPriors {
	// BaseRate: one max-capability core at full clock, assuming perfect
	// scaling (the overestimate the paper wants). BasePower: platform idle.
	var maxIPCf, maxDyn float64
	for _, ct := range p.CoreTypes {
		if c := ct.IPC * ct.Freqs[len(ct.Freqs)-1]; c > maxIPCf {
			maxIPCf = c
		}
		if d := ct.StaticW + ct.DynW; d > maxDyn {
			maxDyn = d
		}
	}
	// A mild global optimism factor keeps the linear model an overestimate
	// at the top of the configuration space without being the "gross
	// overestimate" Sec. 3.2 warns against. (A memory-bound application
	// loses less than linearly when the clock drops, so a linear prior
	// necessarily underestimates the slowest clocks — as the paper's own
	// linear initialisation does.)
	base := maxIPCf * prof.UnitsPerSpeed * 1.05
	return learning.LinearCubicPriors{
		Shapes:    p.PriorShapes(),
		BaseRate:  base,
		BasePower: p.IdleW + p.UncoreW,
		CorePower: maxDyn,
	}
}

// enumerate builds the dense configuration index: all combinations, sorted
// so resources grow with the index (cluster capability, then cores, then
// frequency, then memory controllers, then hyperthreading).
func (p *Platform) enumerate() {
	htOpts := []bool{false}
	if p.hasHT {
		htOpts = []bool{false, true}
	}
	memOpts := []int{1}
	if p.hasMemCtrl {
		memOpts = []int{1, 2}
	}
	for cl := range p.CoreTypes {
		ct := p.CoreTypes[cl]
		for cores := 1; cores <= ct.MaxCores; cores++ {
			for fi := range ct.Freqs {
				for _, mc := range memOpts {
					for _, ht := range htOpts {
						p.configs = append(p.configs, Config{
							Cluster: cl, Cores: cores, FreqIdx: fi, HT: ht, MemCtrls: mc,
						})
					}
				}
			}
		}
	}
	sort.SliceStable(p.configs, func(a, b int) bool {
		ca, cb := p.configs[a], p.configs[b]
		key := func(c Config) [5]float64 {
			ct := p.CoreTypes[c.Cluster]
			capability := ct.IPC * ct.Freqs[len(ct.Freqs)-1]
			ht := 0.0
			if c.HT {
				ht = 1
			}
			return [5]float64{capability, float64(c.Cores), ct.Freqs[c.FreqIdx], float64(c.MemCtrls), ht}
		}
		ka, kb := key(ca), key(cb)
		for i := range ka {
			if ka[i] != kb[i] {
				return ka[i] < kb[i]
			}
		}
		return false
	})
}
