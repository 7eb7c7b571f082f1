package platform

import (
	"fmt"
	"sync"
)

// freqRange returns n ascending clock speeds from lo to hi GHz inclusive.
func freqRange(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

// Mobile models the ODROID-XU3: a Samsung Exynos 5 big.LITTLE SoC with 4
// Cortex-A15 (big) cores at 19 speeds (0.2-2.0 GHz) and 4 Cortex-A7
// (LITTLE) cores at 13 speeds (0.2-1.4 GHz). The SoC idles around 0.12 W
// with another 5.8 W of board power, peaking near 6 W of SoC power
// (Sec. 4.2). Configurations pin the application to one cluster via
// affinity masks, as the paper does. The big cores are markedly less
// energy-efficient — the Fig. 3 landscape JouleGuard must learn to avoid.
func Mobile() *Platform {
	p := &Platform{
		Name: "Mobile",
		CoreTypes: []CoreType{
			{Name: "LITTLE", IPC: 1.0, Freqs: freqRange(0.2, 1.4, 13), MaxCores: 4, StaticW: 0.01, DynW: 0.12},
			// The A15s pay heavy leakage at any speed — the reason the big
			// cluster is the least efficient corner of Fig. 3's Mobile plot.
			{Name: "big", IPC: 2.0, Freqs: freqRange(0.2, 2.0, 19), MaxCores: 4, StaticW: 0.3, DynW: 1.45},
		},
		// The paper quotes 0.12 W SoC idle plus 5.8 W of other components,
		// but its Fig. 3 landscape (big cluster least efficient) is only
		// consistent with a small active floor — a large constant floor
		// would make race-to-idle on the big cores win. We therefore model
		// a small board floor; see DESIGN.md.
		IdleW:    0.85,
		MemSpeed: 1.6,
		UncoreW:  0.05,
		DynExp:   3,
	}
	p.rows = []ResourceRow{
		{"big cores", 4},
		{"big core speeds", 19},
		{"LITTLE cores", 4},
		{"LITTLE core speeds", 13},
	}
	p.enumerate()
	return p
}

// Tablet models the Sony Vaio's i5-4210Y: 2 cores, hyperthreading, and 11
// nominal P-states of which the firmware collapses most to a few effective
// frequencies — the paper's observation that "many of the clockspeed
// settings appear to produce the same energy efficiency" (Sec. 4.3). The
// system idles at 2.4 W and peaks near 9 W. With its high idle share and
// shallow dynamic range, race-to-idle wins: peak efficiency sits at the
// default configuration, again matching Sec. 4.3.
func Tablet() *Platform {
	// 11 nominal settings; the firmware honours only 0.6, 1.0 and 1.5 GHz.
	nominal := []float64{0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.45, 1.5}
	effective := make([]float64, len(nominal))
	for i, f := range nominal {
		switch {
		case f < 0.95:
			effective[i] = 0.6
		case f < 1.45:
			effective[i] = 1.0
		default:
			effective[i] = 1.5
		}
	}
	p := &Platform{
		Name: "Tablet",
		CoreTypes: []CoreType{
			{Name: "core", IPC: 2.6, Freqs: effective, MaxCores: 2, StaticW: 0.25, DynW: 2.1},
		},
		IdleW:     2.4,
		HTPowerup: 1.03, // Table 3
		MemSpeed:  2.2,
		UncoreW:   0.35,
		DynExp:    1.4, // Y-series part: voltage barely scales over its range
		hasHT:     true,
	}
	p.rows = []ResourceRow{
		{"clock speed", len(nominal)},
		{"core usage", 2},
		{"hyperthreading", 2},
	}
	p.enumerate()
	return p
}

// Server models the dual-socket Xeon E5-2690: 16 cores, 16 clock speeds
// (1.2-3.8 GHz with TurboBoost), hyperthreading and 2 memory controllers —
// 1024 configurations. The machine burns 75-90 W outside the processors
// and peaks near 280 W (Sec. 4.2, and the swish++ numbers of Sec. 2). Its
// high static power and wide dynamic range give every application a unique
// interior efficiency peak; the default configuration is never optimal
// (Sec. 4.3).
func Server() *Platform {
	p := &Platform{
		Name: "Server",
		CoreTypes: []CoreType{
			{Name: "xeon", IPC: 3.2, Freqs: freqRange(1.2, 3.8, 16), MaxCores: 16, StaticW: 1.1, DynW: 9.2},
		},
		IdleW:      85,   // non-CPU components (Sec. 4.2: 75-90 W)
		HTPowerup:  1.11, // Table 3
		MemCtrlW:   9,
		MemSpeed:   2.6,
		UncoreW:    12,
		DynExp:     3,
		hasHT:      true,
		hasMemCtrl: true,
	}
	p.rows = []ResourceRow{
		{"clock speed", 16},
		{"core usage", 16},
		{"hyperthreading", 2},
		{"mem controllers", 2},
	}
	p.enumerate()
	return p
}

var (
	byNameMu    sync.Mutex
	byNameCache = map[string]*Platform{}
)

// ByName returns a platform by its paper name. Instances are cached and
// shared process-wide: a platform is immutable after construction (the
// memoized model tables have their own lock), and enumerating + sorting
// Server's 1024-configuration space is far too expensive to repeat for
// every testbed an experiment sweep builds. Callers needing a private
// mutable instance should use the Mobile/Tablet/Server constructors, which
// always build fresh.
func ByName(name string) (*Platform, error) {
	byNameMu.Lock()
	defer byNameMu.Unlock()
	if p, ok := byNameCache[name]; ok {
		return p, nil
	}
	var p *Platform
	switch name {
	case "Mobile":
		p = Mobile()
	case "Tablet":
		p = Tablet()
	case "Server":
		p = Server()
	default:
		return nil, fmt.Errorf("platform: unknown platform %q (Mobile, Tablet, Server)", name)
	}
	byNameCache[name] = p
	return p, nil
}

// Names lists the three platforms in paper order.
func Names() []string { return []string{"Mobile", "Tablet", "Server"} }

// Profiles maps each benchmark to its hardware-interaction profile. The
// parallel fractions, memory-boundness and hyperthreading gains are set to
// reproduce the paper's qualitative landscape (Sec. 4.3, Table 3): ferret
// gains most from hyperthreading (1.92x on Server), canneal and
// streamcluster are memory-bound, swaptions is embarrassingly parallel.
// UnitsPerSpeed converts model speed into each kernel's work units per
// second, calibrated so default-configuration iteration rates land in each
// application's realistic range (e.g. ~3100 queries/s for swish++ on
// Server, Sec. 2).
var Profiles = map[string]AppProfile{
	"x264":          {Name: "x264", ParallelFrac: 0.96, MemFrac: 0.22, HTGain: 1.22, UnitsPerSpeed: 110000},
	"swaptions":     {Name: "swaptions", ParallelFrac: 0.999, MemFrac: 0.02, HTGain: 1.35, UnitsPerSpeed: 28000},
	"bodytrack":     {Name: "bodytrack", ParallelFrac: 0.93, MemFrac: 0.18, HTGain: 1.18, UnitsPerSpeed: 26000},
	"swish++":       {Name: "swish++", ParallelFrac: 0.985, MemFrac: 0.34, HTGain: 1.55, UnitsPerSpeed: 4100000},
	"radar":         {Name: "radar", ParallelFrac: 0.91, MemFrac: 0.12, HTGain: 1.28, UnitsPerSpeed: 100000},
	"canneal":       {Name: "canneal", ParallelFrac: 0.72, MemFrac: 0.52, HTGain: 1.32, UnitsPerSpeed: 21000},
	"ferret":        {Name: "ferret", ParallelFrac: 0.9, MemFrac: 0.38, HTGain: 1.92, UnitsPerSpeed: 16000},
	"streamcluster": {Name: "streamcluster", ParallelFrac: 0.94, MemFrac: 0.46, HTGain: 1.42, UnitsPerSpeed: 12000},
	// The Sec. 3.7 approximate-hardware workload (internal/hwapprox): a
	// compute-bound arithmetic stream.
	"hwapprox": {Name: "hwapprox", ParallelFrac: 0.98, MemFrac: 0.08, HTGain: 1.3, UnitsPerSpeed: 90000},
}

// ProfileFor returns the profile for a benchmark name.
func ProfileFor(name string) (AppProfile, error) {
	p, ok := Profiles[name]
	if !ok {
		return AppProfile{}, fmt.Errorf("platform: no profile for application %q", name)
	}
	return p, nil
}
