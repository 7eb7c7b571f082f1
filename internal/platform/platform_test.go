package platform

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"jouleguard/internal/learning"
)

func TestConfigurationCounts(t *testing.T) {
	// Server must have exactly 16*16*2*2 = 1024 configurations (Fig. 3's
	// x-axis); Tablet 2*11*2 = 44; Mobile 4*19 + 4*13 = 128.
	cases := map[string]int{"Mobile": 128, "Tablet": 44, "Server": 1024}
	for name, want := range cases {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.NumConfigs() != want {
			t.Errorf("%s: %d configs, want %d", name, p.NumConfigs(), want)
		}
	}
}

func TestDefaultConfigIsMaxResources(t *testing.T) {
	for _, p := range allPlatforms() {
		c, err := p.Config(p.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		ct := p.CoreTypes[c.Cluster]
		if c.Cores != ct.MaxCores {
			t.Errorf("%s default: %d cores, want %d", p.Name, c.Cores, ct.MaxCores)
		}
		if c.FreqIdx != len(ct.Freqs)-1 {
			t.Errorf("%s default: freq idx %d, want max", p.Name, c.FreqIdx)
		}
		// The default cluster must be the most capable one.
		for _, other := range p.CoreTypes {
			if other.IPC*other.Freqs[len(other.Freqs)-1] > ct.IPC*ct.Freqs[len(ct.Freqs)-1] {
				t.Errorf("%s default not on the fastest cluster", p.Name)
			}
		}
	}
}

func TestConfigIndexBounds(t *testing.T) {
	p := Tablet()
	if _, err := p.Config(-1); err == nil {
		t.Error("want error for negative index")
	}
	if _, err := p.Config(p.NumConfigs()); err == nil {
		t.Error("want error for index past the end")
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("Laptop"); err == nil {
		t.Fatal("want error for unknown platform")
	}
}

func TestProfilesCoverAllBenchmarks(t *testing.T) {
	for _, name := range []string{"x264", "swaptions", "bodytrack", "swish++", "radar", "canneal", "ferret", "streamcluster"} {
		prof, err := ProfileFor(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if prof.ParallelFrac <= 0 || prof.ParallelFrac >= 1 {
			t.Errorf("%s: parallel fraction %v", name, prof.ParallelFrac)
		}
		if prof.HTGain < 1 {
			t.Errorf("%s: HT gain %v", name, prof.HTGain)
		}
	}
	if _, err := ProfileFor("nope"); err == nil {
		t.Fatal("want error for unknown profile")
	}
}

func TestRatePositiveAndFiniteEverywhere(t *testing.T) {
	for _, p := range allPlatforms() {
		for name := range Profiles {
			prof := Profiles[name]
			for i := 0; i < p.NumConfigs(); i++ {
				r := p.Rate(i, prof)
				w := p.Power(i, prof)
				if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
					t.Fatalf("%s/%s cfg %d: rate %v", p.Name, name, i, r)
				}
				if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
					t.Fatalf("%s/%s cfg %d: power %v", p.Name, name, i, w)
				}
			}
		}
	}
}

func TestDefaultConfigIsFastest(t *testing.T) {
	// The default (all resources) must deliver the highest rate — more
	// resources never slow the model down.
	for _, p := range allPlatforms() {
		for name, prof := range Profiles {
			def := p.DefaultConfig()
			defRate := p.Rate(def, prof)
			for i := 0; i < p.NumConfigs(); i++ {
				if p.Rate(i, prof) > defRate*(1+1e-9) {
					t.Fatalf("%s/%s: config %d faster than default", p.Name, name, i)
				}
			}
		}
	}
}

// Sec. 4.3 landscape checks.

func TestServerLandscape(t *testing.T) {
	p := Server()
	peaks := map[int]bool{}
	for name, prof := range Profiles {
		best, bestEff := p.BestEfficiency(prof)
		if best == p.DefaultConfig() {
			t.Errorf("Server/%s: peak efficiency at the default config — paper says never", name)
		}
		defEff := p.Efficiency(p.DefaultConfig(), prof)
		if bestEff < defEff*1.05 {
			t.Errorf("Server/%s: best efficiency %.3f barely above default %.3f", name, bestEff, defEff)
		}
		peaks[best] = true
	}
	if len(peaks) < 4 {
		t.Errorf("Server: only %d distinct efficiency peaks across 8 apps — paper says each app has its own", len(peaks))
	}
}

func TestTabletLandscape(t *testing.T) {
	p := Tablet()
	for name, prof := range Profiles {
		_, bestEff := p.BestEfficiency(prof)
		defEff := p.Efficiency(p.DefaultConfig(), prof)
		if defEff < bestEff*0.90 {
			t.Errorf("Tablet/%s: default efficiency %.3f far below peak %.3f — paper says peak is at default", name, defEff, bestEff)
		}
	}
	// Firmware collapse: several distinct clock settings must produce
	// identical efficiency.
	prof := Profiles["x264"]
	effs := map[float64]int{}
	for i := 0; i < p.NumConfigs(); i++ {
		effs[math.Round(p.Efficiency(i, prof)*1e9)/1e9]++
	}
	var dup int
	for _, n := range effs {
		if n > 1 {
			dup += n
		}
	}
	if dup < p.NumConfigs()/3 {
		t.Errorf("Tablet: only %d/%d configs share an efficiency value — firmware collapse not modelled", dup, p.NumConfigs())
	}
}

func TestMobileLandscape(t *testing.T) {
	p := Mobile()
	for name, prof := range Profiles {
		best, _ := p.BestEfficiency(prof)
		c, _ := p.Config(best)
		if p.CoreTypes[c.Cluster].Name != "LITTLE" {
			t.Errorf("Mobile/%s: peak efficiency on the %s cluster — paper says big cores are least efficient",
				name, p.CoreTypes[c.Cluster].Name)
		}
	}
	// The big cluster at full tilt must be clearly less efficient than the
	// LITTLE cluster at full tilt.
	prof := Profiles["bodytrack"]
	bigEff := p.Efficiency(p.DefaultConfig(), prof)
	_, bestEff := p.BestEfficiency(prof)
	if bestEff < bigEff*1.5 {
		t.Errorf("Mobile: LITTLE peak %.0f not well above big default %.0f", bestEff, bigEff)
	}
}

func TestPowerEnvelopes(t *testing.T) {
	// Sec. 4.2 envelopes: Mobile peaks well under 10 W, Tablet under 10 W,
	// Server in the 250-300 W range at default.
	type tc struct {
		p        *Platform
		min, max float64
	}
	for _, c := range []tc{
		{Mobile(), 3, 10},
		{Tablet(), 5, 10},
		{Server(), 250, 300},
	} {
		var peak float64
		for name := range Profiles {
			if w := c.p.Power(c.p.DefaultConfig(), Profiles[name]); w > peak {
				peak = w
			}
		}
		if peak < c.min || peak > c.max {
			t.Errorf("%s: peak default power %.1f W outside [%v, %v]", c.p.Name, peak, c.min, c.max)
		}
	}
}

func TestSwishServerCalibration(t *testing.T) {
	// Sec. 2: default ~280 W; the best-efficiency configuration is ~1.25x
	// more efficient (0.09 -> 0.07 J/query) at far lower power.
	p := Server()
	prof := Profiles["swish++"]
	defPow := p.Power(p.DefaultConfig(), prof)
	if defPow < 260 || defPow > 295 {
		t.Errorf("swish++ default power %.1f W, want ~280", defPow)
	}
	best, bestEff := p.BestEfficiency(prof)
	gain := bestEff / p.Efficiency(p.DefaultConfig(), prof)
	if gain < 1.15 || gain > 1.7 {
		t.Errorf("swish++ efficiency gain %.2fx, want ~1.3x", gain)
	}
	if w := p.Power(best, prof); w > 200 {
		t.Errorf("best-efficiency power %.1f W, want well below default", w)
	}
}

func TestTable3SpeedupShapes(t *testing.T) {
	// Table 3 highlights: Server core-usage speedup ~16x for the most
	// parallel app; Server clock speedup ~3.2x; Mobile big-speed ~10x.
	srv := Server()
	prof := Profiles["swaptions"]
	oneCore := -1
	allCores := -1
	for i := 0; i < srv.NumConfigs(); i++ {
		c, _ := srv.Config(i)
		if c.FreqIdx == 15 && !c.HT && c.MemCtrls == 1 {
			if c.Cores == 1 {
				oneCore = i
			}
			if c.Cores == 16 {
				allCores = i
			}
		}
	}
	if oneCore < 0 || allCores < 0 {
		t.Fatal("could not locate core-sweep endpoints")
	}
	coreSpeedup := srv.Rate(allCores, prof) / srv.Rate(oneCore, prof)
	if coreSpeedup < 13 || coreSpeedup > 16.5 {
		t.Errorf("Server core speedup %.2f, want ~15.99", coreSpeedup)
	}
	lowClock, highClock := -1, -1
	for i := 0; i < srv.NumConfigs(); i++ {
		c, _ := srv.Config(i)
		if c.Cores == 16 && c.HT && c.MemCtrls == 2 {
			if c.FreqIdx == 0 {
				lowClock = i
			}
			if c.FreqIdx == 15 {
				highClock = i
			}
		}
	}
	clockSpeedup := srv.Rate(highClock, prof) / srv.Rate(lowClock, prof)
	if clockSpeedup < 2.5 || clockSpeedup > 3.5 {
		t.Errorf("Server clock speedup %.2f, want ~3.23", clockSpeedup)
	}
}

func TestPriorsOptimisticButNotGross(t *testing.T) {
	// Sec. 3.2: the initialisation "is an overestimate for all
	// applications, but it is not a gross overestimate". We require the
	// priors to be net-optimistic (mean prior/true rate >= 1), never
	// grossly inflated (mean <= 4), and optimistic at the top of the
	// configuration space (the default config and the true best-efficiency
	// config), which is what steers the greedy exploitation usefully.
	for _, p := range allPlatforms() {
		for name, prof := range Profiles {
			priors := p.Priors(prof)
			var ratio float64
			for i := 0; i < p.NumConfigs(); i++ {
				pr, _ := priors.Estimate(i)
				ratio += pr / p.Rate(i, prof)
			}
			ratio /= float64(p.NumConfigs())
			if ratio < 1 || ratio > 12 {
				t.Errorf("%s/%s: mean prior/true rate %.2f outside [1, 12]", p.Name, name, ratio)
			}
			for _, idx := range []int{p.DefaultConfig(), firstBest(p, prof)} {
				pr, _ := priors.Estimate(idx)
				if pr < p.Rate(idx, prof)*0.98 {
					t.Errorf("%s/%s: prior underestimates rate at key config %d (%.0f < %.0f)",
						p.Name, name, idx, pr, p.Rate(idx, prof))
				}
			}
		}
	}
}

func firstBest(p *Platform, prof AppProfile) int {
	best, _ := p.BestEfficiency(prof)
	return best
}

func TestPriorShapesMatchConfigs(t *testing.T) {
	for _, p := range allPlatforms() {
		shapes := p.PriorShapes()
		if len(shapes) != p.NumConfigs() {
			t.Fatalf("%s: %d shapes for %d configs", p.Name, len(shapes), p.NumConfigs())
		}
		for i, s := range shapes {
			if s.Cores < 1 || s.ClockFrac <= 0 || s.ClockFrac > 1 {
				t.Fatalf("%s shape %d: %+v", p.Name, i, s)
			}
		}
	}
}

// TestPriorsTabulatedOnce pins the prior cache: the table a platform
// hands out holds exactly the closed-form model's values (rates divided
// by the work per iteration), it is the same table on every call, and a
// profile whose model the bandit would refuse still reaches the bandit.
func TestPriorsTabulatedOnce(t *testing.T) {
	p := Server()
	prof := Profiles["x264"]
	model := p.priorModel(prof)
	const work = 3.7
	perWork, perIter := p.Priors(prof), p.PriorsPerIteration(prof, work)
	for i := 0; i < p.NumConfigs(); i++ {
		wantR, wantP := model.Estimate(i)
		if r, w := perWork.Estimate(i); r != wantR || w != wantP {
			t.Fatalf("config %d: tabulated prior (%v, %v), model says (%v, %v)", i, r, w, wantR, wantP)
		}
		if r, w := perIter.Estimate(i); r != wantR/work || w != wantP {
			t.Fatalf("config %d: per-iteration prior (%v, %v), want (%v, %v)", i, r, w, wantR/work, wantP)
		}
	}
	if _, ok := perIter.(*learning.PriorTable); !ok || p.PriorsPerIteration(prof, work) != perIter || p.Priors(prof) != perWork {
		t.Fatalf("priors are not served from one table per (profile, work): %T", perIter)
	}
	dead := prof
	dead.UnitsPerSpeed = 0
	if _, err := learning.NewBandit(p.NumConfigs(), 0.85, p.Priors(dead), rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("a profile with no rate built a bandit")
	}
}

func TestTable3Rows(t *testing.T) {
	rows := Server().Table3()
	if len(rows) != 4 || rows[0].Resource != "clock speed" || rows[0].Settings != 16 {
		t.Fatalf("Server Table 3 rows: %+v", rows)
	}
	if got := len(Mobile().Table3()); got != 4 {
		t.Fatalf("Mobile rows: %d", got)
	}
}

// Property: rate is monotone in frequency index with everything else fixed.
func TestRateMonotoneInFrequencyProperty(t *testing.T) {
	p := Server()
	prof := Profiles["x264"]
	f := func(coreRaw, fiRaw uint8, ht bool) bool {
		cores := int(coreRaw%16) + 1
		fi := int(fiRaw % 15)
		var lo, hi int = -1, -1
		for i := 0; i < p.NumConfigs(); i++ {
			c, _ := p.Config(i)
			if c.Cores == cores && c.HT == ht && c.MemCtrls == 1 {
				if c.FreqIdx == fi {
					lo = i
				}
				if c.FreqIdx == fi+1 {
					hi = i
				}
			}
		}
		if lo < 0 || hi < 0 {
			return false
		}
		return p.Rate(hi, prof) > p.Rate(lo, prof) && p.Power(hi, prof) > p.Power(lo, prof)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// The memoized model tables must be bit-identical to direct evaluation:
// the whole pipeline (oracle profiling, CSV regeneration) depends on the
// memo layer being a pure cache, not an approximation.
func TestMemoTablesMatchDirectEvaluation(t *testing.T) {
	for _, p := range allPlatforms() {
		for _, profName := range []string{"x264", "canneal", "swish++"} {
			prof := Profiles[profName]
			for i := 0; i < p.NumConfigs(); i++ {
				if got, want := p.Rate(i, prof), p.rateDirect(i, prof); got != want {
					t.Fatalf("%s/%s cfg %d: Rate table %v != direct %v", p.Name, profName, i, got, want)
				}
				if got, want := p.Power(i, prof), p.powerDirect(i, prof); got != want {
					t.Fatalf("%s/%s cfg %d: Power table %v != direct %v", p.Name, profName, i, got, want)
				}
			}
		}
	}
}

// ByName must return shared singletons; the constructors stay fresh.
func TestByNameCachesInstances(t *testing.T) {
	a, err := ByName("Server")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ByName("Server")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("ByName returned distinct instances for the same platform")
	}
	if Server() == a {
		t.Fatal("constructor returned the cached instance; it must build fresh")
	}
}

func TestConfigAtMatchesConfig(t *testing.T) {
	p := Tablet()
	for i := 0; i < p.NumConfigs(); i++ {
		want, err := p.Config(i)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.ConfigAt(i); got != want {
			t.Fatalf("ConfigAt(%d) = %+v, want %+v", i, got, want)
		}
	}
}

// allPlatforms returns the three platforms (the shared ByName instances).
func allPlatforms() []*Platform {
	out := make([]*Platform, 0, 3)
	for _, n := range Names() {
		p, _ := ByName(n)
		out = append(out, p)
	}
	return out
}
