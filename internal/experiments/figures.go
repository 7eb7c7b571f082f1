package experiments

import (
	"fmt"
	"math"
	"sort"

	"jouleguard"
	"jouleguard/internal/apps"
	"jouleguard/internal/metrics"
	"jouleguard/internal/par"
	"jouleguard/internal/platform"
	"jouleguard/internal/sim"
)

// ---------------------------------------------------------------- Fig. 1

// Fig1Row is one approach's outcome in the swish++ motivation experiment.
type Fig1Row struct {
	Approach         string
	EnergyPerIter    float64   // J per iteration (one iteration = one query batch)
	ResultsPct       float64   // results returned relative to default, percent
	EnergySeries     []float64 // per-iteration energy trace
	AccuracySeries   []float64
	OscillationScore float64 // mean |delta energy| between iterations, normalised
}

// Fig1 reproduces the motivation experiment (Sec. 2, Fig. 1): swish++ on
// Server with an energy goal 1/3 below default (0.09 -> 0.06 J/query),
// under four approaches: system-only, application-only, uncoordinated, and
// JouleGuard.
func Fig1(scale float64) ([]Fig1Row, error) {
	const appName, platName = "swish++", "Server"
	const factor = 1.5
	tb, err := jouleguard.NewTestbed(appName, platName)
	if err != nil {
		return nil, err
	}
	iters := ItersFor(platName, scale)
	type job struct {
		name string
		gov  func() (jouleguard.Governor, error)
	}
	// The paper's system-only point comes from brute-force search over the
	// configuration space (Sec. 2.1: "we exhaustively searched the space"),
	// so it runs pinned at the true best-efficiency configuration.
	bruteBest, _ := tb.Platform.BestEfficiency(tb.Profile)
	jobs := []job{
		{"System-only", func() (jouleguard.Governor, error) {
			return sim.FixedGovernor{AppCfg: tb.App.DefaultConfig(), SysCfg: bruteBest}, nil
		}},
		{"Application-only", func() (jouleguard.Governor, error) { return tb.NewAppOnly(factor, iters) }},
		{"Uncoordinated", func() (jouleguard.Governor, error) { return tb.NewUncoordinated(factor, iters) }},
		{"JouleGuard", func() (jouleguard.Governor, error) {
			return tb.NewJouleGuard(factor, iters, jouleguard.Options{})
		}},
	}
	rows := make([]Fig1Row, len(jobs))
	err = par.Map(len(jobs), func(i int) error {
		// Each governor runs on its own engine (via a fresh testbed); the
		// governors themselves are parameterised identically from tb.
		tbi, err := jouleguard.NewTestbed(appName, platName)
		if err != nil {
			return err
		}
		gov, err := jobs[i].gov()
		if err != nil {
			return err
		}
		rec, err := tbi.Run(gov, iters)
		if err != nil {
			return err
		}
		var osc float64
		for k := 1; k < len(rec.EnergyPerIter); k++ {
			osc += math.Abs(rec.EnergyPerIter[k] - rec.EnergyPerIter[k-1])
		}
		osc /= float64(len(rec.EnergyPerIter)-1) * rec.EnergyPerIterAvg()
		rows[i] = Fig1Row{
			Approach:         jobs[i].name,
			EnergyPerIter:    rec.EnergyPerIterAvg(),
			ResultsPct:       rec.MeanAccuracy() * 100,
			EnergySeries:     rec.EnergyPerIter,
			AccuracySeries:   rec.Accuracies,
			OscillationScore: osc,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Fig1Goal returns the target energy per iteration of the motivation
// experiment (1/1.5 of default).
func Fig1Goal() (float64, error) {
	tb, err := jouleguard.NewTestbed("swish++", "Server")
	if err != nil {
		return 0, err
	}
	return tb.DefaultEnergy / 1.5, nil
}

// ---------------------------------------------------------------- Fig. 3

// Fig3Curve is one (app, platform) energy-efficiency landscape.
type Fig3Curve struct {
	App, Platform string
	Efficiency    []float64 // indexed by configuration index
	PeakIndex     int
	DefaultIndex  int
}

// Fig3 characterises the platforms (Sec. 4.3, Fig. 3): energy efficiency of
// every system configuration with the application at full accuracy. The
// paper plots bodytrack and ferret; any benchmark names may be passed.
// Cells run through the shared pool, one per (platform, application), in
// the platform-major order the serial loop used.
func Fig3(appNames []string) ([]Fig3Curve, error) {
	type cellSpec struct{ plat, app string }
	var cells []cellSpec
	for _, platName := range platform.Names() {
		for _, appName := range appNames {
			cells = append(cells, cellSpec{platName, appName})
		}
	}
	out := make([]Fig3Curve, len(cells))
	err := par.Map(len(cells), func(ci int) error {
		plat, err := platform.ByName(cells[ci].plat)
		if err != nil {
			return err
		}
		prof, err := platform.ProfileFor(cells[ci].app)
		if err != nil {
			return err
		}
		curve := Fig3Curve{App: cells[ci].app, Platform: cells[ci].plat, DefaultIndex: plat.DefaultConfig()}
		curve.Efficiency = make([]float64, 0, plat.NumConfigs())
		best, bestEff := 0, math.Inf(-1)
		for i := 0; i < plat.NumConfigs(); i++ {
			eff := plat.Efficiency(i, prof)
			curve.Efficiency = append(curve.Efficiency, eff)
			if eff > bestEff {
				best, bestEff = i, eff
			}
		}
		curve.PeakIndex = best
		out[ci] = curve
		return nil
	})
	return out, err
}

// ---------------------------------------------------------------- Fig. 4

// Fig4Trace is one platform's convergence trace for bodytrack.
type Fig4Trace struct {
	Platform     string
	Factor       float64
	NormEnergy   []float64 // energy per frame normalised to the goal
	Accuracy     []float64
	RelativeErr  float64
	MeanAccuracy float64
	// ConvergenceIter is the first iteration after which the rolling mean
	// of normalised energy stays at or below 1+tol — the "quickly
	// converges" claim of Sec. 5.3 made measurable. -1 if never.
	ConvergenceIter int
}

// ConvergenceIter finds the first index i such that every window-sized
// rolling mean of norm[i:] stays at or below 1+tol (the goal respected from
// then on). Returns -1 if the trace never converges.
func ConvergenceIter(norm []float64, window int, tol float64) int {
	if window < 1 {
		window = 1
	}
	if len(norm) < window {
		return -1
	}
	// Rolling means, then scan from the end for the last violation.
	lastViolation := -1
	var sum float64
	for i, v := range norm {
		sum += v
		if i >= window {
			sum -= norm[i-window]
		}
		if i >= window-1 {
			if mean := sum / float64(window); mean > 1+tol {
				lastViolation = i
			}
		}
	}
	if lastViolation == len(norm)-1 {
		return -1
	}
	return lastViolation + 1
}

// Fig4 reproduces the stability/convergence traces (Sec. 5.3, Fig. 4):
// bodytrack holding 1/4 of default energy on Mobile and 1/3 on Tablet and
// Server, 260 frames.
func Fig4(frames int) ([]Fig4Trace, error) {
	if frames <= 0 {
		frames = 260
	}
	cfg := []struct {
		plat   string
		factor float64
	}{{"Mobile", 4}, {"Tablet", 3}, {"Server", 3}}
	out := make([]Fig4Trace, len(cfg))
	err := par.Map(len(cfg), func(i int) error {
		tb, err := jouleguard.NewTestbed("bodytrack", cfg[i].plat)
		if err != nil {
			return err
		}
		gov, err := tb.NewJouleGuard(cfg[i].factor, frames, jouleguard.Options{})
		if err != nil {
			return err
		}
		rec, err := tb.Run(gov, frames)
		if err != nil {
			return err
		}
		goal := tb.DefaultEnergy / cfg[i].factor
		tr := Fig4Trace{Platform: cfg[i].plat, Factor: cfg[i].factor}
		for _, e := range rec.EnergyPerIter {
			tr.NormEnergy = append(tr.NormEnergy, e/goal)
		}
		tr.Accuracy = rec.Accuracies
		tr.RelativeErr = metrics.RelativeError(rec.EnergyPerIterAvg(), goal)
		tr.MeanAccuracy = rec.MeanAccuracy()
		tr.ConvergenceIter = ConvergenceIter(tr.NormEnergy, 20, 0.05)
		out[i] = tr
		return nil
	})
	return out, err
}

// ------------------------------------------------------------ Figs. 5 & 6

// SweepCell is one bar of Figs. 5 and 6: an (app, platform, factor) run's
// relative error and effective accuracy.
type SweepCell struct {
	RunResult
}

// Sweep runs the full evaluation matrix (Sec. 5.3-5.4): every benchmark on
// every platform at every feasible paper factor. Infeasible combinations
// are skipped, exactly as the paper omits their bars.
func Sweep(factors []float64, scale float64) ([]SweepCell, error) {
	if len(factors) == 0 {
		factors = PaperFactors
	}
	type jobSpec struct {
		app, plat string
		factor    float64
		slot      int // the cell's place in the matrix
	}
	var jobs []jobSpec
	for _, platName := range platform.Names() {
		for _, appName := range apps.Names() {
			tb, err := jouleguard.NewTestbed(appName, platName)
			if err != nil {
				return nil, err
			}
			orc, err := tb.NewOracle()
			if err != nil {
				return nil, err
			}
			maxF := orc.MaxFeasibleFactor()
			for _, f := range factors {
				if f <= maxF {
					jobs = append(jobs, jobSpec{appName, platName, f, len(jobs)})
				}
			}
		}
	}
	// Run the longest cells first, each factor across every application
	// before the next: in matrix order the workers would run neighbouring
	// cells of one application, which need the same kernel results at the
	// same moment, so one would wait on the other's computation. Each cell
	// still lands in its matrix slot.
	sort.SliceStable(jobs, func(a, b int) bool {
		if ia, ib := ItersFor(jobs[a].plat, scale), ItersFor(jobs[b].plat, scale); ia != ib {
			return ia > ib
		}
		return jobs[a].factor < jobs[b].factor
	})
	cells := make([]SweepCell, len(jobs))
	err := par.Map(len(jobs), func(k int) error {
		j := jobs[k]
		res, err := RunJouleGuard(j.app, j.plat, j.factor, scale, jouleguard.Options{})
		if err != nil {
			return err
		}
		cells[j.slot] = SweepCell{res}
		return nil
	})
	return cells, err
}

// ---------------------------------------------------------------- Fig. 7

// Fig7Point compares JouleGuard and application-only accuracy at one goal.
type Fig7Point struct {
	Factor     float64
	JouleGuard float64 // measured mean accuracy
	AppOnly    float64
	Feasible   bool // whether the app-only approach can reach the goal at all
}

// Fig7Result is one benchmark's comparison on Server.
type Fig7Result struct {
	App string
	// SysOnlyMaxFactor is the largest energy reduction achievable by system
	// adaptation alone at full accuracy (the dotted line in Fig. 7).
	SysOnlyMaxFactor float64
	Points           []Fig7Point
}

// Fig7 compares JouleGuard against the best application-only and
// system-only outcomes on Server (Sec. 5.5, Fig. 7).
func Fig7(scale float64) ([]Fig7Result, error) {
	const platName = "Server"
	appNames := apps.Names()
	out := make([]Fig7Result, len(appNames))
	type jobSpec struct {
		appIdx, ptIdx int
		factor        float64
	}
	var jobs []jobSpec
	for ai, appName := range appNames {
		tb, err := jouleguard.NewTestbed(appName, platName)
		if err != nil {
			return nil, err
		}
		orc, err := tb.NewOracle()
		if err != nil {
			return nil, err
		}
		maxF := orc.MaxFeasibleFactor()
		// System-only ceiling: best efficiency at full app accuracy.
		_, bestEff := tb.Platform.BestEfficiency(tb.Profile)
		defEff := tb.Platform.Efficiency(tb.Platform.DefaultConfig(), tb.Profile)
		res := Fig7Result{App: appName, SysOnlyMaxFactor: bestEff / defEff}
		// Factor grid: ~6 points spanning the feasible range.
		n := 6
		for k := 0; k < n; k++ {
			f := 1.1 + (maxF*0.97-1.1)*float64(k)/float64(n-1)
			if f <= 1 {
				continue
			}
			res.Points = append(res.Points, Fig7Point{Factor: f})
			jobs = append(jobs, jobSpec{ai, len(res.Points) - 1, f})
		}
		out[ai] = res
	}
	// Same interleaving as Sweep: each grid point across every
	// application before the next, so the workers run different kernels.
	sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].ptIdx < jobs[b].ptIdx })
	err := par.Map(len(jobs), func(j int) error {
		spec := jobs[j]
		appName := appNames[spec.appIdx]
		jg, err := RunJouleGuard(appName, platName, spec.factor, scale, jouleguard.Options{})
		if err != nil {
			return err
		}
		tb, err := jouleguard.NewTestbed(appName, platName)
		if err != nil {
			return err
		}
		iters := ItersFor(platName, scale)
		appGov, err := tb.NewAppOnly(spec.factor, iters)
		if err != nil {
			return err
		}
		rec, err := tb.Run(appGov, iters)
		if err != nil {
			return err
		}
		pt := &out[spec.appIdx].Points[spec.ptIdx]
		pt.JouleGuard = jg.MeanAccuracy
		pt.AppOnly = rec.MeanAccuracy()
		// The app-only approach is feasible only if pure approximation can
		// reach the factor on the default system configuration.
		pt.Feasible = tb.Frontier.MaxSpeedup() >= spec.factor
		return nil
	})
	return out, err
}

// ---------------------------------------------------------------- Fig. 8

// Fig8Trace is one platform's phase-adaptation trace.
type Fig8Trace struct {
	Platform      string
	NormEnergy    []float64 // energy per frame normalised to the goal
	Accuracy      []float64
	PhaseAccuracy [3]float64 // mean accuracy per scene
	RelativeErr   float64
}

// Fig8 reproduces the phase experiment (Sec. 5.6, Fig. 8): x264 encoding
// three concatenated scenes (the middle one ~40% easier) under a fixed
// energy-per-frame goal. JouleGuard should hold the energy target and turn
// the middle scene's slack into higher accuracy.
func Fig8(framesPer int, factor float64) ([]Fig8Trace, error) {
	if framesPer <= 0 {
		framesPer = 200
	}
	if factor <= 0 {
		factor = 2
	}
	platNames := platform.Names()
	out := make([]Fig8Trace, len(platNames))
	// One shared phased encoder for all three platforms: its Step method is
	// a deterministic pure function (and concurrency-safe), so sharing the
	// instance means the 560-configuration calibration frontier is profiled
	// once instead of once per platform.
	app := jouleguard.PhasedX264(framesPer)
	err := par.Map(len(platNames), func(i int) error {
		plat, err := jouleguard.PlatformByName(platNames[i])
		if err != nil {
			return err
		}
		tb, err := jouleguard.NewTestbedFrom(app, plat)
		if err != nil {
			return err
		}
		frames := 3 * framesPer
		gov, err := tb.NewJouleGuard(factor, frames, jouleguard.Options{})
		if err != nil {
			return err
		}
		rec, err := tb.Run(gov, frames)
		if err != nil {
			return err
		}
		goal := tb.DefaultEnergy / factor
		tr := Fig8Trace{Platform: platNames[i]}
		for _, e := range rec.EnergyPerIter {
			tr.NormEnergy = append(tr.NormEnergy, e/goal)
		}
		tr.Accuracy = rec.Accuracies
		for ph := 0; ph < 3; ph++ {
			var sum float64
			for k := ph * framesPer; k < (ph+1)*framesPer; k++ {
				sum += rec.Accuracies[k]
			}
			tr.PhaseAccuracy[ph] = sum / float64(framesPer)
		}
		tr.RelativeErr = metrics.RelativeError(rec.EnergyPerIterAvg(), goal)
		out[i] = tr
		return nil
	})
	return out, err
}

// ForceDecisionProbe is a tiny helper for overhead measurement: it performs
// one Decide/Observe round against a runtime with synthetic feedback.
func ForceDecisionProbe(gov *jouleguard.Runtime, iter int, dur, power, energy float64) {
	appCfg, sysCfg := gov.Decide(iter)
	gov.Observe(sim.Feedback{
		Iter: iter, AppConfig: appCfg, SysConfig: sysCfg,
		Work: 1, Duration: dur, Power: power, Energy: energy,
		Accuracy: 1, IterationsDone: iter + 1,
	})
}

// helper for cmds: format a Fig1 row.
func (r Fig1Row) String() string {
	return fmt.Sprintf("%-17s energy/iter=%8.4f J  results=%5.1f%%  oscillation=%.3f",
		r.Approach, r.EnergyPerIter, r.ResultsPct, r.OscillationScore)
}
