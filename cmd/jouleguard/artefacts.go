package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"jouleguard/internal/experiments"
	"jouleguard/internal/metrics"
	"jouleguard/internal/trace"
)

// An artefact is one table, figure or extension of the paper's
// evaluation. It is computed once per invocation and formatted by the
// one text renderer (and, where the data is a series or a matrix, the
// one CSV renderer) that `jouleguard <name>`, `jouleguard replicate` and
// TestResultsCurrent all share.
type artefact struct {
	name   string
	hasCSV bool
	// timed marks wall-clock output, which no two runs reproduce byte for
	// byte; everything else is a pure function of the scale.
	timed  bool
	render func(scale float64) (text, csv []byte, err error)
}

// row builds a table entry from a driver and its renderers. A nil csv
// means the artefact has no CSV form.
func row[T any](name string, compute func(scale float64) (T, error), text, csv func(w *bytes.Buffer, data T)) artefact {
	return artefact{name: name, hasCSV: csv != nil, render: func(scale float64) ([]byte, []byte, error) {
		data, err := compute(scale)
		if err != nil {
			return nil, nil, err
		}
		var tw, cw bytes.Buffer
		text(&tw, data)
		if csv != nil {
			csv(&cw, data)
		}
		return tw.Bytes(), cw.Bytes(), nil
	}}
}

// artefacts is the whole evaluation, in the paper's order, then the two
// extensions EXPERIMENTS.md reports.
var artefacts = []artefact{
	row("fig1", computeFig1, fig1Text, fig1CSV),
	row("table2", func(float64) ([]experiments.Table2Row, error) { return experiments.Table2() }, table2Text, nil),
	row("table3", func(float64) ([]experiments.Table3Row, error) { return experiments.Table3() }, table3Text, nil),
	row("fig3", func(float64) ([]experiments.Fig3Curve, error) {
		return experiments.Fig3([]string{"bodytrack", "ferret"})
	}, fig3Text, fig3CSV),
	timed(row("table4", computeTable4, table4Text, nil)),
	row("fig4", func(scale float64) ([]experiments.Fig4Trace, error) {
		return experiments.Fig4(experiments.ScaledIters(260, scale))
	}, fig4Text, fig4CSV),
	row("fig5_6", computeSweep, sweepText, sweepCSV),
	row("fig7", experiments.Fig7, fig7Text, fig7CSV),
	row("fig8", func(scale float64) (fig8, error) {
		per := experiments.ScaledIters(200, scale)
		traces, err := experiments.Fig8(per, 2)
		return fig8{per, traces}, err
	}, fig8Text, fig8CSV),
	row("ablations", computeAblations, ablationsText, nil),
	row("robustness", experiments.Robustness, robustnessText, nil),
	row("disturbance", computeDisturbance, disturbanceText, nil),
}

func timed(a artefact) artefact {
	a.timed = true
	return a
}

func artefactNames() []string {
	names := make([]string, len(artefacts))
	for i, a := range artefacts {
		names[i] = a.name
	}
	return names
}

func findArtefact(name string) (artefact, bool) {
	for _, a := range artefacts {
		if a.name == name {
			return a, true
		}
	}
	return artefact{}, false
}

// chart appends one ASCII trace at the width every figure uses, without
// the blank padding the renderer leaves at the end of each line.
func chart(w *bytes.Buffer, name string, values []float64, height int) {
	c := trace.ASCIIChart(&trace.Series{Name: name, Values: values}, 72, height)
	for _, line := range strings.Split(strings.TrimRight(c, "\n"), "\n") {
		w.WriteString(strings.TrimRight(line, " "))
		w.WriteByte('\n')
	}
}

// traceCSV writes named series as the columns of one CSV.
func traceCSV(w *bytes.Buffer, xName string, add func(set *trace.Set)) {
	set := trace.NewSet(xName)
	add(set)
	_ = set.WriteCSV(w) // writing to a bytes.Buffer cannot fail
}

// ---------------------------------------------------------------- Fig. 1

type fig1 struct {
	goal float64
	rows []experiments.Fig1Row
}

func computeFig1(scale float64) (fig1, error) {
	goal, err := experiments.Fig1Goal()
	if err != nil {
		return fig1{}, err
	}
	rows, err := experiments.Fig1(scale)
	return fig1{goal, rows}, err
}

func fig1Text(w *bytes.Buffer, d fig1) {
	fmt.Fprintf(w, "Fig. 1 — swish++ on Server, goal %.4f J per query batch (1/1.5 of default)\n", d.goal)
	for _, r := range d.rows {
		fmt.Fprintln(w, r.String())
	}
	fmt.Fprintln(w)
	for _, r := range d.rows {
		chart(w, r.Approach+" energy/iter", r.EnergySeries, 8)
	}
}

func fig1CSV(w *bytes.Buffer, d fig1) {
	traceCSV(w, "iter", func(set *trace.Set) {
		for _, r := range d.rows {
			set.Add(r.Approach + "/energy").Values = r.EnergySeries
		}
	})
}

// ------------------------------------------------------------ Tables 2, 3

func table2Text(w *bytes.Buffer, rows []experiments.Table2Row) {
	fmt.Fprintln(w, "Table 2 — approximate application configurations (measured vs paper)")
	fmt.Fprintf(w, "%-14s %8s %8s %10s %10s %9s %9s  %s\n",
		"app", "configs", "(paper)", "speedup", "(paper)", "loss", "(paper)", "metric")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %8d %8d %10.2f %10.2f %8.1f%% %8.1f%%  %s\n",
			r.App, r.Configs, r.PaperConfigs, r.MaxSpeedup, r.PaperMaxSpeedup,
			r.MaxLoss*100, r.PaperMaxLoss*100, r.Metric)
	}
}

func table3Text(w *bytes.Buffer, rows []experiments.Table3Row) {
	fmt.Fprintln(w, "Table 3 — system configurations (measured max speedup/powerup across benchmarks)")
	fmt.Fprintf(w, "%-8s %-20s %9s %9s %9s\n", "platform", "resource", "settings", "speedup", "powerup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %-20s %9d %9.2f %9.2f\n", r.Platform, r.Resource, r.Settings, r.Speedup, r.Powerup)
	}
}

// ---------------------------------------------------------------- Fig. 3

func fig3Text(w *bytes.Buffer, curves []experiments.Fig3Curve) {
	fmt.Fprintln(w, "Fig. 3 — energy-efficiency landscapes (x: configuration index)")
	for _, c := range curves {
		fmt.Fprintf(w, "\n%s / %s: %d configs, peak at %d (default %d, eff ratio peak/default %.2fx)\n",
			c.Platform, c.App, len(c.Efficiency), c.PeakIndex, c.DefaultIndex,
			c.Efficiency[c.PeakIndex]/c.Efficiency[c.DefaultIndex])
		chart(w, "efficiency", c.Efficiency, 10)
	}
}

func fig3CSV(w *bytes.Buffer, curves []experiments.Fig3Curve) {
	traceCSV(w, "config_index", func(set *trace.Set) {
		for _, c := range curves {
			set.Add(c.Platform + "/" + c.App).Values = c.Efficiency
		}
	})
}

// --------------------------------------------------------------- Table 4

type table4 struct {
	rounds int
	rows   []experiments.Table4Row
}

func computeTable4(scale float64) (table4, error) {
	rounds := experiments.ScaledIters(1000, scale)
	rows, err := experiments.Table4(rounds)
	return table4{rounds, rows}, err
}

func table4Text(w *bytes.Buffer, d table4) {
	race := "off"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				race = "on"
			}
		}
	}
	fmt.Fprintln(w, "Table 4 — runtime overhead (Decide+Observe per iteration, managing x264)")
	fmt.Fprintf(w, "regime: %d timed rounds per platform, one goroutine, race detector %s, no telemetry sink, %d CPUs\n",
		d.rounds, race, runtime.NumCPU())
	fmt.Fprintf(w, "%-8s %12s %14s\n", "platform", "sys configs", "latency (us)")
	for _, r := range d.rows {
		fmt.Fprintf(w, "%-8s %12d %14.2f\n", r.Platform, r.SysConfigs, r.LatencyUS)
	}
}

// ---------------------------------------------------------------- Fig. 4

func fig4Text(w *bytes.Buffer, traces []experiments.Fig4Trace) {
	fmt.Fprintln(w, "Fig. 4 — bodytrack energy/frame and accuracy (Mobile f=4, Tablet/Server f=3)")
	for _, tr := range traces {
		fmt.Fprintf(w, "%s (f=%.0f): rel err %.2f%%, mean acc %.4f, converged at iter %d of %d\n",
			tr.Platform, tr.Factor, tr.RelativeErr, tr.MeanAccuracy, tr.ConvergenceIter, len(tr.NormEnergy))
	}
	for _, tr := range traces {
		fmt.Fprintf(w, "\n%s:\n", tr.Platform)
		chart(w, "energy/frame (normalised to goal)", tr.NormEnergy, 7)
		chart(w, "accuracy", tr.Accuracy, 7)
	}
}

func fig4CSV(w *bytes.Buffer, traces []experiments.Fig4Trace) {
	traceCSV(w, "frame", func(set *trace.Set) {
		for _, tr := range traces {
			set.Add(tr.Platform + "/energy_norm").Values = tr.NormEnergy
			set.Add(tr.Platform + "/accuracy").Values = tr.Accuracy
		}
	})
}

// ------------------------------------------------------------ Figs. 5 & 6

// computeSweep runs the evaluation matrix and orders its cells by
// (platform, app, factor), the order both renderers print in.
func computeSweep(scale float64) ([]experiments.SweepCell, error) {
	cells, err := experiments.Sweep(nil, scale)
	sort.Slice(cells, func(a, b int) bool {
		ca, cb := cells[a], cells[b]
		if ca.Platform != cb.Platform {
			return ca.Platform < cb.Platform
		}
		if ca.App != cb.App {
			return ca.App < cb.App
		}
		return ca.Factor < cb.Factor
	})
	return cells, err
}

func sweepText(w *bytes.Buffer, cells []experiments.SweepCell) {
	fmt.Fprintln(w, "Fig. 5 — relative error (%) by platform / app / factor")
	sweepGrid(w, cells, func(c experiments.SweepCell) float64 { return c.RelativeError })
	fmt.Fprintln(w, "\nFig. 6 — effective accuracy by platform / app / factor")
	sweepGrid(w, cells, func(c experiments.SweepCell) float64 { return c.EffectiveAccuracy })
	var errs, accs []float64
	for _, c := range cells {
		errs = append(errs, c.RelativeError)
		accs = append(accs, c.EffectiveAccuracy)
	}
	es, as := metrics.Summarize(errs), metrics.Summarize(accs)
	fmt.Fprintf(w, "\nfeasible cells: %d of %d\n", len(cells), 3*8*len(experiments.PaperFactors))
	fmt.Fprintf(w, "relative error: mean %.2f%%, p50 %.2f%%, p90 %.2f%%, max %.2f%%\n", es.Mean, es.P50, es.P90, es.Max)
	fmt.Fprintf(w, "effective accuracy: mean %.3f, min %.3f, max %.3f\n", as.Mean, as.Min, as.Max)
}

// sweepGrid prints one value per (platform, app) row and factor column;
// cells is sorted, so rows arrive grouped and in order. An infeasible
// cell prints "-": no bar, as in the paper.
func sweepGrid(w *bytes.Buffer, cells []experiments.SweepCell, val func(experiments.SweepCell) float64) {
	fmt.Fprintf(w, "%-8s %-14s", "platform", "app")
	for _, f := range experiments.PaperFactors {
		fmt.Fprintf(w, " %6.2fx", f)
	}
	fmt.Fprintln(w)
	for i := 0; i < len(cells); {
		plat, app := cells[i].Platform, cells[i].App
		fmt.Fprintf(w, "%-8s %-14s", plat, app)
		for _, f := range experiments.PaperFactors {
			if i < len(cells) && cells[i].Platform == plat && cells[i].App == app && cells[i].Factor == f {
				fmt.Fprintf(w, " %7.2f", val(cells[i]))
				i++
			} else {
				fmt.Fprintf(w, " %7s", "-")
			}
		}
		fmt.Fprintln(w)
	}
}

func sweepCSV(w *bytes.Buffer, cells []experiments.SweepCell) {
	w.WriteString("platform,app,factor,rel_error_pct,effective_accuracy,mean_accuracy,oracle_accuracy\n")
	for _, c := range cells {
		fmt.Fprintf(w, "%s,%s,%.2f,%.3f,%.4f,%.4f,%.4f\n",
			c.Platform, c.App, c.Factor, c.RelativeError, c.EffectiveAccuracy, c.MeanAccuracy, c.OracleAccuracy)
	}
}

// ---------------------------------------------------------------- Fig. 7

func fig7Text(w *bytes.Buffer, results []experiments.Fig7Result) {
	fmt.Fprintln(w, "Fig. 7 — JouleGuard vs application-only vs system-only on Server (higher accuracy is better)")
	var points, shared, ahead int
	for _, r := range results {
		fmt.Fprintf(w, "\n%s (system-only can reach %.2fx at full accuracy)\n", r.App, r.SysOnlyMaxFactor)
		fmt.Fprintf(w, "  %8s %12s %12s %10s\n", "goal", "JouleGuard", "App-only", "gap")
		for _, p := range r.Points {
			points++
			if !p.Feasible {
				fmt.Fprintf(w, "  %7.2fx %12.4f %12s\n", p.Factor, p.JouleGuard, "infeasible")
				continue
			}
			shared++
			gap := p.JouleGuard - p.AppOnly
			if gap > -0.00005 { // no worse at the four decimals printed
				ahead++
			}
			fmt.Fprintf(w, "  %7.2fx %12.4f %12.4f %+10.4f\n", p.Factor, p.JouleGuard, p.AppOnly, gap)
		}
	}
	fmt.Fprintf(w, "\napplication-only is infeasible at %d of %d goals; at the %d goals both can reach, JouleGuard's accuracy is at least application-only's (to the four decimals shown) at %d\n",
		points-shared, points, shared, ahead)
}

func fig7CSV(w *bytes.Buffer, results []experiments.Fig7Result) {
	w.WriteString("app,factor,jouleguard_acc,apponly_acc,apponly_feasible,sysonly_max_factor\n")
	for _, r := range results {
		for _, p := range r.Points {
			fmt.Fprintf(w, "%s,%.3f,%.4f,%.4f,%v,%.3f\n",
				r.App, p.Factor, p.JouleGuard, p.AppOnly, p.Feasible, r.SysOnlyMaxFactor)
		}
	}
}

// ---------------------------------------------------------------- Fig. 8

type fig8 struct {
	framesPer int
	traces    []experiments.Fig8Trace
}

func fig8Text(w *bytes.Buffer, d fig8) {
	fmt.Fprintf(w, "Fig. 8 — phase adaptation: x264, 3 scenes x %d frames, f=2\n", d.framesPer)
	fmt.Fprintf(w, "%-8s %10s %12s %12s %12s\n", "platform", "rel err(%)", "scene-1 acc", "scene-2 acc", "scene-3 acc")
	for _, tr := range d.traces {
		fmt.Fprintf(w, "%-8s %10.2f %12.4f %12.4f %12.4f\n",
			tr.Platform, tr.RelativeErr, tr.PhaseAccuracy[0], tr.PhaseAccuracy[1], tr.PhaseAccuracy[2])
	}
	for _, tr := range d.traces {
		fmt.Fprintf(w, "\n%s:\n", tr.Platform)
		chart(w, "energy/frame (normalised to goal)", tr.NormEnergy, 7)
		chart(w, "accuracy", tr.Accuracy, 7)
	}
}

func fig8CSV(w *bytes.Buffer, d fig8) {
	traceCSV(w, "frame", func(set *trace.Set) {
		for _, tr := range d.traces {
			set.Add(tr.Platform + "/energy_norm").Values = tr.NormEnergy
			set.Add(tr.Platform + "/accuracy").Values = tr.Accuracy
		}
	})
}

// ------------------------------------------------------------- Ablations

type ablation struct {
	name, app, plat string
	factor          float64
	run             func(app, plat string, factor, scale float64) ([]experiments.AblationResult, error)
	results         []experiments.AblationResult
}

// computeAblations runs each design choice on the case that stresses it:
// the 1,024-configuration Server with swish++'s accuracy cliff, and
// bodytrack/Tablet for the EWMA gain.
func computeAblations(scale float64) ([]ablation, error) {
	kinds := []ablation{
		{name: "pole", app: "swish++", plat: "Server", factor: 1.75, run: experiments.AblationPole},
		{name: "priors", app: "swish++", plat: "Server", factor: 1.5, run: experiments.AblationPriors},
		{name: "exploration", app: "swish++", plat: "Server", factor: 1.5, run: experiments.AblationExploration},
		{name: "estimator", app: "swish++", plat: "Server", factor: 1.5, run: experiments.AblationEstimator},
		{name: "alpha", app: "bodytrack", plat: "Tablet", factor: 2.0, run: experiments.AblationAlpha},
	}
	for i := range kinds {
		k := &kinds[i]
		var err error
		if k.results, err = k.run(k.app, k.plat, k.factor, scale); err != nil {
			return nil, fmt.Errorf("%s: %w", k.name, err)
		}
	}
	return kinds, nil
}

func ablationsText(w *bytes.Buffer, kinds []ablation) {
	fmt.Fprintln(w, "Ablations — one design choice varied at a time")
	for _, k := range kinds {
		fmt.Fprintf(w, "\n%s (%s on %s, f=%.2f)\n", k.name, k.app, k.plat, k.factor)
		fmt.Fprintf(w, "  %-28s %12s %12s %12s\n", "variant", "rel err(%)", "eff acc", "mean acc")
		for _, r := range k.results {
			fmt.Fprintf(w, "  %-28s %12.2f %12.3f %12.4f\n", r.Variant, r.RelativeError, r.EffectiveAccuracy, r.MeanAccuracy)
		}
	}
}

// ------------------------------------------------------------ Extensions

func robustnessText(w *bytes.Buffer, cells []experiments.RobustnessCell) {
	fmt.Fprintln(w, "Extension — sustained load variation (diurnal 0.6x-1.6x swings, 2.2x bursts)")
	fmt.Fprintf(w, "%-14s %-8s %6s %-8s %12s %10s\n", "app", "platform", "goal", "shape", "rel err(%)", "mean acc")
	for _, c := range cells {
		fmt.Fprintf(w, "%-14s %-8s %5.2fx %-8s %12.2f %10.4f\n",
			c.App, c.Platform, c.Factor, c.Shape, c.RelativeError, c.MeanAccuracy)
	}
}

type disturbance struct {
	app, plat string
	factor    float64
	results   []experiments.DisturbanceResult
}

// computeDisturbance runs the easy case (radar on Tablet, far inside its
// operating range) and the hard one (x264 on Server, near its budget
// with a 1,024-arm learner).
func computeDisturbance(scale float64) ([]disturbance, error) {
	cases := []disturbance{
		{app: "radar", plat: "Tablet", factor: 2.0},
		{app: "x264", plat: "Server", factor: 2.5},
	}
	for i := range cases {
		c := &cases[i]
		var err error
		if c.results, err = experiments.Disturbance(c.app, c.plat, c.factor, scale); err != nil {
			return nil, err
		}
	}
	return cases, nil
}

func disturbanceText(w *bytes.Buffer, cases []disturbance) {
	fmt.Fprintln(w, "Extension — external disturbance (a co-located job takes 35% of throughput and adds 15% power for the middle third of the run)")
	for _, c := range cases {
		fmt.Fprintf(w, "\n%s on %s, f=%.2f\n", c.app, c.plat, c.factor)
		fmt.Fprintf(w, "  %-28s %12s %12s %16s\n", "run", "rel err(%)", "mean acc", "acc in window")
		for _, r := range c.results {
			fmt.Fprintf(w, "  %-28s %12.2f %12.4f %16.4f\n", r.Label, r.RelativeError, r.MeanAccuracy, r.DisturbedAccuracy)
		}
	}
}
