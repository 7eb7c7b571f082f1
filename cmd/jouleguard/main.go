// Command jouleguard is the paper side of the reproduction in one
// binary.
//
//	jouleguard [-app A -platform P -f F ...]   one run: one benchmark, one platform, one energy goal
//	jouleguard <artefact> [-scale S] [-csv]    print one table or figure of the evaluation
//	jouleguard replicate [-scale S] [-out DIR] write every artefact to DIR/<name>.txt (and .csv)
//
// The artefacts are fig1 table2 table3 fig3 table4 fig4 fig5_6 fig7 fig8
// ablations robustness disturbance (artefacts.go). Each has one
// renderer, so what a subcommand prints, what replicate writes and what
// TestResultsCurrent compares against the committed results/ are the
// same bytes.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"jouleguard"
	"jouleguard/internal/experiments"
	"jouleguard/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments, streams and exit status made explicit.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		return runArtefact(args[0], args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("jouleguard", flag.ContinueOnError)
	fs.SetOutput(stderr)
	appName := fs.String("app", "x264", "benchmark (x264, swaptions, bodytrack, swish++, radar, canneal, ferret, streamcluster)")
	platName := fs.String("platform", "Server", "platform (Mobile, Tablet, Server)")
	factor := fs.Float64("f", 2.0, "energy reduction factor vs the default configuration")
	iters := fs.Int("iters", 0, "iterations (0 = platform default)")
	trials := fs.Int("trials", 1, "repeat the run under different seeds and report mean +/- std")
	dump := fs.String("dump", "", "write the per-iteration run record to this CSV file")
	serve := fs.String("serve", "", "serve live telemetry on this address (e.g. :8080) while running the experiment repeatedly: /metrics, /healthz, /decisions, /debug/pprof")
	runs := fs.Int("runs", 0, "with -serve: stop after this many runs (0 = run until interrupted)")
	if !parseAll(fs, args, stderr) {
		return 2
	}
	dumpPath = *dump

	switch {
	case *serve != "":
		runServe(*appName, *platName, *factor, *iters, *serve, *runs)
	case *trials > 1:
		runTrials(*appName, *platName, *factor, *trials)
	default:
		runOne(*appName, *platName, *factor, *iters)
	}
	return 0
}

// parseAll parses args and refuses anything left over: a stray word is
// a mistyped subcommand or flag, and running without it would silently
// do something else. False means the caller exits 2.
func parseAll(fs *flag.FlagSet, args []string, stderr io.Writer) bool {
	if fs.Parse(args) != nil {
		return false // the flag set has printed the error and its usage
	}
	if fs.NArg() > 0 {
		usageError(stderr, fmt.Sprintf("unexpected argument %q", fs.Arg(0)))
		return false
	}
	return true
}

// usageError reports a command line this binary will not guess at, with
// the names it does know.
func usageError(stderr io.Writer, msg string) {
	fmt.Fprintf(stderr, "jouleguard: %s\nartefacts: %s, or replicate for all of them\n",
		msg, strings.Join(artefactNames(), " "))
}

// runArtefact is `jouleguard <artefact>` and `jouleguard replicate`.
func runArtefact(name string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("jouleguard "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Float64("scale", 1.0, "run-length scale (1.0 = the paper's run lengths)")
	if name == "replicate" {
		out := fs.String("out", "results", "output directory")
		if !parseAll(fs, args, stderr) {
			return 2
		}
		if err := replicate(*out, *scale, stdout); err != nil {
			fail(err)
		}
		return 0
	}
	a, ok := findArtefact(name)
	if !ok {
		usageError(stderr, fmt.Sprintf("unknown artefact %q", name))
		return 2
	}
	csv := fs.Bool("csv", false, "emit CSV instead of text")
	if !parseAll(fs, args, stderr) {
		return 2
	}
	if *csv && !a.hasCSV {
		usageError(stderr, name+" has no CSV form")
		return 2
	}
	text, csvBytes, err := a.render(*scale)
	if err != nil {
		fail(err)
	}
	if *csv {
		text = csvBytes
	}
	if _, err := stdout.Write(text); err != nil {
		fail(err)
	}
	return 0
}

// replicate walks the artefact table into dir: <name>.txt for every row,
// <name>.csv where the row has a CSV form. Progress goes to log.
func replicate(dir string, scale float64, log io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, a := range artefacts {
		fmt.Fprintf(log, "replicating %s...\n", a.name)
		text, csv, err := a.render(scale)
		if err != nil {
			return fmt.Errorf("%s: %w", a.name, err)
		}
		if err := os.WriteFile(filepath.Join(dir, a.name+".txt"), text, 0o644); err != nil {
			return err
		}
		if a.hasCSV {
			if err := os.WriteFile(filepath.Join(dir, a.name+".csv"), csv, 0o644); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(log, "done: results in %s/\n", dir)
	return nil
}

func runTrials(appName, platName string, factor float64, trials int) {
	st, err := experiments.RunTrials(appName, platName, factor, 1.0, trials)
	if err != nil {
		fail(err)
	}
	fmt.Printf("%s on %s, f=%.2f over %d seeded trials\n", appName, platName, factor, st.Trials)
	fmt.Printf("  relative error    : %.2f%% +/- %.2f%%\n", st.RelErrMean, st.RelErrStd)
	fmt.Printf("  effective accuracy: %.3f +/- %.3f\n", st.EffAccMean, st.EffAccStd)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// runServe runs the experiment repeatedly (a fresh seed per run) with
// live telemetry exposed over HTTP: the metric registry at /metrics, a
// liveness probe at /healthz, the decision flight recorder at /decisions
// (JSONL) and the standard pprof endpoints under /debug/pprof/.
func runServe(appName, platName string, factor float64, iters int, addr string, runs int) {
	tb, err := jouleguard.NewTestbed(appName, platName)
	if err != nil {
		fail(err)
	}
	if iters <= 0 {
		iters = experiments.ItersFor(platName, 1.0)
	}
	// Size the flight recorder to hold at least one whole run so
	// /decisions can replay it end to end.
	tel := jouleguard.NewTelemetry(iters)
	jouleguard.SetRunnerTelemetry(tel)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fail(err)
	}
	fmt.Printf("telemetry on http://%s  (/metrics /healthz /decisions /debug/pprof)\n", ln.Addr())
	// The exposition endpoints come from the shared mux builder in
	// internal/telemetry — the same wiring cmd/jouleguardd mounts its
	// session protocol next to.
	mux := http.NewServeMux()
	tel.Mount(mux)
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			fail(err)
		}
	}()
	goal := tb.DefaultEnergy / factor
	for r := 0; runs <= 0 || r < runs; r++ {
		gov, err := tb.NewJouleGuard(factor, iters, jouleguard.Options{
			Telemetry: tel,
			Seed:      int64(r + 1),
		})
		if err != nil {
			fail(err)
		}
		rec, err := tb.Run(gov, iters)
		if err != nil {
			fail(err)
		}
		epi := rec.EnergyPerIterAvg()
		fmt.Printf("run %d: %s on %s f=%.2f  energy/iter %.4f J (goal %.4f, %+.2f%%)  accuracy %.4f\n",
			r+1, appName, platName, factor, epi, goal, (epi-goal)/goal*100, rec.MeanAccuracy())
	}
}

// dumpPath, when set, receives the per-iteration CSV of single runs.
var dumpPath string

func maybeDump(rec *jouleguard.Record) {
	if dumpPath == "" {
		return
	}
	f, err := os.Create(dumpPath)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	if err := rec.WriteCSV(f); err != nil {
		fail(err)
	}
	fmt.Printf("per-iteration record written to %s\n", dumpPath)
}

func runOne(appName, platName string, factor float64, iters int) {
	tb, err := jouleguard.NewTestbed(appName, platName)
	if err != nil {
		fail(err)
	}
	if iters <= 0 {
		iters = experiments.ItersFor(platName, 1.0)
	}
	gov, err := tb.NewJouleGuard(factor, iters, jouleguard.Options{})
	if err != nil {
		fail(err)
	}
	rec, err := tb.Run(gov, iters)
	if err != nil {
		fail(err)
	}
	goal := tb.DefaultEnergy / factor
	epi := rec.EnergyPerIterAvg()
	fmt.Printf("%s on %s, f=%.2f over %d iterations\n", appName, platName, factor, iters)
	fmt.Printf("  default energy/iter : %.4f J (%.1f W at %.2f iters/s)\n", tb.DefaultEnergy, tb.DefaultPower, tb.DefaultRate)
	fmt.Printf("  goal energy/iter    : %.4f J\n", goal)
	fmt.Printf("  achieved energy/iter: %.4f J", epi)
	if epi > goal {
		fmt.Printf("  (+%.2f%% over goal)", (epi-goal)/goal*100)
	} else {
		fmt.Printf("  (goal met)")
	}
	fmt.Println()
	fmt.Printf("  mean accuracy       : %.4f\n", rec.MeanAccuracy())
	if orc, err := tb.NewOracle(); err == nil {
		if pt, ok := orc.BestAccuracyForFactor(factor); ok {
			fmt.Printf("  oracle accuracy     : %.4f (effective accuracy %.3f)\n",
				pt.AppPoint.Accuracy, rec.MeanAccuracy()/pt.AppPoint.Accuracy)
		} else {
			fmt.Println("  oracle              : goal infeasible even with perfect knowledge")
		}
	}
	if gov.Infeasible() {
		fmt.Println("  runtime verdict     : goal infeasible — delivering minimum energy (Sec. 3.4.3)")
	}
	fmt.Println()
	norm := make([]float64, len(rec.EnergyPerIter))
	for i, e := range rec.EnergyPerIter {
		norm[i] = e / goal
	}
	fmt.Print(trace.ASCIIChart(&trace.Series{Name: "energy/iter (normalised to goal)", Values: norm}, 72, 7))
	fmt.Print(trace.ASCIIChart(&trace.Series{Name: "accuracy", Values: rec.Accuracies}, 72, 7))
	maybeDump(rec)
}
