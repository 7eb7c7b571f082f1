// Command chaos is the robustness regression harness: it sweeps
// benchmarks x platforms x fault scenarios, running JouleGuard with
// corrupted sensing, clocks and actuation, and reports whether the
// energy guarantee held against ground truth in every cell. A run exits
// nonzero if any cell breaks the guarantee, so it can gate CI.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"jouleguard"
	"jouleguard/internal/experiments"
)

func main() {
	scale := flag.Float64("scale", 1.0, "run-length scale (1.0 = full experiment)")
	factor := flag.Float64("factor", 1.5, "energy-reduction factor (budget = default energy / factor)")
	appsFlag := flag.String("apps", "", "comma-separated benchmarks (empty = all eight)")
	platsFlag := flag.String("platforms", "", "comma-separated platforms (empty = all three)")
	scenariosFlag := flag.String("scenarios", "", "comma-separated scenario names (empty = full suite)")
	csv := flag.Bool("csv", false, "emit CSV rows")
	quick := flag.Bool("quick", false, "smoke mode: three representative benchmarks at -scale 0.5")
	flag.Parse()
	if flag.NArg() > 0 {
		// `chaos quick` must not quietly run the full matrix.
		fmt.Fprintf(os.Stderr, "chaos: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	appNames := splitList(*appsFlag)
	platNames := splitList(*platsFlag)
	if *quick {
		if len(appNames) == 0 && len(platNames) == 0 {
			// One representative benchmark per platform keeps the smoke
			// run minutes-scale while still crossing every platform.
			appNames = []string{"radar", "x264", "swaptions"}
		}
		if *scale == 1.0 {
			// Short runs on the Server's 1024-configuration space are still
			// mid-exploration; half scale is the smallest reliably
			// converged smoke run.
			*scale = 0.5
		}
	}
	scenarios, err := jouleguard.FaultScenariosByName(splitList(*scenariosFlag))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	cells, skipped, err := experiments.Chaos(appNames, platNames, scenarios, *factor, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	sort.Slice(cells, func(a, b int) bool {
		ca, cb := cells[a], cells[b]
		if ca.Platform != cb.Platform {
			return ca.Platform < cb.Platform
		}
		if ca.App != cb.App {
			return ca.App < cb.App
		}
		return ca.Scenario < cb.Scenario
	})

	if *csv {
		fmt.Println("platform,app,scenario,factor,iterations,energy_j,budget_j,ratio,mean_accuracy,actuator_failures,guard_accepted,guard_rejected,degrade_events,faults_injected,pass")
		for _, c := range cells {
			fmt.Printf("%s,%s,%s,%.2f,%d,%.2f,%.2f,%.4f,%.4f,%d,%d,%d,%d,%d,%v\n",
				c.Platform, c.App, c.Scenario, c.Factor, c.Iterations,
				c.EnergyJ, c.BudgetJ, c.BudgetRatio, c.MeanAccuracy,
				c.ActuatorFailures, c.GuardAccepted, c.GuardRejected, c.DegradeEvents, c.FaultsInjected, c.Pass)
		}
	} else {
		fmt.Printf("chaos sweep: factor %.2fx, tolerance %.0f%% of budget\n\n", *factor, experiments.ChaosTolerance*100)
		fmt.Printf("%-8s %-14s %-16s %8s %8s %7s %6s %6s  %s\n",
			"platform", "app", "scenario", "energy", "budget", "ratio", "acc", "rej", "verdict")
		for _, c := range cells {
			verdict := "ok"
			if !c.Pass {
				verdict = "FAIL"
			}
			fmt.Printf("%-8s %-14s %-16s %8.1f %8.1f %7.3f %6d %6d  %s\n",
				c.Platform, c.App, c.Scenario, c.EnergyJ, c.BudgetJ, c.BudgetRatio,
				c.GuardAccepted, c.GuardRejected, verdict)
		}
		printScenarioTelemetry(cells)
	}

	fails := experiments.ChaosFailures(cells)
	fmt.Printf("\n%d cells run, %d skipped as infeasible, %d failed\n", len(cells), skipped, len(fails))
	if len(fails) > 0 {
		for _, c := range fails {
			fmt.Fprintf(os.Stderr, "FAIL %s/%s under %s: %.1f J vs budget %.1f J (%.1f%% over)\n",
				c.Platform, c.App, c.Scenario, c.EnergyJ, c.BudgetJ, (c.BudgetRatio-1)*100)
		}
		os.Exit(1)
	}
}

// printScenarioTelemetry aggregates each scenario's telemetry across all
// (app, platform) cells into one line: how hard the injector actually
// hit the run, and how the defences responded.
func printScenarioTelemetry(cells []experiments.ChaosCell) {
	type agg struct {
		faults, rejects, trips, actFails, n int
	}
	byScenario := map[string]*agg{}
	var order []string
	for _, c := range cells {
		a := byScenario[c.Scenario]
		if a == nil {
			a = &agg{}
			byScenario[c.Scenario] = a
			order = append(order, c.Scenario)
		}
		a.faults += c.FaultsInjected
		a.rejects += c.GuardRejected
		a.trips += c.DegradeEvents
		a.actFails += c.ActuatorFailures
		a.n++
	}
	sort.Strings(order)
	fmt.Println("\ntelemetry by scenario (summed over cells):")
	for _, name := range order {
		a := byScenario[name]
		fmt.Printf("  %-16s %6d faults injected, %6d guard rejects, %3d watchdog trips, %5d actuation failures  (%d cells)\n",
			name, a.faults, a.rejects, a.trips, a.actFails, a.n)
	}
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
