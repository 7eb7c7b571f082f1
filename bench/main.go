// Command bench is the repository's fixed-regime benchmark: seven named
// workloads, each measured end to end from outside the code it measures,
// plus a traced run that decomposes the same workload layer by layer.
// See README.md for the regime, the metrics and how they interact.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// runConfig is one run's knobs; everything else is fixed by the regime.
type runConfig struct {
	seed    int64
	seconds float64 // nominal length of the timed part at the seed commit
	smoke   bool    // N/1000: exercises the checks, measures nothing
	trace   bool
	// setupOnly ends the run at the first timed operation: the parent
	// run repeats set-up in fresh processes to report a median.
	setupOnly bool
	outDir    string
}

// refSeconds is the run length the workloads' base sizes are quoted at:
// the run_seconds BENCHMARK.json registers.
const refSeconds = 12

// setupRuns is how many cold set-ups one run measures (its own and
// fresh child processes) to report their median as setup_s.
const setupRuns = 5

// size scales a workload's base iteration count to the run: work is
// fixed by count, never by wall time, so two commits do identical work.
func (c runConfig) size(base int) int {
	n := float64(base) * c.seconds / refSeconds
	if c.smoke {
		n = float64(base) / 1000
	}
	return max(int(math.Round(n)), 2*segments)
}

// args renders the configuration as the flags that reproduce it.
func (c runConfig) args(workload string) []string {
	a := []string{"-workload", workload, "-seed", strconv.FormatInt(c.seed, 10),
		"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64), "-out", c.outDir}
	if c.smoke {
		a = append(a, "-smoke")
	}
	if c.trace {
		a = append(a, "-trace", "1")
	}
	return a
}

func regimeLine(cfg runConfig, w workload) string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 7 {
				commit = s.Value[:7]
			}
		}
	}
	return fmt.Sprintf("commit=%s go=%s nproc=%d gomaxprocs=%d race=off wire=%s loop=%s tenants=%d seed=%d seconds=%g smoke=%t trace=%t",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), w.wire, w.loop,
		tenantsPerRun, cfg.seed, cfg.seconds, cfg.smoke, cfg.trace)
}

func main() {
	var (
		name      = flag.String("workload", "all", "workload name, or all: every workload, each in a fresh process")
		seed      = flag.Int64("seed", 1, "seed for the harness's generators")
		seconds   = flag.Float64("seconds", refSeconds, "nominal length of the timed part (scales every workload's fixed size)")
		trace     = flag.Int("trace", 0, "1: traced run (per-layer metrics and the latency ladder)")
		smoke     = flag.Bool("smoke", false, "run at N/1000 to exercise the output checks")
		verify    = flag.Bool("verify", false, "run the full set twice and compare every end-to-end metric against its bound")
		setupOnly = flag.Bool("setup-only", false, "stop at the first timed operation and print setup_s (used by the parent run)")
		outDir    = flag.String("out", "bench/out", "directory for span files")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, smoke: *smoke, trace: *trace != 0, setupOnly: *setupOnly, outDir: *outDir}
	switch {
	case *verify:
		os.Exit(verifyRuns(cfg))
	case *name == "all":
		os.Exit(runAll(cfg))
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	rep := runWorkload(w, cfg)
	rep.print(os.Stdout)
	if !cfg.setupOnly {
		fmt.Println(rep.jsonLine(cfg.trace))
	}
	if len(rep.violations) > 0 || rep.failed > 0 {
		os.Exit(1)
	}
}

// runWorkload sets the workload up, runs it and returns its report.
func runWorkload(w workload, cfg runConfig) *report {
	rep := &report{workload: w.name, regime: regimeLine(cfg, w)}
	e, err := w.setup(cfg)
	if err != nil {
		rep.violate("set-up: %v", err)
		rep.failed++
		return rep
	}
	if cfg.trace {
		tracePass(rep, e, cfg)
		e.close()
		return rep
	}
	e.run(rep)
	e.close() // before the fresh-process set-ups: they get the box to themselves
	if cfg.setupOnly {
		return rep
	}
	setups := []float64{}
	if v, ok := rep.get("setup_s"); ok {
		setups = append(setups, v)
	}
	if !cfg.smoke {
		for len(setups) < setupRuns {
			v, err := childSetup(w.name, cfg)
			if err != nil {
				rep.violate("set-up in a fresh process: %v", err)
				break
			}
			setups = append(setups, v)
		}
	}
	rep.setCommon(setups)
	return rep
}

// self is the running binary, re-executed for fresh-process passes.
func self(args ...string) *exec.Cmd {
	exe, err := os.Executable()
	if err != nil {
		exe = os.Args[0]
	}
	return exec.Command(exe, args...)
}

// childSetup measures one cold set-up in a fresh process.
func childSetup(workload string, cfg runConfig) (float64, error) {
	out, err := self(append(cfg.args(workload), "-setup-only")...).Output()
	if err != nil {
		return 0, fmt.Errorf("%w: %s", err, lastLines(out, 3))
	}
	for _, m := range parseMetrics(out) {
		if m.name == "setup_s" {
			return m.v, nil
		}
	}
	return 0, fmt.Errorf("no setup_s in the child's output")
}

func lastLines(out []byte, n int) string {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}

// parseMetrics reads back the "metric" lines report.print wrote.
func parseMetrics(out []byte) []value {
	var vals []value
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || f[0] != "metric" {
			continue
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			continue
		}
		vals = append(vals, value{name: f[1], unit: f[3], v: v})
	}
	return vals
}

// runChild runs one workload in a fresh process, so no cache, heap or
// connection pool leaks from one workload into the next.
func runChild(w workload, cfg runConfig, echo bool) (out []byte, ok bool) {
	cmd := self(cfg.args(w.name)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if echo {
		os.Stdout.Write(out)
	}
	return out, err == nil
}

// runAll runs every workload and returns the process exit code.
func runAll(cfg runConfig) int {
	code := 0
	for _, w := range workloads {
		if _, ok := runChild(w, cfg, true); !ok {
			fmt.Printf("workload %s FAILED\n", w.name)
			code = 1
		}
		fmt.Println()
	}
	return code
}

// verifyRuns runs the full set twice on the same tree and holds every
// end-to-end metric to its bound; metrics that are functions of the seed
// alone must repeat bit for bit.
func verifyRuns(cfg runConfig) int {
	code := 0
	for _, w := range workloads {
		var sets [2][]value
		var digests [2]string
		for i := range sets {
			out, ok := runChild(w, cfg, false)
			if !ok {
				fmt.Printf("verify %s: run %d FAILED\n%s\n", w.name, i+1, lastLines(out, 12))
				code = 1
			}
			sets[i] = parseMetrics(out)
			for _, line := range strings.Split(string(out), "\n") {
				if strings.HasPrefix(line, "digest ") {
					digests[i] = line
				}
			}
		}
		if digests[0] != digests[1] {
			fmt.Printf("verify %-15s decision digest                     FAIL: %q then %q\n", w.name, digests[0], digests[1])
			code = 1
		}
		for _, a := range sets[0] {
			d, _ := endToEndDef(a.name)
			var b *value
			for j := range sets[1] {
				if sets[1][j].name == a.name {
					b = &sets[1][j]
				}
			}
			if b == nil {
				fmt.Printf("verify %-15s %-18s missing from the second run\n", w.name, a.name)
				code = 1
				continue
			}
			diff, verdict := relDiff(a.v, b.v), "ok"
			if d.abs {
				diff = math.Abs(a.v - b.v)
			}
			switch {
			case d.exact && a.v != b.v:
				verdict = "FAIL: must repeat exactly"
			case !d.exact && diff > d.bound:
				verdict = "FAIL: beyond its bound"
			}
			if verdict != "ok" {
				code = 1
			}
			fmt.Printf("verify %-15s %-18s %-22s %-22s %s spread=%.4g bound=%s %s\n",
				w.name, a.name, formatValue(a.v), formatValue(b.v), a.unit, diff, boundString(d), verdict)
		}
	}
	if code == 0 {
		fmt.Println("verify passed: every end-to-end metric repeated within its bound")
	} else {
		fmt.Println("verify FAILED")
	}
	return code
}
