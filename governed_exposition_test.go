package jouleguard_test

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"jouleguard"
	"jouleguard/internal/server"
	"jouleguard/internal/telemetry"
	"jouleguard/internal/wire"
)

// wallClockFamilies are the metric families TestGovernedExposition
// leaves out because their samples time the host, not the governed run:
// jouleguardd_decision_seconds is the daemon's wall-clock decision
// latency.
var wallClockFamilies = map[string]bool{
	"jouleguardd_decision_seconds": true,
}

// flakyMeter is a deterministic faulty energy meter over a fakeMachine:
// single read errors, spikes, a frozen counter and two long outages (each
// longer than the watchdog's streak), keyed by the read's index, so the
// sensing guard rules with several reasons and the runtime's watchdog
// trips.
type flakyMeter struct {
	m      *fakeMachine
	n      int
	prev   float64 // true counter at the previous read
	frozen float64
}

func (f *flakyMeter) read() (float64, error) {
	i, e := f.n, f.m.energyJ
	f.n++
	defer func() { f.prev = e }()
	switch {
	case i >= 60 && i < 76, i >= 170 && i < 181:
		return 0, errors.New("meter offline")
	case i == 120:
		f.frozen = e
	case i > 120 && i < 130:
		return f.frozen, nil
	case i%23 == 7:
		return 0, errors.New("meter read failed")
	case i%17 == 5:
		return e + 20*(e-f.prev), nil
	}
	return e, nil
}

// governedRuns drives every path that reports governor events into a
// live telemetry sink and returns each run's exposition, wall-clock
// families removed, one section per run.
func governedRuns(t *testing.T) []byte {
	t.Helper()
	var out bytes.Buffer
	section := func(name string, tel *telemetry.Telemetry) {
		fmt.Fprintf(&out, "## %s\n", name)
		out.Write(exposition(t, tel))
	}

	// OnlineController + Runtime, library path, on every platform.
	const onlineIters = 300
	for _, plat := range []string{"Mobile", "Tablet", "Server"} {
		tel := telemetry.New(0)
		tb, err := jouleguard.NewTestbed("radar", plat)
		if err != nil {
			t.Fatal(err)
		}
		gov, err := tb.NewJouleGuard(1.5, onlineIters, jouleguard.Options{Telemetry: tel})
		if err != nil {
			t.Fatal(err)
		}
		m := &fakeMachine{tb: tb}
		meter := &flakyMeter{m: m}
		ctl, err := jouleguard.NewOnline(gov, meter.read, func() float64 { return m.clock })
		if err != nil {
			t.Fatal(err)
		}
		ctl.SetTelemetry(tel)
		for i := 0; i < onlineIters; i++ {
			appCfg, sysCfg := ctl.Next()
			m.apply(appCfg, sysCfg)
			m.work()
			if err := ctl.Done(0.9); err != nil {
				t.Fatalf("%s iteration %d: %v", plat, i, err)
			}
		}
		section("online radar "+plat, tel)
	}

	// The simulation engine: a clean run and a faulty one, whose guard
	// has no sink, so the guard counters stay 0 while the watchdog and the
	// fault channels count.
	{
		tel := telemetry.New(0)
		tb, err := jouleguard.NewTestbed("x264", "Mobile")
		if err != nil {
			t.Fatal(err)
		}
		gov, err := tb.NewJouleGuard(1.5, 200, jouleguard.Options{Telemetry: tel})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tb.Run(gov, 200); err != nil {
			t.Fatal(err)
		}
		scenarios, err := jouleguard.FaultScenariosByName([]string{"dropout-20", "stuck"})
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range scenarios {
			gov, err := tb.NewJouleGuard(1.5, 400, jouleguard.Options{Telemetry: tel})
			if err != nil {
				t.Fatal(err)
			}
			inj := sc.Make(7, 0.01)
			inj.Sink = tel
			if _, err := tb.RunFaulty(gov, 400, inj); err != nil {
				t.Fatal(err)
			}
		}
		section("testbed x264 Mobile", tel)
	}

	// The approximate-hardware runtime.
	{
		tel := telemetry.New(0)
		unit, err := jouleguard.NewHardwareUnit(8, 0.5, 1)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := jouleguard.NewHardwareTestbed(unit, "Tablet")
		if err != nil {
			t.Fatal(err)
		}
		gov, err := tb.NewJouleGuard(1.3, 200, jouleguard.Options{Telemetry: tel})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tb.Run(gov, 200); err != nil {
			t.Fatal(err)
		}
		section("hardware Tablet", tel)
	}

	// In-process daemon sessions: one closed after its run, one left open,
	// both fed meter errors and spikes.
	{
		tel := telemetry.New(0)
		epoch := time.Unix(1_700_000_000, 0)
		srv, err := server.New(server.Config{GlobalBudgetJ: 1e6, SweepInterval: -1, Telemetry: tel,
			Clock: func() time.Time { return epoch }})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			_ = srv.Shutdown(ctx)
		}()
		const iters = 150
		for n, plat := range []string{"Tablet", "Mobile"} {
			tb, err := jouleguard.NewTestbed("radar", plat)
			if err != nil {
				t.Fatal(err)
			}
			budget, err := tb.Budget(1.5, iters)
			if err != nil {
				t.Fatal(err)
			}
			reg, err := srv.Register(wire.RegisterRequest{Tenant: fmt.Sprintf("t%d", n), App: "radar",
				Platform: plat, Iterations: iters, BudgetJ: budget, Seed: int64(n + 1)})
			if err != nil {
				t.Fatal(err)
			}
			m := &fakeMachine{tb: tb}
			meter := &flakyMeter{m: m}
			for i := 0; i < iters; i++ {
				nx, err := srv.Next(reg.SessionID, wire.NextRequest{NowS: m.clock})
				if err != nil {
					t.Fatalf("session %d next %d: %v", n, i, err)
				}
				m.apply(nx.AppConfig, nx.SysConfig)
				m.work()
				e, rerr := meter.read()
				if _, err := srv.Done(reg.SessionID, wire.DoneRequest{NowS: m.clock, EnergyJ: e,
					EnergyErr: rerr != nil, Accuracy: 0.9}); err != nil {
					t.Fatalf("session %d done %d: %v", n, i, err)
				}
			}
			if n == 0 {
				if _, err := srv.Close(reg.SessionID); err != nil {
					t.Fatal(err)
				}
			}
		}
		section("server radar Tablet+Mobile", tel)
	}
	return out.Bytes()
}

// exposition renders tel's /metrics body without the wall-clock
// families.
func exposition(t *testing.T, tel *telemetry.Telemetry) []byte {
	t.Helper()
	var buf, out bytes.Buffer
	if err := tel.Registry.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		name := line
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name = rest
		} else if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name = rest
		}
		name, _, _ = strings.Cut(name, " ")
		name, _, _ = strings.Cut(name, "{")
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && wallClockFamilies[base] {
				name = base
			}
		}
		if !wallClockFamilies[name] {
			out.WriteString(line + "\n")
		}
	}
	return out.Bytes()
}

// TestGovernedExposition holds the /metrics body of real governed runs —
// OnlineController over the runtime on three platforms with a faulty
// meter, the simulation engine with and without faults, the
// approximate-hardware runtime, and two daemon sessions — to the bytes in
// testdata/governed_exposition.golden. Every counter, histogram and
// gauge in it is what the governor stack reported while it ran, so a
// change to how those events reach the sink must leave them unchanged.
func TestGovernedExposition(t *testing.T) {
	const golden = "testdata/governed_exposition.golden"
	got := governedRuns(t)
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("governed exposition differs from %s:\n%s", golden, got)
	}
}
