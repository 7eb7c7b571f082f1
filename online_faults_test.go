package jouleguard_test

import (
	"errors"
	"math"
	"testing"

	"jouleguard"
	"jouleguard/internal/guard"
	"jouleguard/internal/sim"
	"jouleguard/internal/telemetry"
)

// dropTail is a deterministic sensor fault: readings are lost from
// iteration From onward, giving the test an exactly-known failure streak.
type dropTail struct{ From int }

func (d dropTail) Reading(iter int, v float64) (float64, bool) { return v, iter < d.From }

// iterCounter counts IterationDone events, and those whose measurement
// the guard did not accept, for the online-controller telemetry
// assertion.
type iterCounter struct {
	telemetry.Nop
	done, estimated int
}

func (c *iterCounter) IterationDone(_ float64, accepted bool, _ uint8, _ float64) {
	c.done++
	if !accepted {
		c.estimated++
	}
}

// TestOnlineIntrospectionUnderFaults drives the online controller through
// a run whose energy reader and clock are corrupted by the fault
// injector's own models, and checks every introspection accessor reports
// what actually happened: SensorFailures counts the lost readings,
// ConsecutiveFailures tracks the terminal outage streak, ClockAnomalies
// counts backwards clock steps, and GuardCounts accounts for every
// iteration exactly once.
func TestOnlineIntrospectionUnderFaults(t *testing.T) {
	tb, err := jouleguard.NewTestbed("radar", "Tablet")
	if err != nil {
		t.Fatal(err)
	}
	const iters = 120
	const outageFrom = 100 // reader dead for the final 20 iterations
	gov, err := tb.NewJouleGuard(1.5, iters, jouleguard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := &fakeMachine{tb: tb}
	inj := &jouleguard.FaultInjector{Sensor: dropTail{From: outageFrom}}
	ctl, err := jouleguard.NewOnline(gov,
		inj.WrapEnergyReader(m.readEnergy),
		func() float64 { return m.clock })
	if err != nil {
		t.Fatal(err)
	}
	tel := &iterCounter{}
	ctl.SetTelemetry(tel)

	for i := 0; i < iters; i++ {
		appCfg, sysCfg := ctl.Next()
		m.apply(appCfg, sysCfg)
		m.work()
		if err := ctl.Done(1); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}

	if got := ctl.Iterations(); got != iters {
		t.Fatalf("Iterations() = %d, want %d", got, iters)
	}
	// The reader failed for exactly the tail of the run.
	wantFailures := iters - outageFrom
	if got := ctl.SensorFailures(); got < wantFailures {
		t.Errorf("SensorFailures() = %d, want >= %d (tail outage)", got, wantFailures)
	}
	if got := ctl.ConsecutiveFailures(); got != wantFailures {
		t.Errorf("ConsecutiveFailures() = %d, want %d (outage still in progress)", got, wantFailures)
	}
	if ctl.LastSensorError() == nil {
		t.Error("LastSensorError() = nil during an outage")
	}
	// Guard accounting covers every iteration exactly once, and the
	// rejected side includes at least the dropped readings.
	acc, rej := ctl.GuardCounts()
	if acc+rej != iters {
		t.Errorf("GuardCounts() = %d+%d, want total %d", acc, rej, iters)
	}
	if rej < wantFailures {
		t.Errorf("GuardCounts() rejected = %d, want >= %d", rej, wantFailures)
	}
	// Telemetry mirrors the same story.
	if tel.done != iters {
		t.Errorf("telemetry IterationDone count = %d, want %d", tel.done, iters)
	}
	if tel.estimated != ctl.SensorFailures() {
		t.Errorf("telemetry estimated iterations = %d, want %d (one per failure)",
			tel.estimated, ctl.SensorFailures())
	}
}

// TestOnlineClockAnomaliesUnderFaultyClock runs the controller against a
// clock wrapped by the injector's backwards-stepping model and checks the
// anomaly counter: a clock fault large enough to invert every interval
// must be clamped and counted on every iteration, without killing the
// loop.
func TestOnlineClockAnomaliesUnderFaultyClock(t *testing.T) {
	tb, err := jouleguard.NewTestbed("radar", "Tablet")
	if err != nil {
		t.Fatal(err)
	}
	const iters = 30
	gov, err := tb.NewJouleGuard(1.5, iters, jouleguard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := &fakeMachine{tb: tb}
	inj := &jouleguard.FaultInjector{Clock: backEvery{step: 10}}
	ctl, err := jouleguard.NewOnline(gov, m.readEnergy, inj.WrapClock(func() float64 { return m.clock }))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < iters; i++ {
		appCfg, sysCfg := ctl.Next()
		m.apply(appCfg, sysCfg)
		m.work()
		if err := ctl.Done(1); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
	if got := ctl.ClockAnomalies(); got != iters {
		t.Errorf("ClockAnomalies() = %d, want %d (every interval inverted)", got, iters)
	}
	if got := ctl.Iterations(); got != iters {
		t.Fatalf("Iterations() = %d, want %d", got, iters)
	}
}

// backEvery subtracts an ever-growing offset from each clock read, so
// consecutive reads always move backwards.
type backEvery struct{ step float64 }

func (b backEvery) Now(iter int, t float64) float64 { return t - float64(iter)*b.step }

// verdictSink records the guard verdict each IterationDone carries.
type verdictSink struct {
	telemetry.Nop
	reasons            []guard.Reason
	accepted, rejected int
}

func (s *verdictSink) IterationDone(_ float64, accepted bool, reason uint8, _ float64) {
	s.reasons = append(s.reasons, guard.Reason(reason))
	if accepted {
		s.accepted++
	} else {
		s.rejected++
	}
}

// TestOneVerdictPerDone drives every path through Done — the first
// reading's baseline, accepted readings, a stuck meter, an outlier, a
// reader error, a counter regression, a zero gap and a NaN clock — and
// checks each completed iteration reports exactly the guard verdict it
// got, so the sink's totals match GuardCounts. A NaN clock is refused
// before the meter or the guard is consulted: that iteration stays in
// flight with nothing counted, and a retry on a good clock completes it.
// Powers and intervals are dyadic, so every reading divides out exactly
// and a repeated power repeats bit for bit.
func TestOneVerdictPerDone(t *testing.T) {
	var clock, counter, spike float64
	var readErr bool
	ctl, err := jouleguard.NewOnline(sim.FixedGovernor{},
		func() (float64, error) {
			if readErr {
				return 0, errors.New("meter read failed")
			}
			return counter + spike, nil
		},
		func() float64 { return clock })
	if err != nil {
		t.Fatal(err)
	}
	sink := &verdictSink{}
	ctl.SetTelemetry(sink)
	var want []guard.Reason
	step := func(dt, watts float64, reason guard.Reason) {
		t.Helper()
		ctl.Next()
		clock += dt
		counter += watts * dt
		if err := ctl.Done(1); err != nil {
			t.Fatalf("iteration %d: %v", len(want), err)
		}
		want = append(want, reason)
	}

	step(0.25, 2, guard.Missing) // the first reading baselines the counter
	for k := 0; k < 10; k++ {
		step(0.25, 2+0.125*float64(2*(k%2)-1), guard.OK)
	}
	for k := 0; k < 7; k++ {
		step(0.25, 2, guard.OK)
	}
	step(0.25, 2, guard.Stuck) // the eighth identical power on a noisy window
	step(0.25, 2.125, guard.OK)
	spike = 4.5
	step(0.25, 2, guard.Outlier)
	spike = 0
	step(0.25, 2, guard.OK)
	readErr = true
	step(0.25, 2, guard.Missing)
	readErr = false
	step(0.25, 2.125, guard.OK)
	counter = 0 // the counter wraps: the reading goes backwards
	step(0.25, 2, guard.Missing)
	step(0.25, 1.875, guard.OK)
	step(0, 2, guard.Missing) // no time has passed since the last accepted reading
	step(0.25, 2.125, guard.OK)

	acc, rej := ctl.GuardCounts()
	if sink.accepted != acc || sink.rejected != rej {
		t.Fatalf("sink saw %d/%d accepted/rejected, guard counted %d/%d", sink.accepted, sink.rejected, acc, rej)
	}
	if len(sink.reasons) != len(want) {
		t.Fatalf("%d IterationDone events for %d iterations", len(sink.reasons), len(want))
	}
	for i, r := range sink.reasons {
		if r != want[i] {
			t.Errorf("iteration %d: verdict %s, want %s", i, r, want[i])
		}
	}

	good, failures := clock, ctl.SensorFailures()
	ctl.Next()
	clock = math.NaN()
	if err := ctl.Done(1); err == nil {
		t.Fatal("Done on a NaN clock returned no error")
	}
	if len(sink.reasons) != len(want) || ctl.Iterations() != len(want) {
		t.Errorf("after the NaN clock: %d events, %d iterations, want both %d", len(sink.reasons), ctl.Iterations(), len(want))
	}
	if acc, rej := ctl.GuardCounts(); acc+rej != ctl.Iterations() || ctl.SensorFailures() != failures {
		t.Errorf("after the NaN clock: guard ruled %d+%d times on %d iterations, sensor failures %d -> %d",
			acc, rej, ctl.Iterations(), failures, ctl.SensorFailures())
	}
	if !ctl.InFlight() {
		t.Fatal("the refused Done ended the iteration")
	}
	clock = good + 0.25
	counter += 2 * 0.25
	if err := ctl.Done(1); err != nil {
		t.Fatalf("retrying Done on a good clock: %v", err)
	}
	for k := 0; k < 20; k++ {
		step(0.25, 2+0.125*float64(2*(k%2)-1), guard.OK)
	}
	if acc, rej := ctl.GuardCounts(); acc+rej != ctl.Iterations() || len(sink.reasons) != ctl.Iterations() {
		t.Errorf("guard ruled %d+%d times and the sink saw %d events on %d iterations", acc, rej, len(sink.reasons), ctl.Iterations())
	}
	if e := ctl.EnergyAccounted(); math.IsNaN(e) || math.IsInf(e, 0) {
		t.Fatalf("EnergyAccounted() = %v after a refused NaN clock", e)
	}
}

// TestNaNClockOnFirstDone: a NaN clock on the very first Done must not
// become the time of the last good reading, or every later reading's gap
// would be NaN and the guard would reject them all.
func TestNaNClockOnFirstDone(t *testing.T) {
	var clock, counter float64
	ctl, err := jouleguard.NewOnline(sim.FixedGovernor{},
		func() (float64, error) { return counter, nil },
		func() float64 { return clock })
	if err != nil {
		t.Fatal(err)
	}
	ctl.Next()
	clock = math.NaN()
	if err := ctl.Done(1); err == nil {
		t.Fatal("Done on a NaN clock returned no error")
	}
	clock, counter = 0.25, 0.5
	if err := ctl.Done(1); err != nil {
		t.Fatalf("retrying Done on a good clock: %v", err)
	}
	for k := 0; k < 20; k++ {
		ctl.Next()
		clock += 0.25
		counter += (2 + 0.125*float64(2*(k%2)-1)) * 0.25
		if err := ctl.Done(1); err != nil {
			t.Fatalf("iteration %d: %v", k+1, err)
		}
	}
	if acc, rej := ctl.GuardCounts(); acc != 20 || rej != 1 {
		t.Fatalf("guard accepted %d and rejected %d of 21 readings, want 20 and the baseline", acc, rej)
	}
	if e := ctl.EnergyAccounted(); math.IsNaN(e) || math.IsInf(e, 0) {
		t.Fatalf("EnergyAccounted() = %v", e)
	}
}

// TestNaNStartClockIsAClockAnomaly: a non-finite reading at Next cannot
// be refused (Next returns no error), so Done clamps the interval it
// spoils to zero and counts it like a backwards clock.
func TestNaNStartClockIsAClockAnomaly(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var clock, counter float64
		ctl, err := jouleguard.NewOnline(sim.FixedGovernor{},
			func() (float64, error) { return counter, nil },
			func() float64 { return clock })
		if err != nil {
			t.Fatal(err)
		}
		clock = bad
		ctl.Next()
		clock, counter = 0.25, 0.5
		if err := ctl.Done(1); err != nil {
			t.Fatalf("start clock %v: %v", bad, err)
		}
		if ctl.ClockAnomalies() != 1 || ctl.Iterations() != 1 {
			t.Fatalf("start clock %v: %d clock anomalies, %d iterations, want 1 and 1", bad, ctl.ClockAnomalies(), ctl.Iterations())
		}
		if e := ctl.EnergyAccounted(); math.IsNaN(e) || math.IsInf(e, 0) {
			t.Fatalf("start clock %v: EnergyAccounted() = %v", bad, e)
		}
	}
}
