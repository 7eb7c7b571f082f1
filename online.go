package jouleguard

import (
	"errors"
	"fmt"
	"math"

	"jouleguard/internal/guard"
	"jouleguard/internal/heartbeats"
	"jouleguard/internal/sim"
	"jouleguard/internal/telemetry"
)

// ErrOutOfSequence is returned (wrapped) by Done when no iteration is in
// flight, and recorded by Next when one already is. The Next/Done
// bracketing is a hard contract: out-of-order calls would silently
// corrupt the interval accounting the budget ledger is built on, so they
// are surfaced instead of absorbed. Callers that multiplex many control
// loops over one controller (the governor daemon) rely on this to map
// wire calls safely.
var ErrOutOfSequence = errors.New("jouleguard: Next/Done called out of sequence")

// OnlineController adapts any Governor (the JouleGuard runtime or a
// baseline) to a real application's main loop, the way the paper's C
// runtime is "compiled directly into an application" (Sec. 3.5). The
// application brackets each unit of work with Next/Done; the controller
// measures durations through the supplied clock, reads cumulative energy
// through the supplied meter, and feeds the governor.
//
//	ctl, _ := jouleguard.NewOnline(gov, readEnergyJ, nowSeconds)
//	for i := 0; i < frames; i++ {
//		appCfg, sysCfg := ctl.Next()
//		applyConfigs(appCfg, sysCfg) // your actuators
//		encodeFrame(i)
//		ctl.Done(measuredAccuracy)
//	}
//
// Use sensors' LinuxRAPLReader as the energy source on Linux hosts with
// powercap, or any monotone joule counter.
//
// The controller assumes nothing about the instruments' health: readings
// pass through a hardened sensing guard (median/MAD outlier rejection,
// stuck-sensor detection, counter-regression checks), a failed or
// rejected reading is replaced by a model-based estimate so the
// governor's iteration and budget accounting never desynchronise, and a
// clock that steps backwards is clamped and recorded instead of killing
// the caller's loop.
type OnlineController struct {
	gov        Governor
	readEnergy func() (float64, error)
	now        func() float64
	hb         *heartbeats.Monitor
	guard      *guard.Sensor

	iter       int
	accSum     float64 // reported accuracies of the completed iterations
	started    bool
	startT     float64
	appCfg     int
	sysCfg     int
	prevApp    int
	prevSys    int
	haveCfg    bool
	prevEnergy float64 // counter value at the last accepted reading
	haveEnergy bool
	lastGoodT  float64 // clock at the last accepted reading
	estSinceJ  float64 // provisional joules integrated since the last accepted reading
	lastBeatT  float64
	lastErr    error
	failStreak int
	failTotal  int
	clockBack  int
	seqErrs    int
	lastSeqErr string // what the latest bracketing violation was; "" = none

	tele telemetry.Sink // per-iteration telemetry; Nop when not instrumented
}

// NewOnline builds an online controller with the default sensing guard.
// readEnergy returns cumulative full-system joules; now returns seconds
// on a monotone clock.
func NewOnline(gov Governor, readEnergy func() (float64, error), now func() float64) (*OnlineController, error) {
	return NewOnlineGuarded(gov, readEnergy, now, SensorGuardConfig{})
}

// NewOnlineGuarded is NewOnline with an explicit sensing-guard
// configuration (set ModelPower to the platform's expected draw so the
// fallback estimate is meaningful before the first good reading).
func NewOnlineGuarded(gov Governor, readEnergy func() (float64, error), now func() float64, gcfg SensorGuardConfig) (*OnlineController, error) {
	if gov == nil {
		return nil, fmt.Errorf("jouleguard: nil governor")
	}
	if readEnergy == nil || now == nil {
		return nil, fmt.Errorf("jouleguard: nil energy reader or clock")
	}
	hb, err := heartbeats.NewMonitor(20)
	if err != nil {
		return nil, err
	}
	return &OnlineController{gov: gov, readEnergy: readEnergy, now: now, hb: hb,
		guard: guard.New(gcfg), tele: telemetry.Nop{}}, nil
}

// SetTelemetry streams one event per completed iteration — its duration
// and the sensing guard's verdict on its measurement — into a telemetry
// sink. To also trace the governor's decisions, pass the same sink
// through Options.Telemetry when building the runtime.
func (o *OnlineController) SetTelemetry(s TelemetrySink) { o.tele = telemetry.OrNop(s) }

// Next returns the configurations for the upcoming iteration and starts its
// timer. Calling Next again while an iteration is already in flight is a
// sequencing error: it is recorded (SequenceErrors, LastSequenceError)
// and the in-flight measurement is preserved — the original start time
// stands and the same configurations are returned, so the interval
// accounting is never silently restarted mid-iteration.
func (o *OnlineController) Next() (appCfg, sysCfg int) {
	if o.started {
		o.noteSequenceError("Next while an iteration is in flight")
		return o.appCfg, o.sysCfg
	}
	o.appCfg, o.sysCfg = o.gov.Decide(o.iter)
	if o.haveCfg && (o.appCfg != o.prevApp || o.sysCfg != o.prevSys) {
		// A configuration change legitimately moves the power level: tell
		// the guard so the new level is not rejected as an outlier.
		o.guard.NoteActuation()
	}
	o.prevApp, o.prevSys, o.haveCfg = o.appCfg, o.sysCfg, true
	o.startT = o.now()
	o.started = true
	return o.appCfg, o.sysCfg
}

// Done completes the iteration: it measures the elapsed time and energy,
// validates both through the sensing guard, and feeds the governor.
// accuracy is the application's own measure of this iteration's output
// quality (1 if it does not quantify accuracy; the runtime only needs the
// configuration ordering, Sec. 3.6).
//
// Sensor failures, rejected readings and backwards clocks never kill the
// loop and never skip the governor: the observation is delivered with the
// guard's model-based estimate and flagged as such, so the governor's
// iteration/budget accounting stays synchronised and its own watchdog can
// degrade gracefully. A NaN or infinite clock reading at Done is the one
// refusal: nothing is measured or recorded, and the iteration stays in
// flight, so a retry with a good clock completes it.
func (o *OnlineController) Done(accuracy float64) error {
	if !o.started {
		o.noteSequenceError("Done without Next")
		return fmt.Errorf("%w: Done without Next", ErrOutOfSequence)
	}
	end := o.now()
	if math.IsNaN(end) || math.IsInf(end, 0) {
		return fmt.Errorf("jouleguard: clock read %v at Done", end)
	}
	o.started = false
	dur := end - o.startT
	if dur < 0 || math.IsNaN(dur) || math.IsInf(dur, 1) {
		// Monotone-clock guard: a clock that stepped backwards, or a
		// non-finite reading at Next, is clamped and recorded.
		o.clockBack++
		dur = 0
	}
	var v guard.Verdict
	energy, err := o.readEnergy()
	switch {
	case err != nil:
		// Sensor hiccups must not desynchronise the accounting: deliver a
		// fallback observation instead of skipping the update.
		o.lastErr = err
		v = o.provisional(dur)
	case !o.haveEnergy:
		// First reading baselines the counter (it need not start at
		// zero); there is no delta to validate yet.
		o.prevEnergy, o.haveEnergy = energy, true
		o.lastGoodT, o.estSinceJ = end, 0
		v = o.provisional(dur)
	default:
		delta := energy - o.prevEnergy
		gap := end - o.lastGoodT // spans any intervening outage
		switch {
		case delta < 0:
			// Counter regression (reset or wrap): rebaseline; the
			// provisional estimates stand for the unknowable span.
			o.prevEnergy, o.lastGoodT, o.estSinceJ = energy, end, 0
			v = o.provisional(dur)
		case gap <= 0:
			// No measurable elapsed time to attribute the delta to.
			v = o.provisional(dur)
		default:
			// Average power since the last accepted reading. After an
			// outage this is the counter's own account of the gap — if
			// accepted, it replaces the provisional estimates so the
			// budget ledger resynchronises exactly.
			v = o.guard.Observe(delta/gap, gap)
			if v.Accepted {
				v.Energy = o.guard.AdjustEnergy(-o.estSinceJ)
				o.prevEnergy, o.lastGoodT, o.estSinceJ = energy, end, 0
			} else {
				// Rejected reading: keep the old baseline so the next
				// accepted one reconciles the whole span, and remember
				// what was just provisionally integrated.
				o.estSinceJ += v.Power * gap
			}
		}
	}
	if v.Accepted {
		o.failStreak = 0
		o.lastErr = nil
	} else {
		o.failStreak++
		o.failTotal++
	}
	beatT := end
	if beatT < o.lastBeatT {
		beatT = o.lastBeatT
	}
	o.lastBeatT = beatT
	// Beat refuses only non-finite or regressing times, and beatT is
	// neither: end is finite and beatT never falls behind the last beat.
	_, _ = o.hb.Beat(beatT, o.appCfg)
	o.gov.Observe(sim.Feedback{
		Iter:           o.iter,
		AppConfig:      o.appCfg,
		SysConfig:      o.sysCfg,
		Work:           1,
		Duration:       dur,
		Power:          v.Power,
		Energy:         v.Energy,
		Accuracy:       accuracy,
		IterationsDone: o.iter + 1,
		Estimated:      !v.Accepted,
	})
	o.iter++
	o.accSum += accuracy
	o.tele.IterationDone(dur, v.Accepted, uint8(v.Reason), v.Power)
	return nil
}

// provisional integrates the guard's fallback estimate for an interval
// with no usable reading, tracking the joules provisionally booked so a
// later authoritative counter delta can replace them.
func (o *OnlineController) provisional(dur float64) guard.Verdict {
	v := o.guard.Missing(dur)
	if dur > 0 {
		o.estSinceJ += v.Power * dur
	}
	return v
}

// noteSequenceError records a Next/Done bracketing violation.
func (o *OnlineController) noteSequenceError(what string) {
	o.seqErrs++
	o.lastSeqErr = what
}

// SequenceErrors returns how many Next/Done calls arrived out of order.
func (o *OnlineController) SequenceErrors() int { return o.seqErrs }

// LastSequenceError returns the most recent bracketing violation (nil if
// none); it wraps ErrOutOfSequence.
func (o *OnlineController) LastSequenceError() error {
	if o.lastSeqErr == "" {
		return nil
	}
	return fmt.Errorf("%w: %s", ErrOutOfSequence, o.lastSeqErr)
}

// InFlight reports whether an iteration is currently bracketed (Next
// issued, Done pending).
func (o *OnlineController) InFlight() bool { return o.started }

// EnergyAccounted returns the cumulative joules the sensing guard has
// attributed to the run — the cleaned ledger the governor's budget
// accounting sees, combining accepted meter deltas and model-based
// estimates for the gaps.
func (o *OnlineController) EnergyAccounted() float64 { return o.guard.Energy() }

// Iterations returns how many iterations completed.
func (o *OnlineController) Iterations() int { return o.iter }

// MeanAccuracy returns the mean of the accuracies reported to Done so
// far (0 before the first).
func (o *OnlineController) MeanAccuracy() float64 {
	if o.iter == 0 {
		return 0
	}
	return o.accSum / float64(o.iter)
}

// HeartRate returns the windowed iteration rate (beats/second).
func (o *OnlineController) HeartRate() float64 { return o.hb.WindowRate() }

// LastSensorError returns the most recent energy-reader failure; it is
// cleared once a reading is accepted again.
func (o *OnlineController) LastSensorError() error { return o.lastErr }

// ConsecutiveFailures returns the current run of iterations whose
// readings were missing or rejected.
func (o *OnlineController) ConsecutiveFailures() int { return o.failStreak }

// SensorFailures returns the total count of missing or rejected readings.
func (o *OnlineController) SensorFailures() int { return o.failTotal }

// ClockAnomalies returns how many times the clock stepped backwards
// across an iteration (each clamped to a zero-duration observation).
func (o *OnlineController) ClockAnomalies() int { return o.clockBack }

// GuardCounts returns the sensing guard's accepted/rejected totals.
func (o *OnlineController) GuardCounts() (accepted, rejected int) { return o.guard.Counts() }
