// Package sim is the discrete-event testbed: it binds an approximate
// application kernel, a simulated platform, the platform's power
// instrumentation and a governor (JouleGuard or a baseline) into a single
// experiment run over virtual time. Each iteration executes the kernel for
// real (its accuracy is measured, not synthesised), converts the work it
// performed into virtual seconds via the platform's speed model, integrates
// power into the sensors, and hands the governor its feedback.
package sim

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"jouleguard/internal/apps"
	"jouleguard/internal/faults"
	"jouleguard/internal/guard"
	"jouleguard/internal/heartbeats"
	"jouleguard/internal/platform"
	"jouleguard/internal/sensors"
	"jouleguard/internal/workload"
)

// Feedback is what a governor observes after each iteration.
type Feedback struct {
	Iter           int
	AppConfig      int
	SysConfig      int
	Work           float64 // kernel work units executed this iteration
	Duration       float64 // virtual seconds this iteration took
	Power          float64 // measured average power this iteration (W)
	Energy         float64 // cumulative measured energy (J), from the sensors
	Accuracy       float64 // measured accuracy of this iteration's output
	IterationsDone int     // iterations completed so far (including this one)
	// Estimated marks an iteration whose measurement was rejected or
	// missing: Power and Energy carry the sensing layer's model-based
	// fallback, good enough to keep the budget ledger honest but not a
	// real observation to learn from.
	Estimated bool
}

// Sane reports whether the measurement fields are finite and physically
// plausible. Governors must treat insane feedback as a corrupt sample —
// one NaN folded into an EWMA or Kalman filter poisons it permanently.
func (fb Feedback) Sane() bool {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	return finite(fb.Duration) && fb.Duration > 0 &&
		finite(fb.Power) && fb.Power >= 0 &&
		finite(fb.Energy) && fb.Energy >= 0 &&
		finite(fb.Accuracy) && finite(fb.Work)
}

// PowerScaler is implemented by approximate-hardware applications
// (Sec. 3.7): the configuration scales the platform's dynamic power rather
// than the computation's duration.
type PowerScaler interface {
	PowerScale(cfg int) float64
}

// Governor decides configurations and observes feedback.
type Governor interface {
	// Decide returns the application and system configuration to use for
	// iteration iter.
	Decide(iter int) (appCfg, sysCfg int)
	// Observe delivers the measured feedback for the iteration just run.
	Observe(fb Feedback)
}

// Record captures one run.
type Record struct {
	AppName       string
	PlatformName  string
	Iterations    int
	Time          float64 // total virtual seconds
	TrueEnergy    float64 // joules, ground truth
	MeasEnergy    float64 // joules, as the sensors reconstructed
	Accuracies    []float64
	Powers        []float64
	Durations     []float64
	EnergyPerIter []float64 // true energy per iteration
	AppConfigs    []int     // configurations actually in effect (≠ requested under actuator faults)
	SysConfigs    []int

	// Fault-tolerance telemetry (zero on fault-free runs).
	ActuatorFailures int // transient actuation errors the run absorbed
	GuardAccepted    int // samples the sensing guard accepted
	GuardRejected    int // samples the sensing guard rejected or lost
}

// MeanAccuracy returns the run's average measured accuracy.
func (r *Record) MeanAccuracy() float64 {
	if len(r.Accuracies) == 0 {
		return 0
	}
	var s float64
	for _, a := range r.Accuracies {
		s += a
	}
	return s / float64(len(r.Accuracies))
}

// EnergyPerIterAvg returns true energy divided by iterations.
func (r *Record) EnergyPerIterAvg() float64 {
	if r.Iterations == 0 {
		return 0
	}
	return r.TrueEnergy / float64(r.Iterations)
}

// WriteCSV emits the per-iteration record for offline analysis/plotting.
func (r *Record) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "iter,energy_j,power_w,duration_s,accuracy,app_config,sys_config"); err != nil {
		return err
	}
	for i := 0; i < r.Iterations; i++ {
		if _, err := fmt.Fprintf(w, "%d,%g,%g,%g,%g,%d,%d\n",
			i, r.EnergyPerIter[i], r.Powers[i], r.Durations[i],
			r.Accuracies[i], r.AppConfigs[i], r.SysConfigs[i]); err != nil {
			return err
		}
	}
	return nil
}

// Engine runs experiments.
type Engine struct {
	App                   apps.App
	Platform              *platform.Platform
	Profile               platform.AppProfile
	Reader                sensors.Advancer
	Meter                 *sensors.ExternalMeter // authoritative whole-run energy
	Trace                 *workload.Trace        // optional external difficulty trace
	RateNoise, PowerNoise float64                // multiplicative log-normal sigmas
	HB                    *heartbeats.Monitor    // per-iteration heartbeat stream
	// Disturb, when set, returns per-iteration multiplicative disturbances
	// on rate and power — external events (a co-located job stealing
	// cycles, a thermal excursion raising power) no model predicted.
	Disturb func(iter int) (rateMul, powerMul float64)
	// Faults, when set, corrupts the engine's measurement and actuation
	// channels: the power stream the sensors record, the clock the
	// governor's durations come from, and whether a requested
	// configuration actually takes effect. Unlike Disturb, which changes
	// the world, Faults change only what the control loop perceives and
	// can actuate — ground truth in the Record stays honest.
	Faults *faults.Injector
	// Guard, when set, filters the sensed power stream before it reaches
	// the governor: rejected or missing samples are replaced by a
	// model-based estimate and the governor's cumulative energy comes
	// from the guard's cleaned ledger.
	Guard *guard.Sensor
	rng   *rand.Rand
}

// New builds an engine for (app, platform) with the paper's measurement
// setup and mild measurement noise, deterministically seeded.
func New(app apps.App, plat *platform.Platform, seed int64) (*Engine, error) {
	prof, err := platform.ProfileFor(app.Name())
	if err != nil {
		return nil, err
	}
	reader, err := sensors.ForPlatform(plat.Name)
	if err != nil {
		return nil, err
	}
	meter, err := sensors.NewExternalMeter(1.0)
	if err != nil {
		return nil, err
	}
	hb, err := heartbeats.NewMonitor(20)
	if err != nil {
		return nil, err
	}
	return &Engine{
		App:        app,
		Platform:   plat,
		Profile:    prof,
		Reader:     reader,
		Meter:      meter,
		RateNoise:  0.015,
		PowerNoise: 0.02,
		HB:         hb,
		rng:        rand.New(rand.NewSource(seed)),
	}, nil
}

// Run executes iters iterations under the governor and returns the record.
func (e *Engine) Run(iters int, gov Governor) (*Record, error) {
	if iters <= 0 {
		return nil, fmt.Errorf("sim: iteration count %d must be positive", iters)
	}
	rec := &Record{
		AppName:      e.App.Name(),
		PlatformName: e.Platform.Name,
		// The run length is known up front; growing these by append would
		// reallocate ~log2(iters) times per trace, six traces per run.
		Accuracies:    make([]float64, 0, iters),
		Powers:        make([]float64, 0, iters),
		Durations:     make([]float64, 0, iters),
		EnergyPerIter: make([]float64, 0, iters),
		AppConfigs:    make([]int, 0, iters),
		SysConfigs:    make([]int, 0, iters),
	}
	// The configuration physically in effect: actuator faults can leave
	// the machine where it was instead of where the governor asked.
	actApp, actSys := e.App.DefaultConfig(), e.Platform.DefaultConfig()
	var lastSensed float64 // sample-and-hold for lost readings
	haveSensed := false
	for i := 0; i < iters; i++ {
		appCfg, sysCfg := gov.Decide(i)
		if appCfg < 0 || appCfg >= e.App.NumConfigs() {
			return nil, fmt.Errorf("sim: governor chose app config %d of %d", appCfg, e.App.NumConfigs())
		}
		if sysCfg < 0 || sysCfg >= e.Platform.NumConfigs() {
			return nil, fmt.Errorf("sim: governor chose system config %d of %d", sysCfg, e.Platform.NumConfigs())
		}
		prevApp, prevSys := actApp, actSys
		actApp, actSys = appCfg, sysCfg
		if e.Faults != nil {
			got, aerr := e.Faults.Actuate(i, faults.Pair{App: appCfg, Sys: sysCfg}, faults.Pair{App: prevApp, Sys: prevSys})
			if aerr != nil {
				rec.ActuatorFailures++
			}
			if got.App >= 0 && got.App < e.App.NumConfigs() && got.Sys >= 0 && got.Sys < e.Platform.NumConfigs() {
				actApp, actSys = got.App, got.Sys
			}
		}
		work, acc := e.App.Step(actApp, i)
		if e.Trace != nil {
			// External difficulty multiplier for kernels that do not model
			// scene content natively.
			work *= e.Trace.Cost(i)
		}
		rate := e.Platform.Rate(actSys, e.Profile) * workload.LogNormal(e.rng, e.RateNoise)
		power := e.Platform.Power(actSys, e.Profile) * workload.LogNormal(e.rng, e.PowerNoise)
		if e.Disturb != nil {
			rm, pm := e.Disturb(i)
			if rm > 0 {
				rate *= rm
			}
			if pm > 0 {
				power *= pm
			}
		}
		if ps, ok := e.App.(PowerScaler); ok {
			// Approximate hardware scales the dynamic share of power and
			// leaves timing untouched (Sec. 3.7).
			idle := e.Platform.IdleW + e.Platform.UncoreW
			if s := ps.PowerScale(actApp); power > idle && s > 0 && s <= 1 {
				power = idle + (power-idle)*s
			}
		}
		dur := work / rate
		// What the instruments see: the sensed power may be corrupted or
		// lost, and the observed duration comes from a possibly faulty
		// clock. Ground truth (power, dur) still drives the physics.
		obsDur := dur
		durEstimated := false
		sensed, sampleOK := power, true
		if e.Faults != nil {
			obsDur = e.Faults.Interval(i, rec.Time, dur)
			// Duration plausibility: a jittered or backwards clock can
			// report a non-positive or wildly wrong interval. Substituting
			// the model duration (and flagging the sample as estimated)
			// keeps the energy ledger from silently dropping joules —
			// integrating power over a zero interval counts nothing and
			// the budget accounting would drift unsafe.
			modelDur := work / e.Platform.Rate(actSys, e.Profile)
			if math.IsNaN(obsDur) || math.IsInf(obsDur, 0) ||
				obsDur < modelDur/4 || obsDur > modelDur*4 {
				obsDur = modelDur
				durEstimated = true
			}
			sensed, sampleOK = e.Faults.SensePower(i, power)
		}
		if sampleOK {
			lastSensed, haveSensed = sensed, true
		}
		deposit := sensed
		if !sampleOK {
			// A lost sample leaves the instrument holding its last value.
			deposit = 0
			if haveSensed {
				deposit = lastSensed
			}
		}
		e.Reader.Advance(deposit, dur)
		e.Meter.Advance(power, dur)
		rec.Time += dur
		rec.TrueEnergy += power * dur
		if _, err := e.HB.Beat(rec.Time, actApp); err != nil {
			return nil, fmt.Errorf("sim: heartbeat: %w", err)
		}
		rec.Iterations++
		rec.Accuracies = append(rec.Accuracies, acc)
		rec.Powers = append(rec.Powers, power)
		rec.Durations = append(rec.Durations, dur)
		rec.EnergyPerIter = append(rec.EnergyPerIter, power*dur)
		rec.AppConfigs = append(rec.AppConfigs, actApp)
		rec.SysConfigs = append(rec.SysConfigs, actSys)
		rec.MeasEnergy = e.Reader.ReadEnergy()
		fbPower, fbEnergy, estimated := deposit, rec.MeasEnergy, !sampleOK
		fbDur := obsDur
		if e.Guard != nil {
			if actApp != prevApp || actSys != prevSys {
				e.Guard.NoteActuation()
			}
			e.Guard.SetModelPower(e.Platform.Power(actSys, e.Profile))
			var v guard.Verdict
			if sampleOK {
				v = e.Guard.Observe(sensed, obsDur)
			} else {
				v = e.Guard.Missing(obsDur)
			}
			fbPower, fbEnergy, estimated = v.Power, v.Energy, !v.Accepted
			// The rate path gets the median-filtered interval (jitter on
			// 1/D is biased); the energy ledger already integrated the raw
			// interval, where the noise is unbiased.
			fbDur = e.Guard.Interval(obsDur, work/e.Platform.Rate(actSys, e.Profile))
		}
		estimated = estimated || durEstimated
		gov.Observe(Feedback{
			Iter: i,
			// The hardened actuation pipeline verifies every request by
			// reading the applied configuration back (a register/sysfs
			// read), so feedback is attributed to the configuration that
			// actually ran. Without readback a silently dropped or delayed
			// actuation would credit one configuration with another's rate
			// and power, and those mis-attributed samples poison the
			// learner's estimates for the rest of the run.
			AppConfig:      actApp,
			SysConfig:      actSys,
			Work:           work,
			Duration:       fbDur,
			Power:          fbPower,
			Energy:         fbEnergy,
			Accuracy:       acc,
			IterationsDone: i + 1,
			Estimated:      estimated,
		})
	}
	if e.Guard != nil {
		rec.GuardAccepted, rec.GuardRejected = e.Guard.Counts()
	}
	return rec, nil
}

// FixedGovernor pins both configurations — the "out of the box" run.
type FixedGovernor struct {
	AppCfg, SysCfg int
}

// Decide implements Governor.
func (g FixedGovernor) Decide(int) (int, int) { return g.AppCfg, g.SysCfg }

// Observe implements Governor.
func (g FixedGovernor) Observe(Feedback) {}
