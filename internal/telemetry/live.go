package telemetry

import (
	"sync/atomic"
	"time"
)

// HealthInfo is what /healthz reports beyond liveness: the process's
// cluster role and the highest fencing epoch it has seen, so load
// balancers and jgtop can tell a primary coordinator from a standby
// (or a fenced member) without probing /v1/cluster for a 503.
type HealthInfo struct {
	Role  string `json:"role"`
	Fence int64  `json:"fence"`
}

// MeterInfo is the measurement-service section of /healthz: the active
// backend, the last calibration summary and the gate's running tallies,
// so an operator (or jgtop) can see at a glance whether the joules
// behind the budget are measured, calibrated and currently trusted.
type MeterInfo struct {
	Backend      string  `json:"backend"`
	BaselineW    float64 `json:"baseline_watts"`
	CV           float64 `json:"calibration_cv"`
	Trials       int     `json:"calibration_trials"`
	GateRejected int     `json:"gate_rejected"`
	Quarantined  bool    `json:"quarantined"`
}

// QoSTenant is one tenant's standing in the /healthz tenant-protection
// section: its QoS tier, current ladder rung and the accuracy-floor
// degradation in force.
type QoSTenant struct {
	Tenant     string  `json:"tenant"`
	Tier       string  `json:"tier"`
	State      string  `json:"state"`
	FloorScale float64 `json:"floor_scale,omitempty"`
}

// QoSInfo is the tenant-protection section of /healthz: whether the
// local ladder is active and every known tenant's standing.
type QoSInfo struct {
	Enabled bool        `json:"enabled"`
	Tenants []QoSTenant `json:"tenants,omitempty"`
}

// Telemetry is the live Sink: it maintains a metric registry covering
// the whole control path, feeds every decision into a flight recorder,
// and keeps the process's span buffer for distributed traces. One
// Telemetry serves a whole process — its methods are safe for
// concurrent use by the experiment worker pool — and its Handler
// (http.go) exposes everything over HTTP.
type Telemetry struct {
	Registry *Registry
	Flight   *FlightRecorder
	Spans    *SpanBuffer

	start  time.Time
	health atomic.Value // func() HealthInfo, nil until SetHealth
	meter  atomic.Value // func() MeterInfo, nil until SetMeter
	qos    atomic.Value // func() QoSInfo, nil until SetQoS

	// Decision stream.
	decisions    *Counter
	explorations *Counter
	actMisses    *Counter
	estimated    *Counter
	degraded     *Gauge
	infeasible   *Gauge
	epsilon      *Gauge
	speedupCmd   *Gauge
	bestArm      *Gauge
	energyUsed   *Gauge
	budgetLeft   *Gauge
	allowedPer   *Gauge

	// PI controller.
	ctrlSteps *Counter
	pole      *Gauge
	piError   *Gauge
	target    *Gauge

	// Bandit estimators.
	estUpdates *Counter
	estGain    *Gauge

	// Sensing guard: accepted/rejected totals plus one counter per
	// rejection reason (indexed by guard.Reason, a stable uint8 enum).
	guardAccepted *Counter
	guardRejected *Counter
	guardReasons  []*Counter
	guardPower    *Histogram

	// Fault injection, per channel.
	faults [numFaultChannels]*Counter

	// Watchdog.
	watchdogTrips *Counter

	// Online-controller iterations.
	iterations    *Counter
	iterEstimated *Counter
	iterSeconds   *Histogram

	// Experiment runner.
	jobsStarted *Counter
	jobsDone    *Counter
	jobsFailed  *Counter
	queueDepth  *Gauge
}

// guardReasonNames mirrors guard.Reason's String values; the guard
// package cannot be imported here (it imports telemetry), so the enum's
// stable numeric values are the contract. TestGuardReasonNames in
// telemetry_guard_test.go (package guard) pins the correspondence.
var guardReasonNames = []string{
	"ok", "missing", "non-finite", "negative", "stuck", "implausible", "outlier",
}

// GuardReasonName returns the metric label used for a guard rejection
// reason code, so the guard package can pin the correspondence between
// its Reason enum and these labels without an import cycle.
func GuardReasonName(reason uint8) string {
	if int(reason) < len(guardReasonNames) {
		return guardReasonNames[reason]
	}
	return "unknown"
}

// New builds a live telemetry sink with a flight recorder holding the
// last flightCapacity decisions (DefaultFlightCapacity if <= 0).
func New(flightCapacity int) *Telemetry {
	r := NewRegistry()
	t := &Telemetry{
		Registry: r,
		Flight:   NewFlightRecorder(flightCapacity),
		Spans:    NewSpanBuffer(0),
		start:    time.Now(),

		decisions:    r.Counter("jouleguard_decisions_total", "Control decisions recorded by the runtime."),
		explorations: r.Counter("jouleguard_explorations_total", "Decisions where the SEO explored a random arm."),
		actMisses:    r.Counter("jouleguard_actuation_misses_total", "Iterations that ran a configuration other than the one commanded."),
		estimated:    r.Counter("jouleguard_estimated_observations_total", "Observations carrying a model-based estimate instead of a measurement."),
		degraded:     r.Gauge("jouleguard_degraded", "1 while the watchdog pins the conservative configuration."),
		infeasible:   r.Gauge("jouleguard_infeasible", "1 while the runtime judges the energy goal unreachable."),
		epsilon:      r.Gauge("jouleguard_epsilon", "VDBE exploration probability."),
		speedupCmd:   r.Gauge("jouleguard_speedup_command", "Application speedup command s(t)."),
		bestArm:      r.Gauge("jouleguard_best_system_arm", "Index of the SEO's current best system configuration."),
		energyUsed:   r.Gauge("jouleguard_energy_used_joules", "Cumulative measured energy of the current run."),
		budgetLeft:   r.Gauge("jouleguard_budget_remaining_joules", "Energy budget remaining in the current run."),
		allowedPer:   r.Gauge("jouleguard_allowed_joules_per_iteration", "Per-iteration energy allowance (the budget derivative target)."),

		ctrlSteps: r.Counter("jouleguard_control_steps_total", "PI controller steps taken."),
		pole:      r.Gauge("jouleguard_pole", "Adaptive controller pole (Eqn 11)."),
		piError:   r.Gauge("jouleguard_pi_error", "PI controller error term (target rate minus measured rate)."),
		target:    r.Gauge("jouleguard_target_rate", "PI controller performance target (iterations/s)."),

		estUpdates: r.Counter("jouleguard_estimator_updates_total", "Bandit-arm estimator updates."),
		estGain:    r.Gauge("jouleguard_estimator_gain", "Most recent estimator gain (EWMA alpha or Kalman gain)."),

		guardAccepted: r.Counter("jouleguard_guard_samples_total", "Sensing-guard rulings.", Label{"verdict", "accepted"}),
		guardRejected: r.Counter("jouleguard_guard_samples_total", "Sensing-guard rulings.", Label{"verdict", "rejected"}),
		guardPower:    r.Histogram("jouleguard_guard_power_watts", "Power values acted on after the sensing guard.", PowerBuckets()),

		watchdogTrips: r.Counter("jouleguard_watchdog_trips_total", "Times the runtime degraded to its conservative configuration."),

		iterations:    r.Counter("jouleguard_iterations_total", "Online-controller iterations completed."),
		iterEstimated: r.Counter("jouleguard_iterations_estimated_total", "Online-controller iterations whose measurement was estimated."),
		iterSeconds:   r.Histogram("jouleguard_iteration_seconds", "Online-controller iteration durations.", MicroDurationBuckets()),

		jobsStarted: r.Counter("jouleguard_par_jobs_started_total", "Experiment-runner jobs started."),
		jobsDone:    r.Counter("jouleguard_par_jobs_completed_total", "Experiment-runner jobs completed."),
		jobsFailed:  r.Counter("jouleguard_par_jobs_failed_total", "Experiment-runner jobs that returned an error."),
		queueDepth:  r.Gauge("jouleguard_par_queue_depth", "Experiment-runner jobs waiting for a worker."),
	}
	t.guardReasons = make([]*Counter, len(guardReasonNames))
	for i, name := range guardReasonNames {
		t.guardReasons[i] = r.Counter("jouleguard_guard_verdicts_total",
			"Sensing-guard rulings by reason.", Label{"reason", name})
	}
	for ch := uint8(0); ch < numFaultChannels; ch++ {
		t.faults[ch] = r.Counter("jouleguard_faults_injected_total",
			"Faults injected into the measurement and actuation channels.",
			Label{"channel", FaultChannelName(ch)})
	}
	return t
}

// SetHealth installs the /healthz role/fence provider; the probe stays
// a plain-text liveness line until a provider is set.
func (t *Telemetry) SetHealth(provider func() HealthInfo) {
	t.health.Store(provider)
}

// Health returns the current role/fence report and whether a provider
// is installed.
func (t *Telemetry) Health() (HealthInfo, bool) {
	p, _ := t.health.Load().(func() HealthInfo)
	if p == nil {
		return HealthInfo{}, false
	}
	return p(), true
}

// SetMeter installs the /healthz measurement-service provider; the
// probe omits the meter section until one is set (client-supplied
// readings, no meter).
func (t *Telemetry) SetMeter(provider func() MeterInfo) {
	t.meter.Store(provider)
}

// Meter returns the current measurement-service report and whether a
// provider is installed.
func (t *Telemetry) Meter() (MeterInfo, bool) {
	p, _ := t.meter.Load().(func() MeterInfo)
	if p == nil {
		return MeterInfo{}, false
	}
	return p(), true
}

// SetQoS installs the /healthz tenant-protection provider; the probe
// omits the qos section until one is set.
func (t *Telemetry) SetQoS(provider func() QoSInfo) {
	t.qos.Store(provider)
}

// QoS returns the current tenant-protection report and whether a
// provider is installed.
func (t *Telemetry) QoS() (QoSInfo, bool) {
	p, _ := t.qos.Load().(func() QoSInfo)
	if p == nil {
		return QoSInfo{}, false
	}
	return p(), true
}

// RecordCalibration files a meter-calibration summary in the flight
// recorder, tagged with the reserved session name "meter-calibration",
// so exported decision streams carry their measurement provenance.
func (t *Telemetry) RecordCalibration(backend string, baselineW, cv float64, trials int, earlyStopped bool) {
	t.Flight.Record(Decision{
		Session:       "meter-calibration",
		Sane:          true,
		GuardAccepted: earlyStopped,
		CalBackend:    backend,
		CalBaselineW:  baselineW,
		CalCV:         cv,
		CalTrials:     trials,
	})
}

// CounterSummary snapshots the cumulative counters a cluster member
// ships on its heartbeats for the coordinator's fleet rollup. Values
// are cumulative, not deltas: the coordinator differences successive
// reports itself, so a lost heartbeat loses nothing.
func (t *Telemetry) CounterSummary() (decisions, iterations, guardRejected, watchdogTrips, faults float64) {
	for i := range t.faults {
		faults += t.faults[i].Value()
	}
	return t.decisions.Value(), t.iterations.Value(),
		t.guardRejected.Value(), t.watchdogTrips.Value(), faults
}

// lane is the Sink implementation proper: the Telemetry, the stripe its
// counter and histogram writes land on, and the session name stamped on
// the decisions it records ("" leaves a decision's own tag alone).
// Telemetry's Sink methods are the lane {stripe 0, no session};
// WithSession hands each daemon session a lane of its own. Gauges are
// single cells whatever the lane (last writer wins, as ever) and the
// flight recorder is one ring with one sequence.
type lane struct {
	t       *Telemetry
	stripe  Stripe
	session string
}

// WithSession returns a sink that reports into t on behalf of one
// governor-daemon session: every decision it records carries the session
// id — the multiplexing the daemon needs when many tenants share one
// flight recorder — and its counter and histogram updates go to the
// session's stripe (StripeOf), so sessions on different cores do not
// write the same cache lines. Metrics still aggregate across sessions:
// every reader sums the stripes.
func WithSession(t *Telemetry, session string) Sink {
	if t == nil {
		return Nop{}
	}
	return lane{t: t, stripe: StripeOf(session), session: session}
}

// RecordDecision implements Sink.
func (t *Telemetry) RecordDecision(d Decision) { lane{t: t}.RecordDecision(d) }

// ControlStep implements Sink.
func (t *Telemetry) ControlStep(target, measured, errTerm, pole, speedup float64) {
	lane{t: t}.ControlStep(target, measured, errTerm, pole, speedup)
}

// EstimatorUpdate implements Sink.
func (t *Telemetry) EstimatorUpdate(arm int, rate, power, gain float64) {
	lane{t: t}.EstimatorUpdate(arm, rate, power, gain)
}

// GuardVerdict implements Sink.
func (t *Telemetry) GuardVerdict(accepted bool, reason uint8, power float64) {
	lane{t: t}.GuardVerdict(accepted, reason, power)
}

// FaultInjected implements Sink.
func (t *Telemetry) FaultInjected(channel uint8) { lane{t: t}.FaultInjected(channel) }

// WatchdogTrip implements Sink.
func (t *Telemetry) WatchdogTrip() { lane{t: t}.WatchdogTrip() }

// IterationDone implements Sink.
func (t *Telemetry) IterationDone(seconds float64, estimated bool) {
	lane{t: t}.IterationDone(seconds, estimated)
}

// JobStart implements Sink.
func (t *Telemetry) JobStart(queued int) { lane{t: t}.JobStart(queued) }

// JobDone implements Sink.
func (t *Telemetry) JobDone(failed bool) { lane{t: t}.JobDone(failed) }

// RecordDecision implements Sink, stamping the session id.
func (l lane) RecordDecision(d Decision) {
	t, s := l.t, l.stripe
	if l.session != "" {
		d.Session = l.session
	}
	t.Flight.Record(d)
	t.decisions.AddOn(s, 1)
	if d.Explored {
		t.explorations.AddOn(s, 1)
	}
	if d.ActuationMiss {
		t.actMisses.AddOn(s, 1)
	}
	if d.Estimated {
		t.estimated.AddOn(s, 1)
	}
	t.degraded.SetBool(d.Degraded)
	t.infeasible.SetBool(d.Infeasible)
	t.epsilon.Set(d.Epsilon)
	t.speedupCmd.Set(d.SpeedupCmd)
	t.bestArm.Set(float64(d.BestArm))
	t.energyUsed.Set(d.EnergyUsedJ)
	t.budgetLeft.Set(d.BudgetRemainingJ)
	t.allowedPer.Set(d.AllowedJPerIter)
}

// ControlStep implements Sink.
func (l lane) ControlStep(target, measured, errTerm, pole, speedup float64) {
	l.t.ctrlSteps.AddOn(l.stripe, 1)
	l.t.pole.Set(pole)
	l.t.piError.Set(errTerm)
	l.t.target.Set(target)
}

// EstimatorUpdate implements Sink.
func (l lane) EstimatorUpdate(arm int, rate, power, gain float64) {
	l.t.estUpdates.AddOn(l.stripe, 1)
	l.t.estGain.Set(gain)
}

// GuardVerdict implements Sink.
func (l lane) GuardVerdict(accepted bool, reason uint8, power float64) {
	t, s := l.t, l.stripe
	if accepted {
		t.guardAccepted.AddOn(s, 1)
	} else {
		t.guardRejected.AddOn(s, 1)
	}
	if int(reason) < len(t.guardReasons) {
		t.guardReasons[reason].AddOn(s, 1)
	}
	t.guardPower.ObserveOn(s, power)
}

// FaultInjected implements Sink.
func (l lane) FaultInjected(channel uint8) {
	if channel < numFaultChannels {
		l.t.faults[channel].AddOn(l.stripe, 1)
	}
}

// WatchdogTrip implements Sink.
func (l lane) WatchdogTrip() { l.t.watchdogTrips.AddOn(l.stripe, 1) }

// IterationDone implements Sink.
func (l lane) IterationDone(seconds float64, estimated bool) {
	t, s := l.t, l.stripe
	t.iterations.AddOn(s, 1)
	if estimated {
		t.iterEstimated.AddOn(s, 1)
	}
	t.iterSeconds.ObserveOn(s, seconds)
}

// JobStart implements Sink.
func (l lane) JobStart(queued int) {
	l.t.jobsStarted.AddOn(l.stripe, 1)
	l.t.queueDepth.Set(float64(queued))
}

// JobDone implements Sink.
func (l lane) JobDone(failed bool) {
	l.t.jobsDone.AddOn(l.stripe, 1)
	if failed {
		l.t.jobsFailed.AddOn(l.stripe, 1)
	}
}
