package telemetry

import (
	"sync"
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
//
// Decisions made through Telemetry itself (the library path) land in
// Flight, the process ring; a daemon session's land in the window of its
// SessionSink. One counter stamps Seq on both, so /decisions can merge
// them into one stream.
type Telemetry struct {
	Registry *Registry
	Flight   *FlightRecorder
	Spans    *SpanBuffer

	seq     atomic.Uint64 // Seq source: decisions ever recorded, process-wide
	winMu   sync.Mutex
	windows map[*SessionSink]struct{} // session windows, from WithSession until Close

	start  time.Time
	health atomic.Value // func() HealthInfo, nil until SetHealth
	meter  atomic.Value // func() MeterInfo, nil until SetMeter
	qos    atomic.Value // func() QoSInfo, nil until SetQoS

	// Decision stream. The gauges here and under the PI controller and
	// the estimators describe the last unbound decision; they stay unset
	// (exported without a sample) until one arrives, so a daemon, whose
	// sessions set none of them, exports no reading nothing wrote.
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
		Spans:    NewSpanBuffer(0),
		windows:  map[*SessionSink]struct{}{},
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
	for _, g := range []*Gauge{t.degraded, t.infeasible, t.epsilon, t.speedupCmd, t.bestArm,
		t.energyUsed, t.budgetLeft, t.allowedPer, t.pole, t.piError, t.target, t.estGain} {
		g.unset()
	}
	t.Flight = newRecorder(flightCapacity, &t.seq)
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

// Decisions returns the retained decisions with Seq > since, oldest
// first: the process ring merged with every listed session window. A
// non-empty session keeps only that session's decisions; last > 0 keeps
// only the newest last of what the other filters kept. A read returns
// at most maxRead decisions however many windows are listed, and copies
// no more than it returns, so a scrape of a daemon with thousands of
// sessions costs what one of the process ring does.
//
// The read is bounded by the Seq counter as loaded on entry, so a
// decision stamped while the sources are being read is left for the next
// read instead of being returned ahead of a lower Seq still being
// written: polling with since set to the last Seq returned never skips a
// decision that is still retained, as long as fewer than maxRead arrive
// between polls.
func (t *Telemetry) Decisions(session string, since uint64, last int) []Decision {
	limit := t.maxRead()
	if last <= 0 || last > limit {
		last = limit
	}
	hi := t.seq.Load()
	k := &newest{n: last}
	t.Flight.offerNewest(k, session, since, hi)
	for _, w := range t.sessionWindows(session) {
		w.offerNewest(k, "", since, hi)
	}
	return k.sorted()
}

// maxRead bounds one Decisions read: what the process ring holds, and at
// least DefaultFlightCapacity.
func (t *Telemetry) maxRead() int { return max(t.Flight.size, DefaultFlightCapacity) }

// sessionWindows lists the session windows (only session's when it is
// non-empty). The list is copied so no window lock is taken under winMu.
func (t *Telemetry) sessionWindows(session string) []*FlightRecorder {
	t.winMu.Lock()
	defer t.winMu.Unlock()
	var out []*FlightRecorder
	for s := range t.windows {
		if session == "" || s.session == session {
			out = append(out, &s.window)
		}
	}
	return out
}

// lane is the part of a Sink every writer shares: the counter and
// histogram updates, landing on one stripe. Telemetry's Sink methods are
// the lane on stripe 0 plus the process ring and the decision gauges;
// SessionSink is a session's lane plus its own decision window.
type lane struct {
	t      *Telemetry
	stripe Stripe
}

// sessionWindow bounds a session's decision window: the last
// min(sessionWindow, declared iterations) decisions, ~14 KB at most
// where the process ring's DefaultFlightCapacity is ~0.9 MB. It is a
// constant, not a knob: every live session holds one, so window memory
// grows with the number of live sessions.
const sessionWindow = 64

// SessionSink is the sink one governor-daemon session reports into.
// Its counter and histogram updates go to the session's stripe
// (StripeOf), so sessions on different cores do not write the same cache
// lines; metrics still aggregate, since every reader sums the stripes.
// Its decisions, stamped with the session id, go to a window of the
// session's own rather than the process ring, so sessions share nothing
// per decision but the Seq counter; the window's ring is allocated by
// the first decision and released by Close. It sets none of the process
// decision gauges (energy used, budget remaining, epsilon, pole, ...): in
// a multi-tenant daemon they would describe whichever session settled
// last. /decisions?session= is where a session's state is read.
type SessionSink struct {
	lane
	session string
	window  FlightRecorder
}

// WithSession returns the sink one session of t reports into, keeping
// the session's last min(sessionWindow, iterations) decisions
// (sessionWindow when iterations <= 0). The window is listed in t's
// reads from here until Close, so it is listed before its first decision
// is stamped: a reader that loads the Seq counter and then lists the
// windows finds every decision at or below what it loaded.
func WithSession(t *Telemetry, session string, iterations int) *SessionSink {
	if iterations <= 0 || iterations > sessionWindow {
		iterations = sessionWindow
	}
	s := &SessionSink{lane: lane{t: t, stripe: StripeOf(session)}, session: session}
	s.window.size, s.window.seq = iterations, &t.seq
	t.winMu.Lock()
	t.windows[s] = struct{}{}
	t.winMu.Unlock()
	return s
}

// Window returns the session's decision window.
func (s *SessionSink) Window() *FlightRecorder { return &s.window }

// RecordDecision implements Sink, stamping the session id.
func (s *SessionSink) RecordDecision(d Decision) {
	s.decided(d)
	d.Session = s.session
	s.window.Record(d)
}

// Close unlists the session's window and releases its ring; later
// decisions are counted but not kept. The daemon closes a session's sink
// when the session leaves its registry.
func (s *SessionSink) Close() {
	s.t.winMu.Lock()
	delete(s.t.windows, s)
	s.t.winMu.Unlock()
	s.window.release()
}

// RecordDecision implements Sink.
func (t *Telemetry) RecordDecision(d Decision) {
	t.Flight.Record(d)
	lane{t: t}.decided(d)
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
func (t *Telemetry) ControlStep(target, measured, errTerm, pole, speedup float64) {
	lane{t: t}.ControlStep(target, measured, errTerm, pole, speedup)
	t.pole.Set(pole)
	t.piError.Set(errTerm)
	t.target.Set(target)
}

// EstimatorUpdate implements Sink.
func (t *Telemetry) EstimatorUpdate(arm int, rate, power, gain float64) {
	lane{t: t}.EstimatorUpdate(arm, rate, power, gain)
	t.estGain.Set(gain)
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

// decided counts one decision.
func (l lane) decided(d Decision) {
	t, s := l.t, l.stripe
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
}

// ControlStep implements Sink.
func (l lane) ControlStep(target, measured, errTerm, pole, speedup float64) {
	l.t.ctrlSteps.AddOn(l.stripe, 1)
}

// EstimatorUpdate implements Sink.
func (l lane) EstimatorUpdate(arm int, rate, power, gain float64) {
	l.t.estUpdates.AddOn(l.stripe, 1)
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
