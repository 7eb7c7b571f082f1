package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"jouleguard/internal/guard"
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
// section: its QoS tier and current ladder rung.
type QoSTenant struct {
	Tenant string `json:"tenant"`
	Tier   string `json:"tier"`
	State  string `json:"state"`
}

// QoSInfo is the tenant-protection section of /healthz: whether the
// local ladder is active and every known tenant's standing.
type QoSInfo struct {
	Enabled bool        `json:"enabled"`
	Tenants []QoSTenant `json:"tenants,omitempty"`
}

// Telemetry is the live Sink: it maintains a metric registry covering
// the whole control path, keeps the recent decisions, and keeps the
// process's span buffer for distributed traces. One Telemetry serves a
// whole process — its methods are safe for concurrent use by the
// experiment worker pool — and its Handler (http.go) exposes everything
// over HTTP.
//
// Every event is counted by a SessionSink, and only there. Events sent to
// Telemetry itself (the library path) are those of its process sink,
// proc, whose owner lock is mu and whose window is the process ring; a
// daemon session's are those of the sink WithSession made for it. One
// counter stamps Seq on every window, so /decisions can merge them into
// one stream. Besides delegating, the unbound path sets the decision,
// controller and estimator gauges from each decision, which no session
// sink sets (SessionSink).
//
// Lock rule: no telemetry lock is held while a sink's owner lock is
// taken, and a reader holds one owner lock at a time. Readers list the
// sinks under winMu, release it, then visit each sink under its owner.
type Telemetry struct {
	Registry *Registry
	Spans    *SpanBuffer

	seq   atomic.Uint64 // Seq source: decisions ever recorded, process-wide
	mu    sync.Mutex    // proc's owner lock
	proc  *SessionSink  // the library path's sink; its window is the process ring
	winMu sync.Mutex
	sinks map[*SessionSink]struct{} // proc, and session sinks from WithSession until Close

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
	// guard.Reason.
	guardAccepted *Counter
	guardRejected *Counter
	guardReasons  [numGuardReasons]*Counter
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

// numGuardReasons is how many guard.Reason values have a counter.
const numGuardReasons = int(guard.Outlier) + 1

// New builds a live telemetry sink whose process ring holds the last
// flightCapacity decisions (DefaultFlightCapacity if <= 0).
func New(flightCapacity int) *Telemetry {
	r := NewRegistry()
	t := &Telemetry{
		Registry: r,
		Spans:    NewSpanBuffer(0),
		sinks:    map[*SessionSink]struct{}{},
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
	for i := range t.guardReasons {
		t.guardReasons[i] = r.Counter("jouleguard_guard_verdicts_total",
			"Sensing-guard rulings by reason.", Label{"reason", guard.Reason(i).String()})
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
	if flightCapacity <= 0 {
		flightCapacity = DefaultFlightCapacity
	}
	t.proc = t.newSink("", flightCapacity, &t.mu, nil)
	r.collect = t.fold
	return t
}

// SetHealth installs the /healthz role/fence provider; the probe stays
// a plain-text liveness line until a provider is set.
func (t *Telemetry) SetHealth(provider func() HealthInfo) {
	t.health.Store(provider)
}

// Health returns the current role/fence report and whether a provider
// is installed.
func (t *Telemetry) Health() (HealthInfo, bool) { return provided[HealthInfo](&t.health) }

// SetMeter installs the /healthz measurement-service provider; the
// probe omits the meter section until one is set (client-supplied
// readings, no meter).
func (t *Telemetry) SetMeter(provider func() MeterInfo) {
	t.meter.Store(provider)
}

// Meter returns the current measurement-service report and whether a
// provider is installed.
func (t *Telemetry) Meter() (MeterInfo, bool) { return provided[MeterInfo](&t.meter) }

// SetQoS installs the /healthz tenant-protection provider; the probe
// omits the qos section until one is set.
func (t *Telemetry) SetQoS(provider func() QoSInfo) {
	t.qos.Store(provider)
}

// QoS returns the current tenant-protection report and whether a
// provider is installed.
func (t *Telemetry) QoS() (QoSInfo, bool) { return provided[QoSInfo](&t.qos) }

// provided calls the provider func() T stored in v; ok is false while
// none is installed.
func provided[T any](v *atomic.Value) (report T, ok bool) {
	p, _ := v.Load().(func() T)
	if p == nil {
		return report, false
	}
	return p(), true
}

// RecordCalibration files a meter-calibration summary in the process
// ring, tagged with the reserved session name "meter-calibration", so
// exported decision streams carry their measurement provenance. It is
// not a decision: nothing counts it.
func (t *Telemetry) RecordCalibration(backend string, baselineW, cv float64, trials int, earlyStopped bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.proc.window.record(Decision{
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
// reports itself, so a lost heartbeat loses nothing. Session tallies are
// folded in first, so the values are exact.
func (t *Telemetry) CounterSummary() (decisions, iterations, guardRejected, watchdogTrips, faults float64) {
	t.fold()
	for i := range t.faults {
		faults += t.faults[i].Value()
	}
	return t.decisions.Value(), t.iterations.Value(),
		t.guardRejected.Value(), t.watchdogTrips.Value(), faults
}

// Decisions returns the retained decisions with Seq > since, oldest
// first: the windows of every listed sink, merged. A non-empty session
// keeps only that session's decisions; last > 0 keeps only the newest
// last of what the other filters kept. A read returns at most maxRead
// decisions however many windows are listed, and copies no more than it
// returns, so a scrape of a daemon with thousands of sessions costs what
// one of the process ring does.
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
	for _, s := range t.listed(session) {
		s.owner.Lock()
		s.window.offerNewest(k, session, since, hi)
		s.owner.Unlock()
	}
	return k.sorted()
}

// maxRead bounds one Decisions read: what the process ring holds, and at
// least DefaultFlightCapacity.
func (t *Telemetry) maxRead() int { return max(t.proc.window.size, DefaultFlightCapacity) }

// listed lists the sinks whose windows can hold session's decisions:
// every sink when session is empty, else session's and proc, whose ring
// holds decisions of any session name (meter-calibration's among them).
// The list is copied so no owner lock is taken under winMu.
func (t *Telemetry) listed(session string) []*SessionSink {
	t.winMu.Lock()
	defer t.winMu.Unlock()
	var out []*SessionSink
	for s := range t.sinks {
		if session == "" || s.session == session || s == t.proc {
			out = append(out, s)
		}
	}
	return out
}

// fold moves every listed sink's tally into the registry's cells, one
// owner at a time, so a read that follows sees every event recorded
// before the fold began. Registry.WritePrometheus and CounterSummary
// call it.
func (t *Telemetry) fold() {
	for _, s := range t.listed("") {
		s.owner.Lock()
		s.fold()
		s.owner.Unlock()
	}
}

// sessionWindow bounds a session's decision window: the last
// min(sessionWindow, declared iterations) decisions, ~14 KB at most
// where the process ring's DefaultFlightCapacity is ~0.9 MB. It is a
// constant, not a knob: every live session holds one, so window memory
// grows with the number of live sessions.
const sessionWindow = 64

// maxTallyBuckets is room for the buckets of the histograms a session
// tallies: MicroDurationBuckets' 14 bounds plus +Inf, PowerBuckets' 11
// plus +Inf.
const maxTallyBuckets = 15

// histTally is one histogram's share of a tally: per-bucket counts (+Inf
// last; only the first len(bounds)+1 are used) and the samples' sum.
type histTally struct {
	buckets [maxTallyBuckets]uint64
	sum     float64
}

// observe counts v into its bucket; non-finite samples are dropped, as
// Histogram.Observe drops them.
func (h *histTally) observe(bounds []float64, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	h.buckets[sort.SearchFloat64s(bounds, v)]++
	h.sum += v
}

// tally is what a sink has counted since its last fold: plain integers
// and the samples of its histograms, written under the sink's owner
// lock. Most integers feed one counter each; rejected feeds both the
// guard's rejected and the estimated-iteration counters, and the guard's
// accepted count is iterations less rejected.
type tally struct {
	decisions, explorations, actMisses, estimated uint64
	ctrlSteps, estUpdates                         uint64
	guardReasons                                  [numGuardReasons]uint64
	faults                                        [numFaultChannels]uint64
	watchdogTrips                                 uint64
	iterations, rejected                          uint64
	jobsStarted, jobsDone, jobsFailed             uint64
	guardPower, iterSeconds, latency              histTally
}

// SessionSink is the code that counts: the sink one governor-daemon
// session reports into, and (as Telemetry's proc) the library path's.
// Unlike other Sinks it is not safe for concurrent use on its own: every
// method must be called under the sink's owner lock, which the daemon
// already holds around each call into the session's governor stack. It
// writes only what that lock guards: a tally of the sink's counter
// increments and histogram samples, and a decision window of its own. So
// a session takes no lock of its own and writes no cell another session
// writes; the one shared write per decision is the Seq counter. Readers
// fold the tallies into the registry's cells (Telemetry.fold) before
// they read them, so totals are exact.
//
// Decisions are stamped with the session id (proc, session "", keeps
// each decision's own). The window's ring is allocated by the first
// decision and released by Close. The sink sets none of the process
// decision gauges (energy used, budget remaining, epsilon, pole, ...):
// in a multi-tenant daemon they would describe whichever session settled
// last. /decisions?session= is where a session's state is read.
type SessionSink struct {
	t       *Telemetry
	owner   sync.Locker
	session string
	latency *Histogram // what ObserveLatency's samples fold into (nil: it takes none)
	window  FlightRecorder
	tally   tally
}

// WithSession returns the sink one session of t reports into, keeping
// the session's last min(sessionWindow, iterations) decisions
// (sessionWindow when iterations <= 0). owner is the lock every call
// into the sink is made under; readers take it to fold the sink's tally
// and to read its window, so the caller must not hold it here or in
// Close. latency, when non-nil, is the histogram ObserveLatency's
// samples fold into; a tally has room for at most maxTallyBuckets-1
// bounds, so WithSession panics on a histogram with more. The
// sink is listed in t's reads from here until Close, so it is listed
// before its first decision is stamped: a reader that loads the Seq
// counter and then lists the windows finds every decision at or below
// what it loaded.
func WithSession(t *Telemetry, session string, iterations int, owner sync.Locker, latency *Histogram) *SessionSink {
	if latency != nil && len(latency.bounds) >= maxTallyBuckets {
		panic("telemetry: latency histogram has more buckets than a session tally holds")
	}
	if iterations <= 0 || iterations > sessionWindow {
		iterations = sessionWindow
	}
	return t.newSink(session, iterations, owner, latency)
}

// newSink builds a sink keeping the last size decisions and lists it.
func (t *Telemetry) newSink(session string, size int, owner sync.Locker, latency *Histogram) *SessionSink {
	s := &SessionSink{t: t, owner: owner, session: session, latency: latency}
	s.window.size, s.window.seq = size, &t.seq
	t.winMu.Lock()
	t.sinks[s] = struct{}{}
	t.winMu.Unlock()
	return s
}

// WindowLocked returns a copy of the session's decision window, oldest
// first. Callers hold the owner lock.
func (s *SessionSink) WindowLocked() []Decision { return s.window.snapshot() }

// LastLocked returns the newest decision in the session's window; ok is
// false when it holds none. Callers hold the owner lock.
func (s *SessionSink) LastLocked() (d Decision, ok bool) { return s.window.last() }

// Close folds the sink's tally, releases its window's ring, and only
// then unlists it, so no read can miss the tally: it is in the cells
// before the sink leaves the list. Later events are folded as they are
// recorded and their decisions are not kept. The daemon closes a
// session's sink when the session leaves its registry.
func (s *SessionSink) Close() {
	s.owner.Lock()
	s.fold()
	s.window.buf, s.window.closed = nil, true
	s.owner.Unlock()
	s.t.winMu.Lock()
	delete(s.t.sinks, s)
	s.t.winMu.Unlock()
}

// fold moves the tally into the registry's cells and zeroes it. Callers
// hold the owner lock.
func (s *SessionSink) fold() {
	c := &s.tally
	if *c == (tally{}) {
		return
	}
	t := s.t
	add := func(m *Counter, n uint64) { m.Add(float64(n)) }
	add(t.decisions, c.decisions)
	add(t.explorations, c.explorations)
	add(t.actMisses, c.actMisses)
	add(t.estimated, c.estimated)
	add(t.ctrlSteps, c.ctrlSteps)
	add(t.estUpdates, c.estUpdates)
	add(t.guardAccepted, c.iterations-c.rejected)
	add(t.guardRejected, c.rejected)
	for i, n := range c.guardReasons {
		add(t.guardReasons[i], n)
	}
	for i, n := range c.faults {
		add(t.faults[i], n)
	}
	add(t.watchdogTrips, c.watchdogTrips)
	add(t.iterations, c.iterations)
	add(t.iterEstimated, c.rejected)
	add(t.jobsStarted, c.jobsStarted)
	add(t.jobsDone, c.jobsDone)
	add(t.jobsFailed, c.jobsFailed)
	t.guardPower.merge(c.guardPower.buckets[:], c.guardPower.sum)
	t.iterSeconds.merge(c.iterSeconds.buckets[:], c.iterSeconds.sum)
	if s.latency != nil {
		s.latency.merge(c.latency.buckets[:], c.latency.sum)
	}
	*c = tally{}
}

// foldIfClosed ends every event: a closed sink has no reader left to
// fold its tally, so it folds it itself.
func (s *SessionSink) foldIfClosed() {
	if s.window.closed {
		s.fold()
	}
}

// RecordDecision implements Sink, stamping the session id. The decision
// also counts the controller step, estimator update and watchdog trip it
// carries.
func (s *SessionSink) RecordDecision(d Decision) {
	if s.session != "" {
		d.Session = s.session
	}
	c := &s.tally
	c.decisions++
	if d.Explored {
		c.explorations++
	}
	if d.ActuationMiss {
		c.actMisses++
	}
	if d.Estimated {
		c.estimated++
	}
	if d.Stepped {
		c.ctrlSteps++
	}
	if d.Updated {
		c.estUpdates++
	}
	if d.Tripped {
		c.watchdogTrips++
	}
	s.window.record(d)
	s.foldIfClosed()
}

// FaultInjected implements Sink.
func (s *SessionSink) FaultInjected(channel uint8) {
	if channel < numFaultChannels {
		s.tally.faults[channel]++
	}
	s.foldIfClosed()
}

// IterationDone implements Sink: an iteration whose measurement the
// guard did not accept ran on an estimate.
func (s *SessionSink) IterationDone(seconds float64, accepted bool, reason uint8, power float64) {
	c := &s.tally
	c.iterations++
	c.iterSeconds.observe(s.t.iterSeconds.bounds, seconds)
	if !accepted {
		c.rejected++
	}
	if int(reason) < numGuardReasons {
		c.guardReasons[reason]++
	}
	c.guardPower.observe(s.t.guardPower.bounds, power)
	s.foldIfClosed()
}

// JobStart implements Sink.
func (s *SessionSink) JobStart(queued int) {
	s.tally.jobsStarted++
	s.t.queueDepth.Set(float64(queued))
	s.foldIfClosed()
}

// JobDone implements Sink.
func (s *SessionSink) JobDone(failed bool) {
	s.tally.jobsDone++
	if failed {
		s.tally.jobsFailed++
	}
	s.foldIfClosed()
}

// ObserveLatency tallies one decision-latency sample (seconds) for the
// histogram WithSession was given; a sink given none drops it.
func (s *SessionSink) ObserveLatency(seconds float64) {
	if s.latency == nil {
		return
	}
	s.tally.latency.observe(s.latency.bounds, seconds)
	s.foldIfClosed()
}

// RecordDecision implements Sink. The controller gauges take the
// decision's values only when it stepped the controller, and the
// estimator gain only when it updated an estimate, so they hold the last
// step's and the last update's.
func (t *Telemetry) RecordDecision(d Decision) {
	t.mu.Lock()
	t.proc.RecordDecision(d)
	t.mu.Unlock()
	t.degraded.SetBool(d.Degraded)
	t.infeasible.SetBool(d.Infeasible)
	t.epsilon.Set(d.Epsilon)
	t.speedupCmd.Set(d.SpeedupCmd)
	t.bestArm.Set(float64(d.BestArm))
	t.energyUsed.Set(d.EnergyUsedJ)
	t.budgetLeft.Set(d.BudgetRemainingJ)
	t.allowedPer.Set(d.AllowedJPerIter)
	if d.Stepped {
		t.pole.Set(d.Pole)
		t.piError.Set(d.PIError)
		t.target.Set(d.TargetRate)
	}
	if d.Updated {
		t.estGain.Set(d.UpdatedGain)
	}
}

// FaultInjected implements Sink.
func (t *Telemetry) FaultInjected(channel uint8) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.proc.FaultInjected(channel)
}

// IterationDone implements Sink.
func (t *Telemetry) IterationDone(seconds float64, accepted bool, reason uint8, power float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.proc.IterationDone(seconds, accepted, reason, power)
}

// JobStart implements Sink.
func (t *Telemetry) JobStart(queued int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.proc.JobStart(queued)
}

// JobDone implements Sink.
func (t *Telemetry) JobDone(failed bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.proc.JobDone(failed)
}
