// Package telemetry is JouleGuard's observability layer: a metric
// registry that renders the Prometheus text exposition format, a bounded
// flight recorder of per-iteration controller decisions with JSONL
// export, and the Sink interface the governor is instrumented against.
// Beyond the standard library it imports only guard's reason labels, and
// it sits outside the code it measures: the learner, the controller and
// the sensing guard report nothing. The runtime emits one Decision per
// observation, carrying what its learner, controller and watchdog did;
// the online loop emits one IterationDone per iteration, carrying the
// guard's verdict; the fault injector and the experiment runner report
// their own events. Every counter, gauge and histogram is derived from
// those events.
//
// Instrumentation is designed to cost nothing when disabled: every Sink
// method takes only scalars or small value structs, so calling through
// the no-op implementation performs no allocation and no locking — the
// zero-alloc property is pinned by BenchmarkTelemetryNopSink and
// TestNopSinkZeroAlloc. Components therefore call their sink
// unconditionally instead of branching on "is telemetry on".
package telemetry

// Decision is one flight-recorder event: everything the runtime knew and
// decided in a single control iteration. It answers "why did JouleGuard
// pick this configuration?" without re-deriving the answer from CSV
// dumps — the SEU (bandit) estimates, the PI controller state, the
// budget ledger, the sensing-guard verdict and the fault/watchdog state
// are all captured at the moment of the decision.
//
// AppConfig and SysConfig are the configurations that actually ran the
// iteration (post actuation readback), so a replayed decision stream
// matches the run's Record exactly. NextApp and NextSys are the
// configurations chosen for the following iteration.
type Decision struct {
	// Seq is the running sequence number a sink's window stamps — one
	// counter per Telemetry, shared by its process ring and every session
	// window —
	// and the ?since= cursor that lets a long chaos run be tailed
	// incrementally from /decisions. 1-based; 0 means "not yet recorded".
	Seq uint64 `json:"seq,omitempty"`

	// Session tags decisions made on behalf of a governor-daemon session
	// (empty for in-process runs); WithSession stamps it.
	Session string `json:"session,omitempty"`

	Iter      int `json:"iter"`
	AppConfig int `json:"app_config"`
	SysConfig int `json:"sys_config"`
	NextApp   int `json:"next_app"`
	NextSys   int `json:"next_sys"`

	// SEO / bandit state (the "SEU estimate": for an EWMA estimator the
	// filter values, for a Kalman estimator the filter state and gain).
	SEURate       float64 `json:"seu_rate"`
	SEUPower      float64 `json:"seu_power"`
	SEUEfficiency float64 `json:"seu_efficiency"`
	EstimatorGain float64 `json:"estimator_gain"` // the gain of NextSys's estimator
	UpdatedGain   float64 `json:"updated_gain,omitempty"`
	BestArm       int     `json:"best_arm"`
	Explored      bool    `json:"explored"`
	Epsilon       float64 `json:"epsilon"`

	// AAO / PI controller state.
	SpeedupCmd float64 `json:"speedup_cmd"`
	TargetRate float64 `json:"target_rate"`
	PIError    float64 `json:"pi_error"`
	Pole       float64 `json:"pole"`

	// Budget ledger.
	EnergyUsedJ      float64 `json:"energy_used_j"`
	BudgetRemainingJ float64 `json:"budget_remaining_j"`
	AllowedJPerIter  float64 `json:"allowed_j_per_iter"`

	// Sensing, fault and watchdog state.
	Sane          bool `json:"sane"`
	GuardAccepted bool `json:"guard_accepted"`
	Estimated     bool `json:"estimated"`
	ActuationMiss bool `json:"actuation_miss"`
	Degraded      bool `json:"degraded"`
	Infeasible    bool `json:"infeasible"`

	// What this observation did, so the step, update and trip counters
	// are derived from the decision: Stepped, the PI controller moved its
	// integrator (Eqn 5); Updated, the bandit folded the measurement into
	// the estimates of SysConfig (Eqn 1), with filter gain UpdatedGain;
	// Tripped, the watchdog degraded to its conservative configuration.
	Stepped bool `json:"stepped,omitempty"`
	Updated bool `json:"updated,omitempty"`
	Tripped bool `json:"tripped,omitempty"`

	// Meter-calibration provenance: set only on the records
	// Telemetry.RecordCalibration files (Session "meter-calibration"),
	// so an exported flight stream carries how the run's baseline was
	// obtained alongside the decisions made against it.
	CalBackend   string  `json:"cal_backend,omitempty"`
	CalBaselineW float64 `json:"cal_baseline_w,omitempty"`
	CalCV        float64 `json:"cal_cv,omitempty"`
	CalTrials    int     `json:"cal_trials,omitempty"`
}

// Fault channels reported through Sink.FaultInjected.
const (
	FaultSensor uint8 = iota
	FaultClock
	FaultActuator
	FaultNetwork
	numFaultChannels
)

// FaultChannelName names a fault channel.
func FaultChannelName(ch uint8) string {
	switch ch {
	case FaultSensor:
		return "sensor"
	case FaultClock:
		return "clock"
	case FaultActuator:
		return "actuator"
	case FaultNetwork:
		return "network"
	}
	return "unknown"
}

// Sink receives instrumentation events from the governor. All methods
// must be safe for concurrent use (the experiment runner calls from its
// worker pool) and must not retain references to their arguments.
// Implementations that do not care about an event simply ignore it; Nop
// ignores everything at zero cost.
type Sink interface {
	// RecordDecision traces one completed control iteration: the
	// runtime's one event per observation.
	RecordDecision(d Decision)
	// FaultInjected reports one injected fault on the given channel
	// (FaultSensor, FaultClock, FaultActuator).
	FaultInjected(channel uint8)
	// IterationDone reports one completed online-controller iteration:
	// its wall duration and the sensing guard's verdict on its
	// measurement — accepted or not, the guard.Reason value, and the
	// power acted on (the reading if accepted, the fallback estimate
	// otherwise).
	IterationDone(seconds float64, accepted bool, reason uint8, power float64)
	// JobStart reports an experiment-runner job starting with the
	// number of jobs still queued behind it.
	JobStart(queued int)
	// JobDone reports an experiment-runner job finishing.
	JobDone(failed bool)
}

// Nop is the no-op Sink: every method is empty, so instrumented code can
// call it unconditionally and pay only a static interface dispatch. It
// allocates nothing (all methods take scalars or value structs).
type Nop struct{}

// RecordDecision implements Sink.
func (Nop) RecordDecision(Decision) {}

// FaultInjected implements Sink.
func (Nop) FaultInjected(channel uint8) {}

// IterationDone implements Sink.
func (Nop) IterationDone(seconds float64, accepted bool, reason uint8, power float64) {}

// JobStart implements Sink.
func (Nop) JobStart(queued int) {}

// JobDone implements Sink.
func (Nop) JobDone(failed bool) {}

// OrNop returns s, or the no-op sink when s is nil, so components can
// store a never-nil sink and skip per-call nil checks.
func OrNop(s Sink) Sink {
	if s == nil {
		return Nop{}
	}
	return s
}
