// Package core implements the JouleGuard runtime (paper Sec. 3, Algorithm
// 1): the System Energy Optimizer (SEO, Sec. 3.2) — a VDBE multi-armed
// bandit that finds the most energy-efficient system configuration — and
// the Application Accuracy Optimizer (AAO, Sec. 3.3) — an adaptive-pole PI
// controller that extracts any further speedup the energy goal requires
// from the application's accuracy/performance frontier while maximising
// accuracy.
//
// The runtime is deliberately decoupled from the simulator: it sees the
// world only through the sim.Governor interface (decide a configuration,
// observe rate/power/energy feedback), exactly as the paper's C runtime
// sees real machines through its performance and power callbacks
// (Sec. 3.5).
package core

import (
	"fmt"
	"math"
	"math/rand"

	"jouleguard/internal/control"
	"jouleguard/internal/knob"
	"jouleguard/internal/learning"
	"jouleguard/internal/sim"
	"jouleguard/internal/telemetry"
)

// SelectorKind names an exploration policy for the SEO ablations.
type SelectorKind string

// Exploration policies.
const (
	SelectVDBE     SelectorKind = "vdbe"      // the paper's choice
	SelectFixedEps SelectorKind = "fixed-eps" // classical epsilon-greedy
	SelectUCB      SelectorKind = "ucb"       // UCB1
)

// Options configures a Runtime. The zero value of each field selects the
// paper's behaviour.
type Options struct {
	Alpha           float64 // EWMA gain; 0 = paper's 0.85
	FixedPole       float64 // >= 0 with FixedPoleSet: disable Eqns 10-11
	FixedPoleSet    bool
	FlatPriors      bool         // replace linear/cubic priors with flat ones
	Selector        SelectorKind // exploration policy; "" = VDBE
	FixedEpsilon    float64      // epsilon for SelectFixedEps
	KalmanEstimator bool         // replace Eqn 1's EWMA with Kalman filters
	Seed            int64
	// Telemetry streams decision traces and metrics into an observability
	// sink (telemetry.New provides the live registry + flight recorder).
	// nil disables instrumentation at zero cost.
	Telemetry telemetry.Sink
}

const (
	// degradeAfter is the watchdog threshold: after this many consecutive
	// rejected/missing observations the runtime forces its most
	// conservative known-safe configuration until healthy feedback
	// resumes.
	degradeAfter = 5
	// infeasibleSlack is the tolerated overshoot of the maximum speedup
	// before the goal is reported infeasible.
	infeasibleSlack = 0.05
)

// Runtime is JouleGuard. It implements sim.Governor.
type Runtime struct {
	// Goal (Algorithm 1's Require lines).
	workload float64 // W: total iterations to complete
	budget   float64 // E: energy budget in measured joules

	frontier *knob.Frontier
	bandit   *learning.Bandit
	selector learning.Selector
	ctrl     *control.SpeedupController
	rng      *countedSource // shared by bandit and selector; see state.go
	defSys   int

	// Decision state for the next iteration.
	nextApp    knob.Point
	nextSys    int
	explored   bool
	iters      int
	done       bool
	infeasible bool

	// Watchdog: graceful degradation under broken sensing or a budget
	// trajectory that cannot recover.
	badStreak     int  // consecutive insane/estimated observations
	infStreak     int  // consecutive infeasible verdicts on live feedback
	healStreak    int  // consecutive healthy observations while degraded
	degraded      bool // currently pinned to the conservative configuration
	degradeEvents int  // times the watchdog tripped

	// Telemetry.
	lastTarget  float64
	lastSpeedup float64
	lastF       float64
	lastEps     float64
	lastMiss    bool           // last observation ran a config other than commanded
	sink        telemetry.Sink // never nil; Nop when Options.Telemetry unset
	traced      bool           // whether to assemble full Decision records
	// dec is the record of the last traced Observe, lent to the sink: a
	// field, so handing the sink a pointer moves nothing to the heap.
	dec telemetry.Decision
}

// New builds a JouleGuard runtime.
//
//	workload   total iterations the user needs completed (W)
//	budget     total energy allowed, in measured joules (E)
//	frontier   the application's profiled Pareto frontier
//	nSys       number of system configurations
//	priors     initial (rate, power) estimates per system configuration, in
//	           iterations/second and watts (Sec. 3.2's optimistic models)
//	defaultSys the system's default configuration index
func New(workload, budget float64, frontier *knob.Frontier, nSys int, priors learning.Priors, defaultSys int, opts Options) (*Runtime, error) {
	if workload <= 0 || math.IsNaN(workload) {
		return nil, fmt.Errorf("core: workload %v must be positive", workload)
	}
	if budget <= 0 || math.IsNaN(budget) {
		return nil, fmt.Errorf("core: energy budget %v must be positive", budget)
	}
	if frontier == nil || frontier.Len() == 0 {
		return nil, fmt.Errorf("core: empty application frontier")
	}
	if defaultSys < 0 || defaultSys >= nSys {
		return nil, fmt.Errorf("core: default system config %d out of range [0,%d)", defaultSys, nSys)
	}
	alpha := opts.Alpha
	if alpha == 0 {
		alpha = control.DefaultAlpha
	}
	// A caller that keeps its priors tabulated (a testbed does) passes the
	// table itself, and the bandit below is a copy of its image.
	table, err := learning.Tabulate(nSys, priors)
	if err != nil {
		return nil, err
	}
	if opts.FlatPriors {
		table = table.Flat()
	}
	src := newCountedSource(opts.Seed + 1)
	rng := rand.New(src)
	var bandit *learning.Bandit
	if opts.KalmanEstimator {
		bandit, err = table.NewKalmanBandit(rng)
	} else {
		bandit, err = table.NewBandit(alpha, rng)
	}
	if err != nil {
		return nil, err
	}
	var sel learning.Selector
	switch opts.Selector {
	case "", SelectVDBE:
		// Eqn 2 uses 1/|Sys|; cap the time constant at 100 updates so
		// exploration can settle within a few-hundred-iteration run.
		w := math.Max(1.0/float64(nSys), 1.0/40)
		sel = learning.NewVDBE(nSys, alpha, rng, learning.WithUpdateWeight(w))
	case SelectFixedEps:
		sel = learning.NewFixedEpsilon(opts.FixedEpsilon, rng)
	case SelectUCB:
		sel = learning.NewUCB1(0)
	default:
		return nil, fmt.Errorf("core: unknown selector %q", opts.Selector)
	}
	ctrlOpts := []control.ControllerOption{
		control.WithSpeedupBounds(frontier.MinSpeedup(), frontier.MaxSpeedup()),
		control.WithInitialSpeedup(frontier.MinSpeedup()),
	}
	if opts.FixedPoleSet {
		ctrlOpts = append(ctrlOpts, control.WithFixedPole(opts.FixedPole))
	}
	r := &Runtime{
		workload: workload,
		budget:   budget,
		frontier: frontier,
		bandit:   bandit,
		selector: sel,
		ctrl:     control.NewSpeedupController(ctrlOpts...),
		rng:      src,
		defSys:   defaultSys,
		sink:     telemetry.OrNop(opts.Telemetry),
		traced:   opts.Telemetry != nil,
	}
	// Before any feedback: most accurate application configuration, and the
	// prior-optimal system configuration (the priors stand in for the
	// models the bandit has not yet learned).
	r.nextApp, _ = r.frontier.ForSpeedup(0)
	r.nextSys = bandit.BestArm()
	return r, nil
}

// Decide implements sim.Governor.
func (r *Runtime) Decide(int) (appCfg, sysCfg int) {
	return r.nextApp.Config, r.nextSys
}

// Observe implements sim.Governor: one pass of Algorithm 1, preceded by
// the sensing watchdog. Corrupt (NaN/Inf/negative/zero-duration) and
// estimated observations never reach the learner or the controller —
// one poisoned sample would corrupt the EWMA/Kalman state permanently —
// but they do advance the watchdog, which forces the most conservative
// known-safe configuration when feedback stays broken.
func (r *Runtime) Observe(fb sim.Feedback) {
	r.iters++
	r.lastMiss = fb.SysConfig != r.nextSys || fb.AppConfig != r.nextApp.Config
	if !r.traced {
		r.observe(&fb)
		return
	}
	// The trace is recorded after observe so it captures the *next*
	// decision alongside the feedback that produced it, whichever way
	// observe returned (corrupt, estimated, degraded, budget-spent). The
	// step, pull and trip counts are read before it, so the record can
	// tell what this Observe did.
	steps, pulls, trips := r.ctrl.Steps(), r.bandit.TotalPulls(), r.degradeEvents
	r.observe(&fb)
	r.record(&fb, steps, pulls, trips)
}

// observe is Observe's body: everything but the trace.
func (r *Runtime) observe(fb *sim.Feedback) {
	if !fb.Sane() {
		r.noteRejected()
		return // corrupt measurement; hold (or degrade) every decision
	}
	if fb.Estimated {
		// The sensing layer substituted a model-based estimate: keep the
		// budget ledger honest but do not learn from it (the estimate
		// would only reinforce itself).
		r.noteRejected()
		if fb.Energy >= r.budget {
			// Even the estimated ledger says the budget is gone: clamp
			// now rather than waiting out the streak (Sec. 3.4.3).
			r.infeasible = true
			r.degrade()
		}
		return
	}
	r.badStreak = 0
	// Readback mismatch: the iteration ran a configuration other than the
	// one we commanded (a lagging or dropped actuation). The measurement
	// itself is good — readback attributes it to the configuration that
	// ran — but it says nothing about the command we just issued, so the
	// control step below must not integrate it (a one-step actuation lag
	// would otherwise drive the PI loop into a limit cycle).
	actMiss := r.lastMiss
	// Measure performance r(t) and normalise out the application speedup to
	// recover the system's rate in default-app terms (the SEO must not
	// attribute application-level speedup to the system configuration —
	// that mis-attribution is what destabilises the uncoordinated approach
	// of Sec. 2.3).
	rawRate := 1 / fb.Duration
	// Normalise by the configuration the feedback says actually ran: with
	// actuation readback that can differ from the one we requested, and
	// dividing by the requested speedup would smear the actuator's failure
	// into the system-rate estimate.
	sNominal := r.nextApp.Speedup
	if s, ok := r.frontier.SpeedupOf(fb.AppConfig); ok {
		sNominal = s
	}
	if sNominal <= 0 {
		sNominal = 1
	}
	sysRate := rawRate / sNominal

	// Adapt the controller pole to the learner's current model error
	// (Eqns 10-11) before folding in the new measurement.
	preEstimate := r.bandit.Rate(fb.SysConfig)
	r.ctrl.AdaptPole(sysRate, preEstimate)

	// Update the estimates (Eqn 1) and the exploration rate (Eqn 2).
	preEff := r.bandit.Efficiency(fb.SysConfig)
	effErr, err := r.bandit.Observe(fb.SysConfig, sysRate, fb.Power)
	if err == nil {
		norm := preEff
		if norm <= 0 {
			norm = 1
		}
		measuredEff := 0.0
		if fb.Power > 0 {
			measuredEff = sysRate / fb.Power
		}
		r.selector.Update(effErr/norm, measuredEff)
	}
	if v, ok := r.selector.(*learning.VDBE); ok {
		r.lastEps = v.Epsilon()
	}

	if r.degraded {
		// Sticky recovery: a single healthy sample between outages must
		// not release the pin — intermittent corruption would otherwise
		// let the explorer wander into inefficient configurations between
		// degrade episodes. The estimates above keep learning from live
		// data the whole time; the pin tracks the improving best arm.
		r.healStreak++
		if r.healStreak < degradeAfter {
			r.nextSys = r.conservativeArm()
			r.nextApp, _ = r.frontier.ForSpeedup(math.Inf(1))
			return
		}
		r.degraded = false
		r.healStreak = 0
		// The trajectory window was frozen during the hold; restart it so
		// a stale streak cannot re-trip the watchdog on the first sample.
		r.infStreak = 0
	}

	// Select the next system configuration (explore vs exploit, Eqn 3).
	r.nextSys, r.explored = r.selector.Select(r.bandit)

	// Remaining energy and work determine the required energy per
	// iteration; Eqn 4 turns that into a speedup demand. Feasibility is
	// judged against the best configuration's estimates; the control target
	// uses the estimates of the configuration the system will actually run
	// next (Algorithm 1: "Select random/energy-optimal system configuration
	// ... Use those values to compute speedup target"), so the application
	// compensates proactively while the SEO explores slow configurations.
	best := r.bandit.BestArm()
	rBest := r.bandit.Rate(best)
	pBest := r.bandit.Power(best)
	rSel := r.bandit.Rate(r.nextSys)
	pSel := r.bandit.Power(r.nextSys)
	wRem := r.workload - float64(fb.IterationsDone)
	if wRem <= 0 {
		r.done = true
		return // workload complete: hold the final configuration
	}
	eRem := r.budget - fb.Energy
	if eRem <= 0 {
		// Budget already spent: the only sane action is the minimum-energy
		// configuration (Sec. 3.4.3).
		r.infeasible = true
		r.nextSys = best
		r.nextApp, _ = r.frontier.ForSpeedup(math.Inf(1))
		r.ctrl.Reset(r.nextApp.Speedup)
		return
	}
	eReq := eRem / wRem // joules per iteration allowed from here on
	if r.explored && rSel > 0 && pSel/(rSel*eReq) > r.frontier.MaxSpeedup() {
		// Affordability gate: probing this arm would demand more speedup
		// than the application frontier can deliver, so its energy cost
		// could never be compensated (Eqn 4 would saturate). Exploit the
		// best arm instead; exploration resumes once slack returns. This
		// is what keeps persistent sensor noise — which holds the model
		// error, and hence the exploration rate, high — from spending the
		// budget on probes a tight goal cannot absorb.
		r.nextSys = best
		r.explored = false
		rSel, pSel = rBest, pBest
	}
	sReq := pBest / (rBest * eReq)
	// Saturation is judged twice: against the optimistic best arm for the
	// infeasibility verdict below (the paper's Sec. 3.4.3 test), and
	// against measured evidence for selection. Greedy selection over
	// optimistic priors keeps hopping to the next untested arm — cheap
	// while the application can absorb each mediocre probe, reckless once
	// it cannot. When even the most efficient arm actually measured would
	// demand more speedup than the frontier can deliver, the run is out of
	// compensating headroom: act only on evidence until the ledger
	// recovers.
	ca := r.conservativeArm()
	sEvi := sReq
	if rC := r.bandit.Rate(ca); rC > 0 {
		sEvi = r.bandit.Power(ca) / (rC * eReq)
	}
	// Optimism is paid for out of surplus or out of necessity, never
	// out of mere deficit: an arm with no measurements may be tried
	// while the ledger is at or ahead of the linear schedule, and also
	// when even the best measured arm cannot meet the target at maximum
	// application speedup (sEvi > max) — there, learning is the only way
	// back to feasibility and withholding it locks the run onto a known
	// overspender. Only when the run is behind plan AND a measured arm
	// suffices does the gate exploit that arm until the ledger catches
	// up.
	deficit := fb.Energy > r.budget*float64(fb.IterationsDone)/r.workload
	if deficit && sEvi <= r.frontier.MaxSpeedup() &&
		r.bandit.Pulls(r.nextSys) == 0 && ca != r.nextSys {
		r.nextSys = ca
		r.explored = false
		rSel, pSel = r.bandit.Rate(ca), r.bandit.Power(ca)
	}
	if sReq > r.frontier.MaxSpeedup()*(1+infeasibleSlack) {
		// The goal is not achievable even at maximum approximation on the
		// most efficient system configuration: report infeasibility and
		// deliver the smallest possible energy (Sec. 3.4.3).
		r.infeasible = true
	} else if sReq <= r.frontier.MaxSpeedup() {
		r.infeasible = false
	}
	if r.infeasible {
		r.infStreak++
	} else {
		r.infStreak = 0
	}
	if r.infStreak >= 3*degradeAfter {
		// The projected trajectory has demanded more than maximum
		// approximation for a sustained stretch: stop exploring and hold
		// the known-safe minimum-energy configuration until the ledger
		// says the goal is reachable again. The estimates above keep
		// updating, so recovery is detected from live data.
		r.degrade()
		return
	}
	r.lastF = eReq

	// Control step (Eqn 5): drive the measured iteration rate to the
	// target pSel/eReq — the rate at which the next configuration's power
	// draw meets the per-iteration energy allowance.
	target := pSel / eReq
	r.lastTarget = target
	if !actMiss {
		r.lastSpeedup = r.ctrl.Step(target, rawRate, rSel)
	}

	// Eqn 6: highest-accuracy application configuration delivering the
	// commanded speedup (binary search over the frontier).
	r.nextApp, _ = r.frontier.ForSpeedup(r.lastSpeedup)
}

// record assembles the flight-recorder Decision for one completed
// Observe in r.dec and lends it to the sink. It runs after observe has
// chosen the next configurations, so NextApp/NextSys are the decision
// this feedback produced; steps, pulls and trips are the controller,
// bandit and watchdog counts before it.
func (r *Runtime) record(fb *sim.Feedback, steps, pulls, trips int) {
	// Field by field: a composite literal assigned through a pointer is
	// built in a temporary and copied, the copy this record avoids. The
	// fields record does not write (Seq, Session, the calibration ones)
	// stay zero: sinks copy *d and never write through d.
	d := &r.dec
	d.Iter, d.AppConfig, d.SysConfig = fb.Iter, fb.AppConfig, fb.SysConfig
	d.NextApp, d.NextSys = r.nextApp.Config, r.nextSys

	d.SEURate, d.SEUPower = r.bandit.Rate(r.nextSys), r.bandit.Power(r.nextSys)
	d.SEUEfficiency, d.EstimatorGain = r.bandit.Efficiency(r.nextSys), r.bandit.Gain(r.nextSys)
	d.BestArm, d.Explored, d.Epsilon = r.bandit.BestArm(), r.explored, r.lastEps

	d.SpeedupCmd, d.TargetRate = r.ctrl.Speedup(), r.lastTarget
	d.PIError, d.Pole = r.ctrl.LastError(), r.ctrl.Pole()

	d.EnergyUsedJ, d.BudgetRemainingJ, d.AllowedJPerIter = fb.Energy, r.budget-fb.Energy, r.lastF

	d.Sane, d.GuardAccepted, d.Estimated = fb.Sane(), !fb.Estimated, fb.Estimated
	d.ActuationMiss, d.Degraded, d.Infeasible = r.lastMiss, r.degraded, r.infeasible

	d.Stepped = r.ctrl.Steps() != steps
	d.Updated = r.bandit.TotalPulls() != pulls
	d.Tripped = r.degradeEvents != trips
	d.UpdatedGain = 0
	if d.Updated {
		d.UpdatedGain = r.bandit.Gain(fb.SysConfig)
	}
	r.sink.Record(d)
}

// noteRejected advances the watchdog for an observation that carried no
// usable measurement.
func (r *Runtime) noteRejected() {
	r.badStreak++
	r.healStreak = 0
	if r.badStreak >= degradeAfter {
		r.degrade()
	}
}

// degrade pins the most conservative known-safe configuration: the
// maximum-speedup (minimum-energy) application point on the learner's
// best system arm, with the controller reset there so recovery resumes
// from the safe side.
func (r *Runtime) degrade() {
	if !r.degraded {
		r.degraded = true
		r.degradeEvents++
	}
	r.healStreak = 0
	r.nextSys = r.conservativeArm()
	r.nextApp, _ = r.frontier.ForSpeedup(math.Inf(1))
	r.ctrl.Reset(r.nextApp.Speedup)
}

// conservativeArm is the system configuration the watchdog pins: the most
// efficient arm among those actually observed. An arm the run has never
// pulled carries only its prior, and a prior's optimism is not evidence —
// pinning an unmeasured arm on the strength of its prior is how a
// degraded run keeps overspending. Before any pull at all, the prior
// ranking is all there is.
func (r *Runtime) conservativeArm() int {
	if arm := r.bandit.BestMeasuredArm(); arm >= 0 {
		return arm
	}
	return r.bandit.BestArm()
}

// SetTelemetry swaps the runtime's telemetry sink after construction.
// Passing nil silences instrumentation. The governor daemon uses this to
// replay snapshot logs without re-counting metrics, then attach the live
// sink.
func (r *Runtime) SetTelemetry(s telemetry.Sink) {
	r.sink = telemetry.OrNop(s)
	r.traced = s != nil
}

// NumArms returns the number of system configurations the SEO learns over.
func (r *Runtime) NumArms() int { return r.bandit.NumArms() }

// ArmEstimate exposes the learned model of one system configuration: the
// estimated iteration rate and power draw, and how many observations the
// arm has absorbed. This is the introspection surface the daemon's
// per-session endpoint serves and the snapshot/restore tests pin
// bit-identically.
func (r *Runtime) ArmEstimate(arm int) (rate, power float64, pulls int) {
	return r.bandit.Rate(arm), r.bandit.Power(arm), r.bandit.Pulls(arm)
}

// PulledArms lists, in ascending order, the system configurations with
// at least one observation: the arms whose ArmEstimate is learned rather
// than the prior. It costs the arms pulled, not the arm count.
func (r *Runtime) PulledArms() []int { return r.bandit.PulledArms() }

// Degraded reports whether the watchdog currently pins the conservative
// configuration (broken sensing or a sustained projected overrun).
func (r *Runtime) Degraded() bool { return r.degraded }

// DegradeEvents returns how many times the watchdog tripped.
func (r *Runtime) DegradeEvents() int { return r.degradeEvents }

// Infeasible reports whether the runtime has concluded the energy goal
// cannot be met (Sec. 3.4.3).
func (r *Runtime) Infeasible() bool { return r.infeasible }

// Epsilon returns the VDBE exploration rate (0 for other selectors).
func (r *Runtime) Epsilon() float64 { return r.lastEps }

// Pole returns the controller's current pole.
func (r *Runtime) Pole() float64 { return r.ctrl.Pole() }

// Speedup returns the current application speedup command s(t).
func (r *Runtime) Speedup() float64 { return r.ctrl.Speedup() }

// TargetRate returns the controller's current performance target.
func (r *Runtime) TargetRate() float64 { return r.lastTarget }

// Done reports whether the configured workload has completed.
func (r *Runtime) Done() bool { return r.done }
