package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"jouleguard/internal/control"
	"jouleguard/internal/hwapprox"
	"jouleguard/internal/learning"
	"jouleguard/internal/sim"
	"jouleguard/internal/telemetry"
)

// HardwareRuntime is the Sec. 3.7 modification of JouleGuard for
// approximate hardware: the accuracy knob no longer changes timing, it
// scales power. The SEO is unchanged — it still finds the most
// energy-efficient system configuration with no accuracy loss. The control
// loop then manages *power* rather than speedup: it drives the measured
// power toward the per-iteration energy allowance times the iteration
// rate, actuating the hardware approximation level.
type HardwareRuntime struct {
	workload float64
	budget   float64

	points   []hwapprox.FrontierPoint // sorted by descending PowerScale
	bandit   *learning.Bandit
	selector learning.Selector
	ctrl     *control.SpeedupController // integrates the power-scale signal

	nextLevel  int
	nextSys    int
	explored   bool
	infeasible bool
	done       bool
	lastScale  float64
	lastTarget float64
	lastMiss   bool

	sink   telemetry.Sink
	traced bool
	dec    telemetry.Decision // the last traced Observe's record, lent to sink
}

// NewHardware builds the approximate-hardware runtime. frontier is the
// unit's measured (power scale, accuracy) ladder; priors are the system
// priors in iteration-rate units, as for New.
func NewHardware(workload, budget float64, frontier []hwapprox.FrontierPoint, nSys int, priors learning.Priors, opts Options) (*HardwareRuntime, error) {
	if workload <= 0 || budget <= 0 {
		return nil, fmt.Errorf("core: workload %v / budget %v must be positive", workload, budget)
	}
	if len(frontier) < 2 {
		return nil, fmt.Errorf("core: hardware frontier needs at least two levels")
	}
	alpha := opts.Alpha
	if alpha == 0 {
		alpha = control.DefaultAlpha
	}
	rng := rand.New(rand.NewSource(opts.Seed + 5))
	bandit, err := learning.NewBandit(nSys, alpha, priors, rng)
	if err != nil {
		return nil, err
	}
	pts := append([]hwapprox.FrontierPoint(nil), frontier...)
	sort.Slice(pts, func(i, j int) bool { return pts[i].PowerScale > pts[j].PowerScale })
	h := &HardwareRuntime{
		workload: workload,
		budget:   budget,
		points:   pts,
		bandit:   bandit,
		selector: learning.NewVDBE(nSys, alpha, rng, learning.WithUpdateWeight(math.Max(1.0/float64(nSys), 1.0/40))),
		// The controller state is the commanded power scale in (0, 1]; its
		// "speedup" integrator is reused with bounds [minScale, 1].
		ctrl: control.NewSpeedupController(
			control.WithSpeedupBounds(pts[len(pts)-1].PowerScale, 1),
			control.WithInitialSpeedup(1),
		),
		lastScale: 1,
		sink:      telemetry.OrNop(opts.Telemetry),
		traced:    opts.Telemetry != nil,
	}
	h.nextSys = bandit.BestArm()
	return h, nil
}

// Decide implements sim.Governor: the "application" configuration is the
// hardware approximation level.
func (h *HardwareRuntime) Decide(int) (int, int) { return h.nextLevel, h.nextSys }

// scaleOf returns the nominal power scale of a level.
func (h *HardwareRuntime) scaleOf(level int) float64 {
	for _, p := range h.points {
		if p.Level == level {
			return p.PowerScale
		}
	}
	return 1
}

// Observe implements sim.Governor.
func (h *HardwareRuntime) Observe(fb sim.Feedback) {
	h.lastMiss = fb.SysConfig != h.nextSys || fb.AppConfig != h.nextLevel
	if !h.traced {
		h.observe(&fb)
		return
	}
	steps, pulls := h.ctrl.Steps(), h.bandit.TotalPulls()
	h.observe(&fb)
	h.record(&fb, steps, pulls)
}

// observe is Observe's body: everything but the trace.
func (h *HardwareRuntime) observe(fb *sim.Feedback) {
	if !fb.Sane() || fb.Estimated {
		return // corrupt or model-estimated sample: never learn from it
	}
	rate := 1 / fb.Duration
	// Normalise the measured power back to full-voltage terms before
	// feeding the SEO, so hardware approximation is not mis-attributed to
	// the system configuration (the same normalisation the speedup-mode
	// runtime applies to rates). The normalisation is deliberately
	// approximate — only dynamic power actually scales — and the adaptive
	// pole absorbs the resulting model error.
	scale := h.scaleOf(fb.AppConfig)
	normPower := fb.Power / scale
	prePower := h.bandit.Power(fb.SysConfig)
	h.ctrl.AdaptPole(normPower, prePower)
	preEff := h.bandit.Efficiency(fb.SysConfig)
	effErr, err := h.bandit.Observe(fb.SysConfig, rate, normPower)
	if err == nil {
		norm := preEff
		if norm <= 0 {
			norm = 1
		}
		var measEff float64
		if normPower > 0 {
			measEff = rate / normPower
		}
		h.selector.Update(effErr/norm, measEff)
	}
	h.nextSys, h.explored = h.selector.Select(h.bandit)

	wRem := h.workload - float64(fb.IterationsDone)
	if wRem <= 0 {
		h.done = true
		return
	}
	eRem := h.budget - fb.Energy
	if eRem <= 0 {
		h.infeasible = true
		h.nextSys = h.bandit.BestArm()
		h.nextLevel = h.points[len(h.points)-1].Level
		h.ctrl.Reset(h.points[len(h.points)-1].PowerScale)
		return
	}
	eReq := eRem / wRem
	// Allowed power at the selected configuration's expected rate.
	rSel := h.bandit.Rate(h.nextSys)
	pSel := h.bandit.Power(h.nextSys)
	allowed := eReq * rSel
	h.lastTarget = allowed
	neededScale := allowed / pSel
	minScale := h.points[len(h.points)-1].PowerScale
	if neededScale < minScale*(1-0.05) {
		h.infeasible = true
	} else if neededScale >= minScale {
		h.infeasible = false
	}
	// Integrate the power error into the scale command. The plant gain from
	// scale to power is ~pSel, so normalising by pSel keeps the loop gain
	// at (1 - pole), mirroring Eqn 5.
	h.lastScale = h.ctrl.Step(allowed, fb.Power, pSel)
	// Pick the most accurate level whose power scale meets the command
	// (the Eqn 6 analogue; levels are sorted by descending scale =
	// descending accuracy).
	i := sort.Search(len(h.points), func(i int) bool {
		return h.points[i].PowerScale <= h.lastScale*(1+1e-9)
	})
	if i == len(h.points) {
		i = len(h.points) - 1
	}
	h.nextLevel = h.points[i].Level
}

// record assembles the flight-recorder Decision for one hardware-mode
// Observe in h.dec and lends it to the sink. It runs after observe, so
// NextApp/NextSys reflect the decision produced, with the controller's
// step and the bandit's pull counts from before it. SpeedupCmd carries
// the commanded power scale and TargetRate the power target — the
// hardware loop's analogues of speedup and rate.
func (h *HardwareRuntime) record(fb *sim.Feedback, steps, pulls int) {
	// Field by field, as in Runtime.record; the fields the hardware loop
	// has no analogue for (Epsilon, AllowedJPerIter, Degraded, Tripped)
	// stay zero.
	d := &h.dec
	d.Iter, d.AppConfig, d.SysConfig = fb.Iter, fb.AppConfig, fb.SysConfig
	d.NextApp, d.NextSys = h.nextLevel, h.nextSys

	d.SEURate, d.SEUPower = h.bandit.Rate(h.nextSys), h.bandit.Power(h.nextSys)
	d.SEUEfficiency, d.EstimatorGain = h.bandit.Efficiency(h.nextSys), h.bandit.Gain(h.nextSys)
	d.BestArm, d.Explored = h.bandit.BestArm(), h.explored

	d.SpeedupCmd, d.TargetRate = h.lastScale, h.lastTarget
	d.PIError, d.Pole = h.ctrl.LastError(), h.ctrl.Pole()

	d.EnergyUsedJ, d.BudgetRemainingJ = fb.Energy, h.budget-fb.Energy

	d.Sane, d.GuardAccepted, d.Estimated = fb.Sane(), !fb.Estimated, fb.Estimated
	d.ActuationMiss, d.Infeasible = h.lastMiss, h.infeasible

	d.Stepped = h.ctrl.Steps() != steps
	d.Updated = h.bandit.TotalPulls() != pulls
	d.UpdatedGain = 0
	if d.Updated {
		d.UpdatedGain = h.bandit.Gain(fb.SysConfig)
	}
	h.sink.Record(d)
}

// Infeasible reports whether the goal exceeds the hardware's power range.
func (h *HardwareRuntime) Infeasible() bool { return h.infeasible }

// Scale returns the current commanded power scale.
func (h *HardwareRuntime) Scale() float64 { return h.lastScale }
