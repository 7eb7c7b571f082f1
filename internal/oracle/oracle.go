// Package oracle computes the paper's optimality baseline (Sec. 5.2): the
// best accuracy achievable for an application, platform and energy target
// by an omniscient scheduler with zero overhead — "the best accuracy that
// could be accomplished by dynamically managing application and system
// with perfect knowledge of the future". It exhaustively profiles every
// (application, system) configuration pair against the true (noiseless)
// platform model, and solves the phase-allocation problem with a Lagrangian
// sweep when workloads have phases.
package oracle

import (
	"fmt"
	"math"

	"jouleguard/internal/knob"
	"jouleguard/internal/platform"
	"jouleguard/internal/workload"
)

// Point is one (app config, sys config) pair with its modelled cost.
type Point struct {
	AppPoint      knob.Point
	SysConfig     int
	EnergyPerIter float64 // true joules per nominal iteration
}

// Oracle answers optimal-accuracy queries for one (app frontier, platform,
// profile, work-per-iteration) combination.
type Oracle struct {
	points     []Point // all frontier-app x sys pairs
	defaultEPI float64 // default/default energy per iteration
}

// New exhaustively evaluates every frontier configuration against every
// system configuration. workPerIter is the application's default-config
// work per iteration in kernel units (the frontier's speedups scale it).
func New(frontier *knob.Frontier, plat *platform.Platform, prof platform.AppProfile, workPerIter float64) (*Oracle, error) {
	if frontier == nil || frontier.Len() == 0 {
		return nil, fmt.Errorf("oracle: empty frontier")
	}
	if workPerIter <= 0 {
		return nil, fmt.Errorf("oracle: work per iteration %v must be positive", workPerIter)
	}
	o := &Oracle{}
	for _, ap := range frontier.Points() {
		for s := 0; s < plat.NumConfigs(); s++ {
			rate := plat.Rate(s, prof) // units/sec
			power := plat.Power(s, prof)
			iterTime := workPerIter / ap.Speedup / rate
			o.points = append(o.points, Point{
				AppPoint:      ap,
				SysConfig:     s,
				EnergyPerIter: power * iterTime,
			})
		}
	}
	defIdx := plat.DefaultConfig()
	defRate := plat.Rate(defIdx, prof)
	o.defaultEPI = plat.Power(defIdx, prof) * workPerIter / defRate
	return o, nil
}

// BestAccuracy returns the highest accuracy achievable at or under the
// given energy-per-iteration budget, with the chosen point. ok is false if
// no configuration fits the budget (the goal is infeasible even for the
// oracle).
func (o *Oracle) BestAccuracy(energyPerIter float64) (Point, bool) {
	var best Point
	found := false
	for _, p := range o.points {
		if p.EnergyPerIter > energyPerIter {
			continue
		}
		if !found || p.AppPoint.Accuracy > best.AppPoint.Accuracy ||
			(p.AppPoint.Accuracy == best.AppPoint.Accuracy && p.EnergyPerIter < best.EnergyPerIter) {
			best = p
			found = true
		}
	}
	return best, found
}

// BestAccuracyForFactor answers for an energy reduction factor f: budget =
// defaultEnergyPerIter / f (Sec. 5.2's methodology).
func (o *Oracle) BestAccuracyForFactor(f float64) (Point, bool) {
	if f <= 0 {
		return Point{}, false
	}
	return o.BestAccuracy(o.defaultEPI / f)
}

// MinEnergyPerIter returns the lowest achievable energy per iteration and
// its point — the feasibility frontier (Sec. 3.4.3).
func (o *Oracle) MinEnergyPerIter() Point {
	best := o.points[0]
	for _, p := range o.points {
		if p.EnergyPerIter < best.EnergyPerIter {
			best = p
		}
	}
	return best
}

// MaxFeasibleFactor returns the largest energy-reduction factor any
// configuration can achieve (used to pick per-app sweep ranges, as the
// paper does for Figs. 5-7).
func (o *Oracle) MaxFeasibleFactor() float64 {
	return o.defaultEPI / o.MinEnergyPerIter().EnergyPerIter
}

// PhasePlan is the oracle's per-phase choice for a phased workload.
type PhasePlan struct {
	Phase  workload.Phase
	Choice Point
}

// BestAccuracyPhased solves the phased allocation: choose one configuration
// per phase maximising iteration-weighted accuracy subject to the total
// energy budget (phase costs scale per-iteration work and therefore
// energy). It sweeps a Lagrange multiplier on energy — each phase then
// independently maximises accuracy - lambda*energy — and returns the best
// feasible plan found. totalBudget is in joules for the whole trace.
func (o *Oracle) BestAccuracyPhased(tr *workload.Trace, totalBudget float64) ([]PhasePlan, float64, bool) {
	phases := tr.Phases()
	// Candidate multipliers: 0 (accuracy only) plus a geometric sweep wide
	// enough to cover any trade-off slope in the point set.
	lambdas := []float64{0}
	for l := 1e-6; l < 1e9; l *= 1.3 {
		lambdas = append(lambdas, l)
	}
	var bestPlan []PhasePlan
	bestAcc := -1.0
	// Seed with the best constant plan (one configuration for the whole
	// trace) so a coarse multiplier grid can never do worse than uniform.
	if tc := tr.TotalCost(); tc > 0 {
		// The tiny relative slack absorbs the division round-off so an
		// exactly-affordable constant plan is not excluded.
		if pt, ok := o.BestAccuracy(totalBudget / tc * (1 + 1e-9)); ok {
			bestAcc = pt.AppPoint.Accuracy
			bestPlan = make([]PhasePlan, len(phases))
			for pi, ph := range phases {
				bestPlan[pi] = PhasePlan{Phase: ph, Choice: pt}
			}
		}
	}
	for _, lambda := range lambdas {
		plan := make([]PhasePlan, len(phases))
		var energy, accSum, iters float64
		for pi, ph := range phases {
			var choice Point
			bestScore := math.Inf(-1)
			for _, p := range o.points {
				e := p.EnergyPerIter * ph.Cost
				score := p.AppPoint.Accuracy - lambda*e
				if score > bestScore {
					bestScore = score
					choice = p
				}
			}
			plan[pi] = PhasePlan{Phase: ph, Choice: choice}
			energy += choice.EnergyPerIter * ph.Cost * float64(ph.Iterations)
			accSum += choice.AppPoint.Accuracy * float64(ph.Iterations)
			iters += float64(ph.Iterations)
		}
		if energy <= totalBudget {
			if acc := accSum / iters; acc > bestAcc {
				bestAcc = acc
				bestPlan = plan
			}
		}
	}
	if bestPlan == nil {
		return nil, 0, false
	}
	return bestPlan, bestAcc, true
}
