package learning

import (
	"math"
	"math/rand"
)

// VDBE implements Value-Difference Based Exploration (Tokic 2010), the
// exploration policy JouleGuard uses for its system-energy optimiser
// (Sec. 3.2, Eqn 2). The exploration probability epsilon grows when the
// model's efficiency predictions are wrong and decays toward zero as they
// become accurate:
//
//	x(t)   = exp(-|alpha * (eff_measured - eff_estimated)| / sigma)
//	rho(t) = (1 - x(t)) / (1 + x(t))
//	eps(t) = 1/|Sys| * rho(t) + (1 - 1/|Sys|) * eps(t-1)
//
// eps(0) = 1, so a fresh system always explores; once the models are
// correct eps decays geometrically and the learner stops disturbing the
// system — the stability property Sec. 3.2 highlights.
type VDBE struct {
	eps    float64
	alpha  float64
	sigma  float64
	invS   float64 // 1/|Sys|
	rng    *rand.Rand
	lastX  float64
	lastRV float64 // last random draw, for observability in tests
}

// VDBEOption configures the VDBE policy.
type VDBEOption func(*VDBE)

// WithUpdateWeight overrides the per-update blending weight (Eqn 2 uses
// 1/|Sys|). On spaces as large as Server's 1024 configurations a literal
// 1/|Sys| keeps eps near 1 for thousands of iterations; JouleGuard's
// runtime caps the time constant so exploration can settle within a run
// (see DESIGN.md).
func WithUpdateWeight(w float64) VDBEOption {
	return func(v *VDBE) {
		if w > 0 && w <= 1 {
			v.invS = w
		}
	}
}

// NewVDBE builds the policy for a configuration space of n arms using the
// EWMA gain alpha (the same alpha as the estimators, per Eqn 2).
func NewVDBE(n int, alpha float64, rng *rand.Rand, opts ...VDBEOption) *VDBE {
	v := &VDBE{eps: 1, alpha: alpha, sigma: 5, invS: 1 / float64(max(n, 1)), rng: rng}
	for _, o := range opts {
		o(v)
	}
	return v
}

// Select draws rand in [0,1): below eps it explores a uniformly random
// configuration, otherwise it exploits the best estimated arm (Eqn 3).
func (v *VDBE) Select(b *Bandit) (int, bool) {
	v.lastRV = v.rng.Float64()
	if v.lastRV < v.eps {
		return b.RandomArm(), true
	}
	return b.BestArm(), false
}

// Update folds the efficiency prediction error of the most recent
// observation into eps per Eqn 2. effError is |measured - estimated|
// efficiency (pre-update estimate); measuredEff is unused by VDBE.
func (v *VDBE) Update(effError, measuredEff float64) {
	if math.IsNaN(effError) || math.IsInf(effError, 0) {
		return
	}
	x := math.Exp(-math.Abs(v.alpha*effError) / v.sigma)
	rho := (1 - x) / (1 + x)
	v.lastX = x
	v.eps = v.invS*rho + (1-v.invS)*v.eps
}

// Epsilon returns the current exploration probability.
func (v *VDBE) Epsilon() float64 { return v.eps }

// FixedEpsilon is the classical epsilon-greedy policy with a constant
// exploration rate; used by the exploration ablation.
type FixedEpsilon struct {
	Eps float64
	rng *rand.Rand
}

// NewFixedEpsilon builds an epsilon-greedy policy.
func NewFixedEpsilon(eps float64, rng *rand.Rand) *FixedEpsilon {
	return &FixedEpsilon{Eps: clamp01(eps), rng: rng}
}

// Select explores with fixed probability Eps.
func (f *FixedEpsilon) Select(b *Bandit) (int, bool) {
	if f.rng.Float64() < f.Eps {
		return b.RandomArm(), true
	}
	return b.BestArm(), false
}

// Update is a no-op for a fixed policy.
func (f *FixedEpsilon) Update(effError, measuredEff float64) {}

// UCB1 is the upper-confidence-bound policy of Auer et al.; included to
// ablate VDBE against a classical bandit algorithm. The confidence bonus
// is scaled by the running mean reward so the policy is unit-free.
type UCB1 struct {
	C       float64 // exploration constant, typically sqrt(2)
	meanEff float64
	n       int
}

// NewUCB1 builds a UCB1 policy with exploration constant c.
func NewUCB1(c float64) *UCB1 {
	if c <= 0 {
		c = math.Sqrt2
	}
	return &UCB1{C: c}
}

// Select picks the arm maximising estimated efficiency plus a confidence
// bonus; unpulled arms are tried first (in index order).
func (u *UCB1) Select(b *Bandit) (int, bool) {
	total := b.TotalPulls()
	for i := 0; i < b.NumArms(); i++ {
		if b.Pulls(i) == 0 {
			return i, true
		}
	}
	scale := u.meanEff
	if scale <= 0 {
		scale = 1
	}
	best, bestV := 0, math.Inf(-1)
	lt := math.Log(float64(max(total, 2)))
	for i := 0; i < b.NumArms(); i++ {
		v := b.Efficiency(i) + scale*u.C*math.Sqrt(lt/float64(b.Pulls(i)))
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best, best != b.BestArm()
}

// Update tracks the running mean efficiency used to scale the bonus.
func (u *UCB1) Update(effError, measuredEff float64) {
	if math.IsNaN(measuredEff) || math.IsInf(measuredEff, 0) {
		return
	}
	u.n++
	u.meanEff += (measuredEff - u.meanEff) / float64(u.n)
}

func clamp01(x float64) float64 {
	switch {
	case math.IsNaN(x), x < 0:
		return 0
	case x > 1:
		return 1
	}
	return x
}
