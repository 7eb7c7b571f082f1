// Package hwapprox implements the approximate-hardware extension the paper
// sketches in Sec. 3.7: hardware that "maintains the same timing, but
// reduces power consumption" in exchange for occasionally returning wrong
// results (voltage overscaling, inexact arithmetic — Truffle, Palem et al.,
// cited there).
//
// The substrate is a real computation under fault injection, not a lookup
// table: each Unit configuration scales supply power; lower power raises
// the probability that an arithmetic operation suffers a bit flip, and the
// unit's accuracy is measured by running dot-product workloads through the
// faulty arithmetic and comparing against the exact result.
package hwapprox

import (
	"fmt"
	"math"
	"math/rand"
)

// Level is one hardware approximation setting.
type Level struct {
	PowerScale float64 // multiplier on dynamic power, in (0, 1]
	BitErrProb float64 // per-operation probability of a low-order bit flip
}

// Unit is a simulated approximate functional unit with a ladder of
// voltage-overscaled levels. Level 0 is exact at full power.
type Unit struct {
	levels []Level
	vecLen int
	pool   [][]float64 // operand pool, deterministic
	refs   []float64   // exact dot products per pool pair
}

// NewUnit builds a unit with n levels scaling power down to minPowerScale.
// The bit-error probability grows quadratically as the voltage margin
// shrinks — the standard overscaling model (Palem et al.).
func NewUnit(n int, minPowerScale float64, seed int64) (*Unit, error) {
	if n < 2 {
		return nil, fmt.Errorf("hwapprox: need at least two levels, got %d", n)
	}
	if minPowerScale <= 0 || minPowerScale >= 1 {
		return nil, fmt.Errorf("hwapprox: min power scale %v outside (0, 1)", minPowerScale)
	}
	u := &Unit{vecLen: 64}
	for i := 0; i < n; i++ {
		frac := float64(i) / float64(n-1)
		scale := 1 - (1-minPowerScale)*frac
		margin := (scale - minPowerScale) / (1 - minPowerScale) // 1 at full power, 0 at floor
		u.levels = append(u.levels, Level{
			PowerScale: scale,
			BitErrProb: 0.02 * (1 - margin) * (1 - margin),
		})
	}
	u.levels[0].BitErrProb = 0
	rng := rand.New(rand.NewSource(seed))
	const pairs = 32
	for p := 0; p < pairs; p++ {
		a := make([]float64, u.vecLen)
		b := make([]float64, u.vecLen)
		for i := range a {
			a[i] = rng.Float64()*16 - 8
			b[i] = rng.Float64()*16 - 8
		}
		u.pool = append(u.pool, a, b)
		var ref float64
		for i := range a {
			ref += a[i] * b[i]
		}
		u.refs = append(u.refs, ref)
	}
	return u, nil
}

// NumLevels returns the number of approximation levels.
func (u *Unit) NumLevels() int { return len(u.levels) }

// PowerScale returns the dynamic-power multiplier of a level.
func (u *Unit) PowerScale(level int) float64 {
	if level < 0 || level >= len(u.levels) {
		return 1
	}
	return u.levels[level].PowerScale
}

// flip injects a fault into a float: a bit flip in the low-order mantissa
// region, modelled as a relative perturbation of up to ~6%.
func flip(x float64, rng *rand.Rand) float64 {
	if x == 0 {
		return 0.01 * (rng.Float64() - 0.5)
	}
	mag := math.Exp2(float64(rng.Intn(6)) - 9) // 2^-9 .. 2^-4
	if rng.Intn(2) == 0 {
		mag = -mag
	}
	return x * (1 + mag)
}

// Compute runs one dot-product workload at the given level for input index
// `iter` and returns the abstract work, the result's accuracy versus the
// exact unit, and the level's power scale. Deterministic per (level, iter).
func (u *Unit) Compute(level, iter int) (work, accuracy, powerScale float64) {
	if level < 0 || level >= len(u.levels) {
		level = 0
	}
	if iter < 0 {
		iter = -iter
	}
	pair := iter % (len(u.pool) / 2)
	a, b := u.pool[2*pair], u.pool[2*pair+1]
	ref := u.refs[pair]
	lv := u.levels[level]
	rng := rand.New(rand.NewSource(int64(level)*1_000_003 + int64(iter) + 7))
	var acc float64
	for i := range a {
		prod := a[i] * b[i]
		if lv.BitErrProb > 0 && rng.Float64() < lv.BitErrProb {
			prod = flip(prod, rng)
		}
		acc += prod
		if lv.BitErrProb > 0 && rng.Float64() < lv.BitErrProb {
			acc = flip(acc, rng)
		}
	}
	denom := math.Abs(ref)
	if denom < 1 {
		denom = 1
	}
	relErr := math.Abs(acc-ref) / denom
	quality := 1 / (1 + 12*relErr)
	return float64(2 * u.vecLen), quality, lv.PowerScale
}

// Frontier returns the unit's (power saving, accuracy) trade-off measured
// over calibration inputs: for each level, the mean accuracy and the power
// scale. Accuracy is non-increasing as power drops, by construction of the
// error model; the measurement is genuinely noisy.
type FrontierPoint struct {
	Level      int
	PowerScale float64
	Accuracy   float64
}

// Approx adapts a Unit to the application interface the simulator drives:
// every iteration runs one faulty-arithmetic workload; the configuration id
// is the approximation level. It also implements the simulator's
// PowerScaler hook, which is what makes the level change power instead of
// timing.
type Approx struct {
	*Unit
}

// Name implements the App interface.
func (Approx) Name() string { return "hwapprox" }

// Metric implements the App interface.
func (Approx) Metric() string { return "output quality" }

// NumConfigs implements the App interface.
func (a Approx) NumConfigs() int { return a.NumLevels() }

// DefaultConfig implements the App interface: level 0, exact at full power.
func (Approx) DefaultConfig() int { return 0 }

// Step implements the App interface.
func (a Approx) Step(cfg, iter int) (work, accuracy float64) {
	w, q, _ := a.Compute(cfg, iter)
	return w, q
}

// MeasureFrontier profiles each level over `iters` workloads.
func (u *Unit) MeasureFrontier(iters int) []FrontierPoint {
	if iters <= 0 {
		iters = 16
	}
	out := make([]FrontierPoint, len(u.levels))
	for l := range u.levels {
		var sum float64
		for it := 0; it < iters; it++ {
			_, q, _ := u.Compute(l, it)
			sum += q
		}
		out[l] = FrontierPoint{Level: l, PowerScale: u.levels[l].PowerScale, Accuracy: sum / float64(iters)}
	}
	return out
}
