// Package guard is JouleGuard's hardened sensing layer: it sits between a
// raw power/energy instrument and the runtime's feedback loop and decides,
// sample by sample, whether a reading is trustworthy. Readings pass a
// non-finite/negative screen, a stuck-sensor detector, an absolute
// plausibility ceiling, and a median/MAD outlier gate over a sliding
// window of recently accepted samples. Rejected or missing samples are
// replaced by a model-based estimate (the platform power model when one
// is registered, otherwise the window's median), and the guard maintains
// its own cleaned cumulative-energy ledger so one corrupt sample can
// never poison the budget accounting downstream.
//
// Genuine level shifts — a configuration change moving true power by more
// than the gate — are handled two ways: callers that know they actuated
// call NoteActuation to rebase the window, and unannounced shifts are
// accepted once two consecutive out-of-gate samples agree with each
// other (a spike is lonely; a new operating point repeats).
package guard

import (
	"math"
	"sort"

	"jouleguard/internal/ckpt"
)

// Reason classifies a sample verdict.
type Reason uint8

// Verdict reasons.
const (
	OK          Reason = iota // accepted
	Missing                   // no sample arrived (dropout or reader error)
	NonFinite                 // NaN or Inf
	Negative                  // negative power (or energy counter going backwards)
	Stuck                     // sensor frozen at one value
	Implausible               // above the absolute power ceiling
	Outlier                   // outside the median/MAD gate
)

// String names the reason.
func (r Reason) String() string {
	switch r {
	case OK:
		return "ok"
	case Missing:
		return "missing"
	case NonFinite:
		return "non-finite"
	case Negative:
		return "negative"
	case Stuck:
		return "stuck"
	case Implausible:
		return "implausible"
	case Outlier:
		return "outlier"
	}
	return "unknown"
}

// Config tunes a Sensor. The zero value selects the defaults.
type Config struct {
	Window     int     // accepted-sample window for the median/MAD gate (default 16)
	MADGate    float64 // rejection threshold in MAD units (default 4)
	RelFloor   float64 // MAD floor as a fraction of the median, so a quiet window cannot shrink the gate to zero (default 0.05)
	ConfirmTol float64 // fractional agreement for two-sample level-shift confirmation (default 0.1)
	StuckRun   int     // consecutive identical readings before declaring the sensor stuck (default 8)
	MaxPower   float64 // absolute plausibility ceiling in watts (0 = no ceiling)
	ModelPower float64 // model-based fallback power estimate in watts (0 = none registered)
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 16
	}
	if c.MADGate <= 0 {
		c.MADGate = 4
	}
	if c.RelFloor <= 0 {
		c.RelFloor = 0.05
	}
	if c.ConfirmTol <= 0 {
		c.ConfirmTol = 0.1
	}
	if c.StuckRun <= 0 {
		c.StuckRun = 8
	}
	return c
}

// Verdict is the guard's ruling on one sample interval.
type Verdict struct {
	Power    float64 // power to act on: the reading if accepted, else the fallback estimate
	Energy   float64 // cleaned cumulative energy (J) including this interval
	Accepted bool
	Reason   Reason
}

// Sensor is the hardened sensing state. Not safe for concurrent use.
type Sensor struct {
	cfg    Config
	win    []float64 // recently accepted samples, oldest first
	energy float64   // cleaned cumulative joules

	model float64 // model-based fallback power (0 = none)

	lastRaw     float64 // raw-stream stuck detection
	haveRaw     bool
	stuckRun    int
	expectShift bool // model power moved since the raw value last changed

	pending     float64 // last out-of-gate sample awaiting confirmation
	havePending bool

	ivals []float64 // recent intervals on the current configuration

	tmp []float64 // scratch for medianMAD; windows are a handful of samples

	rejectStreak       int
	accepted, rejected int
}

// medianMAD is medianMADInto on the Sensor's own scratch: the guard runs once
// per governed iteration on the daemon's decision path, and a fresh
// scratch slice per call was the path's dominant allocator.
func (s *Sensor) medianMAD(xs []float64) (med, mad float64) {
	if cap(s.tmp) < len(xs) {
		s.tmp = make([]float64, len(xs))
	}
	return medianMADInto(s.tmp[:len(xs)], xs)
}

// New builds a Sensor; zero-value Config fields take the defaults.
func New(cfg Config) *Sensor {
	cfg = cfg.withDefaults()
	return &Sensor{cfg: cfg, model: cfg.ModelPower}
}

// SetModelPower registers the current model-based power estimate used as
// the fallback for rejected or missing samples.
func (s *Sensor) SetModelPower(w float64) {
	if w > 0 && !math.IsNaN(w) && !math.IsInf(w, 0) {
		if s.model > 0 && math.Abs(w-s.model) > s.cfg.ConfirmTol*s.model {
			s.expectShift = true
		}
		s.model = w
	}
}

// NoteActuation tells the guard a configuration change was just applied,
// so the next samples may legitimately sit far from the old window:
// the window is rebased rather than treating the new level as outliers.
func (s *Sensor) NoteActuation() {
	s.win = s.win[:0]
	s.havePending = false
}

// ivalWindow bounds the interval history used by Interval. Small, so a
// legitimate workload or model shift is tracked within a few iterations.
const ivalWindow = 9

// Interval returns the iteration duration the control and learning
// layers should act on. Timestamps from a jittery clock make the raw
// interval noisy, and because the layers above consume its RECIPROCAL
// (a rate), zero-mean noise on the interval becomes a systematic
// overestimate of the rate (E[1/D] > 1/E[D]) — the runtime then believes
// it is faster than reality and overspends. The median of recent
// intervals is robust to that: symmetric noise cancels in the median,
// and 1/median(D) = median(1/D).
//
// When the caller can supply a model-expected duration for the same
// interval, the filter runs on the ratio dur/expected, which is
// configuration-independent — the window stays warm across actuations
// instead of restarting every time the operating point moves. The raw
// interval must still be used for energy integration, where the noise
// is unbiased and sums out.
func (s *Sensor) Interval(dur, expected float64) float64 {
	if !(dur > 0) || math.IsInf(dur, 0) {
		return dur // gross clock faults are the caller's plausibility check
	}
	x, scale := dur, 1.0
	if expected > 0 && !math.IsInf(expected, 0) {
		x, scale = dur/expected, expected
	}
	s.ivals = slideAppend(s.ivals, x, ivalWindow)
	if len(s.ivals) < 3 {
		return dur
	}
	med, _ := s.medianMAD(s.ivals)
	return med * scale
}

// Estimate returns the current fallback power estimate: the registered
// model if one is set, otherwise the median of the accepted window.
func (s *Sensor) Estimate() float64 {
	if s.model > 0 {
		return s.model
	}
	if len(s.win) > 0 {
		med, _ := s.medianMAD(s.win)
		return med
	}
	return 0
}

// Observe rules on a measured power sample covering dur seconds.
func (s *Sensor) Observe(power, dur float64) Verdict {
	if math.IsNaN(power) || math.IsInf(power, 0) {
		return s.reject(NonFinite, dur)
	}
	if power < 0 {
		return s.reject(Negative, dur)
	}
	// Stuck detection watches the raw stream for runs of bit-identical
	// readings, but exact repeats alone are ambiguous: a deterministic or
	// heavily quantised source legitimately repeats. See isStuck.
	if s.haveRaw && power == s.lastRaw {
		s.stuckRun++
	} else {
		s.stuckRun = 1
		s.expectShift = false
	}
	s.lastRaw, s.haveRaw = power, true
	if s.isStuck() {
		return s.reject(Stuck, dur)
	}
	if s.cfg.MaxPower > 0 && power > s.cfg.MaxPower {
		return s.reject(Implausible, dur)
	}
	if len(s.win) >= 3 {
		med, mad := s.medianMAD(s.win)
		gate := s.cfg.MADGate * math.Max(mad, s.cfg.RelFloor*math.Abs(med))
		if math.Abs(power-med) > gate {
			if s.havePending && math.Abs(power-s.pending) <= s.cfg.ConfirmTol*math.Abs(s.pending) {
				// Two consecutive out-of-gate samples agree: a genuine
				// level shift, not a spike. Rebase on the new level.
				s.win = s.win[:0]
				s.havePending = false
				return s.accept(power, dur)
			}
			s.pending, s.havePending = power, true
			return s.reject(Outlier, dur)
		}
	}
	s.havePending = false
	return s.accept(power, dur)
}

// isStuck decides whether the current run of identical raw readings is a
// frozen sensor rather than a genuinely steady source. Repeats are only
// anomalous given contrary evidence: the model power level moved and the
// reading did not follow (caught within a few samples), or the accepted
// window shows the source is noisy — a noisy source never repeats
// exactly for a whole StuckRun.
func (s *Sensor) isStuck() bool {
	if s.expectShift && s.stuckRun >= 3 {
		return true
	}
	if s.stuckRun < s.cfg.StuckRun || len(s.win) < 3 {
		return false
	}
	_, mad := s.medianMAD(s.win)
	return mad > 0
}

// Missing rules on an interval for which no sample arrived.
func (s *Sensor) Missing(dur float64) Verdict {
	return s.reject(Missing, dur)
}

// ConsecutiveRejects returns the current rejection streak.
func (s *Sensor) ConsecutiveRejects() int { return s.rejectStreak }

// Counts returns the total accepted and rejected sample counts.
func (s *Sensor) Counts() (accepted, rejected int) { return s.accepted, s.rejected }

// Energy returns the cleaned cumulative energy ledger in joules.
func (s *Sensor) Energy() float64 { return s.energy }

// AdjustEnergy applies a signed correction to the cleaned ledger and
// returns it — used when an authoritative counter delta arrives after an
// outage and replaces the provisional estimates integrated meanwhile.
// The ledger never goes negative.
func (s *Sensor) AdjustEnergy(dj float64) float64 {
	s.energy += dj
	if s.energy < 0 {
		s.energy = 0
	}
	return s.energy
}

func (s *Sensor) accept(power, dur float64) Verdict {
	s.win = slideAppend(s.win, power, s.cfg.Window)
	s.accepted++
	s.rejectStreak = 0
	s.integrate(power, dur)
	return Verdict{Power: power, Energy: s.energy, Accepted: true, Reason: OK}
}

func (s *Sensor) reject(why Reason, dur float64) Verdict {
	s.rejected++
	s.rejectStreak++
	est := s.Estimate()
	s.integrate(est, dur)
	return Verdict{Power: est, Energy: s.energy, Accepted: false, Reason: why}
}

// integrate advances the cleaned ledger; negative or non-finite
// durations (a faulty clock) contribute nothing rather than corrupting
// the sum.
func (s *Sensor) integrate(power, dur float64) {
	if dur > 0 && !math.IsNaN(dur) && !math.IsInf(dur, 0) {
		s.energy += power * dur
	}
}

// slideAppend appends x to a bounded window, shifting in place once the
// window is full so the backing array never migrates forward (reslicing
// with win[1:] forces a reallocation every cap-len appends — a steady
// drip of garbage on the per-iteration path).
func slideAppend(win []float64, x float64, max int) []float64 {
	if len(win) < max {
		return append(win, x)
	}
	copy(win, win[1:])
	win[len(win)-1] = x
	return win
}

// medianMADInto returns the median and the median absolute deviation of
// xs, using tmp (len(tmp) == len(xs)) as scratch; xs is left untouched.
func medianMADInto(tmp, xs []float64) (med, mad float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	copy(tmp, xs)
	sort.Float64s(tmp)
	med = tmp[n/2]
	if n%2 == 0 {
		med = (tmp[n/2-1] + tmp[n/2]) / 2
	}
	for i, x := range tmp {
		tmp[i] = math.Abs(x - med)
	}
	sort.Float64s(tmp)
	mad = tmp[n/2]
	if n%2 == 0 {
		mad = (tmp[n/2-1] + tmp[n/2]) / 2
	}
	return med, mad
}

// EncodeState appends the sensing state to a checkpoint: both sliding
// windows, the cleaned ledger, the stuck/level-shift detectors and the
// tallies. The Config is a constructor argument and is rebuilt.
func (s *Sensor) EncodeState(enc *ckpt.Enc) {
	enc.Floats(s.win)
	enc.Float(s.energy)
	enc.Float(s.model)
	enc.Float(s.lastRaw)
	enc.Bool(s.haveRaw)
	enc.Int(s.stuckRun)
	enc.Bool(s.expectShift)
	enc.Float(s.pending)
	enc.Bool(s.havePending)
	enc.Floats(s.ivals)
	enc.Int(s.rejectStreak)
	enc.Int(s.accepted)
	enc.Int(s.rejected)
}

// DecodeState restores what EncodeState wrote into a Sensor built with
// the same Config; failures stick to d.
func (s *Sensor) DecodeState(d *ckpt.Dec) {
	s.win = d.Floats(s.win, s.cfg.Window)
	s.energy = d.Float()
	s.model = d.Float()
	s.lastRaw = d.Float()
	s.haveRaw = d.Bool()
	s.stuckRun = d.Count(math.MaxInt)
	s.expectShift = d.Bool()
	s.pending = d.Float()
	s.havePending = d.Bool()
	s.ivals = d.Floats(s.ivals, ivalWindow)
	s.rejectStreak = d.Count(math.MaxInt)
	s.accepted = d.Count(math.MaxInt)
	s.rejected = d.Count(math.MaxInt)
}
