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
	win    window  // recently accepted samples
	energy float64 // cleaned cumulative joules

	model float64 // model-based fallback power (0 = none)

	lastRaw     float64 // raw-stream stuck detection
	haveRaw     bool
	stuckRun    int
	expectShift bool // model power moved since the raw value last changed

	pending     float64 // last out-of-gate sample awaiting confirmation
	havePending bool

	ivals window // recent intervals on the current configuration

	rejectStreak       int
	accepted, rejected int
}

// New builds a Sensor; zero-value Config fields take the defaults.
func New(cfg Config) *Sensor {
	cfg = cfg.withDefaults()
	return &Sensor{cfg: cfg, model: cfg.ModelPower,
		win: newWindow(cfg.Window), ivals: newWindow(ivalWindow)}
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
	s.win.reset()
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
	s.ivals.push(x)
	if len(s.ivals.seq) < 3 {
		return dur
	}
	return s.ivals.median() * scale
}

// Estimate returns the current fallback power estimate: the registered
// model if one is set, otherwise the median of the accepted window.
func (s *Sensor) Estimate() float64 {
	if s.model > 0 {
		return s.model
	}
	return s.win.median()
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
	// One median/MAD of the window serves the stuck test and the gate.
	warm := len(s.win.seq) >= 3
	var med, mad float64
	if warm {
		med, mad = s.win.medianMAD()
	}
	if s.isStuck(mad) {
		return s.reject(Stuck, dur)
	}
	if s.cfg.MaxPower > 0 && power > s.cfg.MaxPower {
		return s.reject(Implausible, dur)
	}
	if warm {
		gate := s.cfg.MADGate * math.Max(mad, s.cfg.RelFloor*math.Abs(med))
		if math.Abs(power-med) > gate {
			if s.havePending && math.Abs(power-s.pending) <= s.cfg.ConfirmTol*math.Abs(s.pending) {
				// Two consecutive out-of-gate samples agree: a genuine
				// level shift, not a spike. Rebase on the new level.
				s.win.reset()
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
// exactly for a whole StuckRun. mad is the window's MAD, 0 while it
// holds fewer than the three samples a MAD needs.
func (s *Sensor) isStuck(mad float64) bool {
	if s.expectShift && s.stuckRun >= 3 {
		return true
	}
	return s.stuckRun >= s.cfg.StuckRun && mad > 0
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
	s.win.push(power)
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

// window is a bounded run of samples in arrival order, kept beside an
// ascending copy of itself so its order statistics need no sort: a push
// is one ordered insert and, once the window is full, one ordered
// delete, each O(n) with n at most Config.Window. Only the arrival order
// is state; the ascending copy is rebuilt from it (restore).
type window struct {
	seq []float64 // arrival order, oldest first
	ord []float64 // the same samples, ascending
}

// newWindow returns an empty window of at most max samples: seq and ord
// share one allocation, and seq's capacity is max, so neither outgrows
// its half.
func newWindow(max int) window {
	buf := make([]float64, 2*max)
	return window{seq: buf[:0:max], ord: buf[max:max]}
}

// push appends x, evicting the oldest sample once the window is full.
// The arrival order shifts in place so the backing array never migrates
// (reslicing with seq[1:] would reallocate every cap-len pushes).
func (w *window) push(x float64) {
	if len(w.seq) < cap(w.seq) {
		w.seq = append(w.seq, x)
	} else {
		w.ord = deleteOrdered(w.ord, w.seq[0])
		copy(w.seq, w.seq[1:])
		w.seq[len(w.seq)-1] = x
	}
	w.ord = insertOrdered(w.ord, x)
}

// reset empties the window.
func (w *window) reset() { w.seq, w.ord = w.seq[:0], w.ord[:0] }

// restore rebuilds the ascending copy after seq was overwritten (a
// decoded checkpoint).
func (w *window) restore() {
	w.ord = w.ord[:0]
	for _, x := range w.seq {
		w.ord = insertOrdered(w.ord, x)
	}
}

// median returns the window's median (0 when empty).
func (w *window) median() float64 {
	o, n := w.ord, len(w.ord)
	switch {
	case n == 0:
		return 0
	case n%2 == 0:
		return (o[n/2-1] + o[n/2]) / 2
	}
	return o[n/2]
}

// medianMAD returns the window's median and its median absolute
// deviation. Walking down from the median through the samples below it,
// and up through those at or above it, visits the deviations |x - med|
// in ascending order on each side, so merging the two walks yields them
// sorted; the MAD is the middle of that merge, reached after n/2+1 steps.
func (w *window) medianMAD() (med, mad float64) {
	o, n := w.ord, len(w.ord)
	if n == 0 {
		return 0, 0
	}
	med = w.median()
	up := 0
	for up < n && o[up] < med {
		up++
	}
	down := up - 1
	var prev, cur float64
	for k := 0; k <= n/2; k++ {
		prev = cur
		if up < n && (down < 0 || math.Abs(o[up]-med) <= math.Abs(o[down]-med)) {
			cur = math.Abs(o[up] - med)
			up++
		} else {
			cur = math.Abs(o[down] - med)
			down--
		}
	}
	if n%2 == 0 {
		return med, (prev + cur) / 2
	}
	return med, cur
}

// insertOrdered inserts x into the ascending slice ord, after any equal
// samples.
func insertOrdered(ord []float64, x float64) []float64 {
	i := len(ord)
	ord = append(ord, x)
	for ; i > 0 && ord[i-1] > x; i-- {
		ord[i] = ord[i-1]
	}
	ord[i] = x
	return ord
}

// deleteOrdered removes from ord one sample with x's exact bits, so ord
// stays the arrival order's multiset (-0 and +0 compare equal but are
// not the same sample).
func deleteOrdered(ord []float64, x float64) []float64 {
	bits := math.Float64bits(x)
	for i, y := range ord {
		if math.Float64bits(y) == bits {
			return append(ord[:i], ord[i+1:]...)
		}
	}
	return ord
}

// EncodeState appends the sensing state to a checkpoint: both sliding
// windows, the cleaned ledger, the stuck/level-shift detectors and the
// tallies. The Config is a constructor argument and is rebuilt.
func (s *Sensor) EncodeState(enc *ckpt.Enc) {
	enc.Floats(s.win.seq)
	enc.Float(s.energy)
	enc.Float(s.model)
	enc.Float(s.lastRaw)
	enc.Bool(s.haveRaw)
	enc.Int(s.stuckRun)
	enc.Bool(s.expectShift)
	enc.Float(s.pending)
	enc.Bool(s.havePending)
	enc.Floats(s.ivals.seq)
	enc.Int(s.rejectStreak)
	enc.Int(s.accepted)
	enc.Int(s.rejected)
}

// DecodeState restores what EncodeState wrote into a Sensor built with
// the same Config, and rebuilds the windows' ascending copies; failures
// stick to d.
func (s *Sensor) DecodeState(d *ckpt.Dec) {
	s.win.seq = d.Floats(s.win.seq, s.cfg.Window)
	s.win.restore()
	s.energy = d.Float()
	s.model = d.Float()
	s.lastRaw = d.Float()
	s.haveRaw = d.Bool()
	s.stuckRun = d.Count(math.MaxInt)
	s.expectShift = d.Bool()
	s.pending = d.Float()
	s.havePending = d.Bool()
	s.ivals.seq = d.Floats(s.ivals.seq, ivalWindow)
	s.ivals.restore()
	s.rejectStreak = d.Count(math.MaxInt)
	s.accepted = d.Count(math.MaxInt)
	s.rejected = d.Count(math.MaxInt)
}
