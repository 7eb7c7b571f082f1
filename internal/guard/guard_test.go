package guard

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"jouleguard/internal/ckpt"
)

// noisy returns a deterministic pseudo-noisy level: base plus a small
// varying perturbation so the window is non-degenerate like a real sensor.
func noisy(base float64, i int) float64 {
	return base + 0.01*float64(i%7) - 0.03
}

func feed(s *Sensor, base float64, n int) {
	for i := 0; i < n; i++ {
		s.Observe(noisy(base, i), 0.1)
	}
}

func TestAcceptsCleanStream(t *testing.T) {
	s := New(Config{})
	for i := 0; i < 50; i++ {
		v := s.Observe(noisy(20, i), 0.1)
		if !v.Accepted {
			t.Fatalf("sample %d rejected: %v", i, v.Reason)
		}
	}
	acc, rej := s.Counts()
	if acc != 50 || rej != 0 {
		t.Fatalf("counts: %d/%d", acc, rej)
	}
	if s.rejectStreak != 0 {
		t.Fatal("clean stream should be healthy")
	}
}

func TestRejectsNonFiniteAndNegative(t *testing.T) {
	s := New(Config{ModelPower: 20})
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -5} {
		v := s.Observe(bad, 0.1)
		if v.Accepted {
			t.Fatalf("accepted %v", bad)
		}
		if v.Power != 20 {
			t.Fatalf("fallback power %v, want model 20", v.Power)
		}
	}
	if s.Observe(math.NaN(), 0.1).Reason != NonFinite {
		t.Fatal("NaN reason")
	}
	if s.Observe(-1, 0.1).Reason != Negative {
		t.Fatal("negative reason")
	}
}

func TestOutlierRejectedSpikeThenRecovers(t *testing.T) {
	s := New(Config{})
	feed(s, 20, 20)
	v := s.Observe(65, 0.1) // 3x spike
	if v.Accepted || v.Reason != Outlier {
		t.Fatalf("spike not rejected: %+v", v)
	}
	if v.Power > 25 {
		t.Fatalf("fallback power %v should track the window, not the spike", v.Power)
	}
	v = s.Observe(noisy(20, 3), 0.1)
	if !v.Accepted {
		t.Fatalf("clean sample after spike rejected: %v", v.Reason)
	}
	if s.ConsecutiveRejects() != 0 {
		t.Fatal("reject streak should clear")
	}
}

func TestLevelShiftConfirmedByAgreement(t *testing.T) {
	s := New(Config{})
	feed(s, 20, 20)
	if v := s.Observe(40, 0.1); v.Accepted {
		t.Fatal("first out-of-gate sample must be held for confirmation")
	}
	v := s.Observe(40.5, 0.1) // agrees with the pending sample
	if !v.Accepted {
		t.Fatalf("confirmed level shift rejected: %v", v.Reason)
	}
	// The window rebased: the new level is now the norm.
	if v := s.Observe(41, 0.1); !v.Accepted {
		t.Fatalf("post-shift sample rejected: %v", v.Reason)
	}
}

func TestSpikePairMustAgreeToConfirm(t *testing.T) {
	s := New(Config{})
	feed(s, 20, 20)
	if v := s.Observe(60, 0.1); v.Accepted {
		t.Fatal("spike accepted")
	}
	if v := s.Observe(100, 0.1); v.Accepted {
		t.Fatal("disagreeing outliers must not confirm a shift")
	}
}

func TestNoteActuationRebasesWindow(t *testing.T) {
	s := New(Config{})
	feed(s, 20, 20)
	s.NoteActuation()
	v := s.Observe(noisy(45, 0), 0.1) // new operating point, far from old window
	if !v.Accepted {
		t.Fatalf("post-actuation level rejected: %v", v.Reason)
	}
}

func TestStuckSensorOnNoisySource(t *testing.T) {
	s := New(Config{StuckRun: 5})
	feed(s, 20, 20) // noisy window established
	var v Verdict
	for i := 0; i < 5; i++ {
		v = s.Observe(20.00, 0.1) // bit-identical repeats
	}
	if v.Accepted || v.Reason != Stuck {
		t.Fatalf("frozen sensor not flagged: %+v", v)
	}
	// Recovery: a changing value clears the run.
	if v := s.Observe(noisy(20, 1), 0.1); !v.Accepted {
		t.Fatalf("recovered sensor rejected: %v", v.Reason)
	}
}

func TestSteadyDeterministicSourceNotStuck(t *testing.T) {
	s := New(Config{StuckRun: 5})
	for i := 0; i < 100; i++ {
		if v := s.Observe(20, 0.1); !v.Accepted {
			t.Fatalf("sample %d: deterministic steady source flagged %v", i, v.Reason)
		}
	}
}

func TestModelShiftExposesFrozenSensor(t *testing.T) {
	s := New(Config{})
	s.SetModelPower(20)
	for i := 0; i < 10; i++ {
		s.Observe(20, 0.1) // deterministic source, accepted
	}
	// The platform moved to a much higher power state but the reading
	// stays frozen — that contradiction is the stuck signal.
	s.SetModelPower(40)
	var v Verdict
	for i := 0; i < 3; i++ {
		v = s.Observe(20, 0.1)
	}
	if v.Accepted || v.Reason != Stuck {
		t.Fatalf("frozen reading across a model shift not flagged: %+v", v)
	}
}

func TestImplausibleCeiling(t *testing.T) {
	s := New(Config{MaxPower: 100})
	if v := s.Observe(250, 0.1); v.Accepted || v.Reason != Implausible {
		t.Fatalf("over-ceiling sample: %+v", v)
	}
}

func TestMissingFallsBackToModelThenMedian(t *testing.T) {
	s := New(Config{ModelPower: 30})
	v := s.Missing(0.1)
	if v.Accepted || v.Reason != Missing {
		t.Fatalf("missing verdict: %+v", v)
	}
	if v.Power != 30 {
		t.Fatalf("fallback %v, want model 30", v.Power)
	}
	// Without a model, the window median is the estimate.
	s2 := New(Config{})
	feed(s2, 20, 10)
	v = s2.Missing(0.1)
	if v.Power < 19 || v.Power > 21 {
		t.Fatalf("fallback %v, want ~20 (window median)", v.Power)
	}
}

func TestEnergyLedgerIntegratesCleanly(t *testing.T) {
	s := New(Config{ModelPower: 10})
	s.Observe(10, 1)  // +10 J
	s.Missing(2)      // +20 J at model power
	s.Observe(10, -1) // faulty negative duration: contributes nothing
	s.Observe(10, math.NaN())
	if e := s.Energy(); math.Abs(e-30) > 1e-9 {
		t.Fatalf("ledger %v, want 30", e)
	}
	if e := s.AdjustEnergy(-20); math.Abs(e-10) > 1e-9 {
		t.Fatalf("adjusted ledger %v, want 10", e)
	}
	if e := s.AdjustEnergy(-100); e != 0 {
		t.Fatalf("ledger went negative: %v", e)
	}
}

func TestSetModelPowerIgnoresGarbage(t *testing.T) {
	s := New(Config{ModelPower: 15})
	s.SetModelPower(math.NaN())
	s.SetModelPower(math.Inf(1))
	s.SetModelPower(-3)
	s.SetModelPower(0)
	if s.Estimate() != 15 {
		t.Fatalf("model corrupted: %v", s.Estimate())
	}
}

func TestDefaultsApplied(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Window != 16 || c.MADGate != 4 || c.StuckRun != 8 || c.RelFloor != 0.05 || c.ConfirmTol != 0.1 {
		t.Fatalf("defaults: %+v", c)
	}
}

func TestMedianMAD(t *testing.T) {
	med, mad := medianMAD([]float64{1, 2, 3, 4, 100})
	if med != 3 {
		t.Fatalf("median %v", med)
	}
	if mad != 1 {
		t.Fatalf("mad %v", mad)
	}
	if m, d := medianMAD(nil); m != 0 || d != 0 {
		t.Fatal("empty input")
	}
	med, mad = medianMAD([]float64{1, 3})
	if med != 2 || mad != 1 {
		t.Fatalf("even length: med %v mad %v", med, mad)
	}
}

func TestIntervalFilterCancelsSymmetricJitter(t *testing.T) {
	// A jittery clock adds symmetric noise to intervals; the reciprocal
	// (a rate) is then biased high. The median filter must converge on
	// the true interval so downstream rates stay honest.
	s := New(Config{})
	true_ := 0.1
	noise := []float64{0.3, -0.25, 0.05, -0.05, 0.2, -0.2, 0.0, 0.1, -0.1}
	var last float64
	for i, n := range noise {
		last = s.Interval(true_*(1+n), 0)
		if i < 2 && last != true_*(1+n) {
			t.Fatalf("sample %d: filter engaged before 3 samples: %v", i, last)
		}
	}
	if math.Abs(last-true_) > 0.01*true_ {
		t.Fatalf("filtered interval %v, want ~%v", last, true_)
	}
}

func TestIntervalRatioModeSurvivesConfigChanges(t *testing.T) {
	// With an expected duration supplied, the filter runs on the ratio
	// dur/expected, so the window stays warm when the operating point —
	// and with it the absolute duration — moves.
	s := New(Config{})
	for i := 0; i < 9; i++ {
		s.Interval(0.1, 0.1) // warm up at one operating point, ratio 1
	}
	// New operating point: 10x faster, one wild jittered sample.
	got := s.Interval(0.04, 0.01)
	if math.Abs(got-0.01) > 0.002 {
		t.Fatalf("ratio filter did not rescale to new operating point: %v", got)
	}
}

func TestIntervalPassesThroughGrossFaults(t *testing.T) {
	s := New(Config{})
	for _, d := range []float64{-1, 0, math.NaN(), math.Inf(1)} {
		if got := s.Interval(d, 0.1); !(got == d || math.IsNaN(got) && math.IsNaN(d)) {
			t.Fatalf("gross fault %v altered to %v; plausibility is the caller's job", d, got)
		}
	}
}

// medianMAD returns the median and the median absolute deviation of xs,
// through a window holding exactly xs.
func medianMAD(xs []float64) (med, mad float64) {
	w := newWindow(len(xs))
	for _, x := range xs {
		w.push(x)
	}
	return w.medianMAD()
}

// medianMADInto is the sort-based reference the window's order statistics
// must reproduce bit for bit: the median and the median absolute
// deviation of xs, with tmp (len(tmp) == len(xs)) as scratch.
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

// sameBits reports whether a and b are the same float64, bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkWindow fails unless w's ascending copy is its arrival order sorted,
// and its median and MAD (median alone when medianOnly) are bit-identical
// to the sort-based reference's.
func checkWindow(t *testing.T, what string, w *window, medianOnly bool) {
	t.Helper()
	want := append([]float64(nil), w.seq...)
	sort.Float64s(want)
	for i := range want {
		if i >= len(w.ord) || !sameBits(w.ord[i], want[i]) {
			t.Fatalf("%s: ascending copy %v, want %v (arrival order %v)", what, w.ord, want, w.seq)
		}
	}
	if len(w.ord) != len(want) {
		t.Fatalf("%s: ascending copy %v, want %v", what, w.ord, want)
	}
	wantMed, wantMAD := medianMADInto(make([]float64, len(w.seq)), w.seq)
	if medianOnly {
		if med := w.median(); !sameBits(med, wantMed) {
			t.Fatalf("%s: median %v of %v, want %v", what, med, w.seq, wantMed)
		}
		return
	}
	if med, mad := w.medianMAD(); !sameBits(med, wantMed) || !sameBits(mad, wantMAD) {
		t.Fatalf("%s: median/MAD %v/%v of %v, want %v/%v", what, med, mad, w.seq, wantMed, wantMAD)
	}
}

// TestWindowOrderStatisticsMatchSort drives windows through random pushes
// (ties, subnormals, 0, and values whose sum overflows), resets and
// restores of a copied arrival order, and after every step checks the
// sort-free median and MAD against the sort-based reference bit for bit.
// Samples come from the domains the guard feeds: finite and non-negative
// for the power window (its MAD is used), and up to +Inf for the interval
// window (only its median is). -0 is left out: sort.Float64s places -0
// and +0 in no specified order, so a zero median's sign is not the
// reference's to pin.
func TestWindowOrderStatisticsMatchSort(t *testing.T) {
	finite := []float64{0, 5e-324, 1, 1, 2, 2, 2.5, 3, 10, 1e300, math.MaxFloat64, math.MaxFloat64}
	intervals := append(append([]float64(nil), finite...), math.Inf(1))
	for _, c := range []struct {
		name       string
		pool       []float64
		max        int
		medianOnly bool
	}{
		{"power", finite, 16, false},
		{"power-odd", finite, 5, false},
		{"interval", intervals, ivalWindow, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			w := newWindow(c.max)
			for step := 0; step < 20000; step++ {
				switch r := rng.Intn(100); {
				case r < 3:
					w.reset()
				case r < 6:
					// Restore mid-window: a fresh window rebuilt from a copy
					// of the arrival order, as DecodeState rebuilds one.
					fresh := newWindow(c.max)
					fresh.seq = append(fresh.seq, w.seq...)
					fresh.restore()
					w = fresh
				default:
					x := c.pool[rng.Intn(len(c.pool))]
					if rng.Intn(2) == 0 {
						x = float64(rng.Intn(8)) + rng.Float64()
					}
					w.push(x)
				}
				checkWindow(t, fmt.Sprintf("step %d", step), &w, c.medianOnly)
			}
		})
	}
}

// TestSensorWindowsMatchSort runs Sensors through the guard's own paths —
// accepted samples, outliers, the level-shift reset, NoteActuation,
// intervals, and a checkpoint restored mid-window into a fresh Sensor —
// checking both windows against the sort-based reference after each call.
func TestSensorWindowsMatchSort(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := New(Config{})
	level := 10.0
	for step := 0; step < 5000; step++ {
		switch r := rng.Intn(100); {
		case r < 3:
			s.NoteActuation()
		case r < 6:
			level = 5 + 20*rng.Float64() // two agreeing samples at a new level reset the window
		case r < 9:
			enc := ckpt.NewEnc(nil, 'g', 1)
			s.EncodeState(enc)
			d, err := ckpt.Open(enc.Seal(), 'g')
			if err != nil {
				t.Fatal(err)
			}
			restored := New(Config{})
			restored.DecodeState(d)
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			s = restored
		case r < 12:
			s.Observe(level*(3+rng.Float64()), 0.1) // spike
		default:
			// Rounded readings, so the window holds ties.
			s.Observe(math.Round(level*(1+0.05*rng.NormFloat64())*4)/4, 0.1)
		}
		s.Interval(0.1*(1+0.2*rng.NormFloat64()), 0.1*float64(1+rng.Intn(3)))
		checkWindow(t, fmt.Sprintf("step %d power", step), &s.win, false)
		checkWindow(t, fmt.Sprintf("step %d interval", step), &s.ivals, true)
	}
}
