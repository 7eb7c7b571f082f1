package radar

import (
	"math"
	"testing"
)

func TestTapsLadder(t *testing.T) {
	d := New()
	taps := d.taps
	if len(taps) != numConfigs {
		t.Fatalf("ladder size: %d", len(taps))
	}
	if taps[0] != fullTaps || taps[numConfigs-1] != minTaps {
		t.Fatalf("ladder endpoints: %d .. %d", taps[0], taps[numConfigs-1])
	}
}

func TestFilterDCGainUnity(t *testing.T) {
	for _, taps := range []int{7, 33, 136} {
		h := design(taps)
		var sum float64
		for _, c := range h {
			sum += c
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("taps=%d: DC gain %v", taps, sum)
		}
	}
}

func TestLongerFilterRejectsMoreNoise(t *testing.T) {
	d := New()
	// SNR must be (weakly) better with the full filter than the shortest
	// on every pulse.
	for p := 0; p < pulses; p++ {
		full := snr(convolve(d.returns[p], d.filters[0]))
		short := snr(convolve(d.returns[p], d.filters[numConfigs-1]))
		if short > full {
			t.Errorf("pulse %d: short filter beats full (%v > %v)", p, short, full)
		}
	}
}

func TestSNRDetectsTone(t *testing.T) {
	// A clean tone at the signal bin must yield a huge SNR; white noise a
	// small one.
	n := samples
	tone := make([]float64, n)
	for i := range tone {
		tone[i] = math.Sin(2 * math.Pi * float64(signalBin) * float64(i) / float64(n))
	}
	if got := snr(tone); got < 100 {
		t.Fatalf("clean tone SNR: %v", got)
	}
	flat := make([]float64, n)
	for i := range flat {
		flat[i] = math.Sin(2 * math.Pi * 3 * float64(i) / float64(n)) // wrong bin
	}
	if got := snr(flat); got > 0.5 {
		t.Fatalf("off-bin tone SNR should be tiny: %v", got)
	}
}

func TestWorkProportionalToTaps(t *testing.T) {
	d := New()
	w0, _ := d.Step(0, 0)
	w25, _ := d.Step(25, 0)
	rawRatio := float64(d.taps[0]) / float64(d.taps[25])
	gotRatio := (w0 - d.work.Base) / (w25 - d.work.Base)
	if math.Abs(gotRatio-rawRatio) > 1e-9 {
		t.Fatalf("raw work ratio %v, want %v", gotRatio, rawRatio)
	}
}

func TestAccuracyMonotoneOnAverage(t *testing.T) {
	d := New()
	mean := func(cfg int) float64 {
		var s float64
		for p := 0; p < pulses; p++ {
			_, a := d.Step(cfg, p)
			s += a
		}
		return s / pulses
	}
	full, mid, short := mean(0), mean(12), mean(25)
	if !(full >= mid && mid >= short) {
		t.Fatalf("accuracy not monotone: %v, %v, %v", full, mid, short)
	}
	if full != 1 {
		t.Fatalf("default accuracy: %v", full)
	}
}
