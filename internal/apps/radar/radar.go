// Package radar is the phased-array digital-signal-processing benchmark
// (paper Table 2: 26 configurations, max speedup 19.39, max accuracy loss
// 5.3%, metric "signal to noise ratio"; the application detects targets in
// the returns of a phased-array antenna [Hoffmann et al., TPDS'12]). The
// PowerDial knob is the length of the FIR low-pass filter applied to the
// returns before detection: shorter filters cost proportionally fewer
// multiply-accumulates but reject less out-of-band noise, degrading the
// output signal-to-noise ratio.
package radar

import (
	"math"

	"jouleguard/internal/apps/kernel"
)

const (
	name        = "radar"
	numConfigs  = 26
	samples     = 256 // samples per pulse return
	fullTaps    = 136
	minTaps     = 7 // fullTaps/19.39 ~ Table 2 max speedup
	targetSpeed = 19.39
	targetLoss  = 0.053
	pulses      = 16 // distinct pulse scenarios cycled by iteration
	signalBin   = 9  // target Doppler bin (cycles per window)
	cutoffBin   = 24 // filter cutoff (bins); noise above is out-of-band
)

// DSP implements the App interface for the radar pipeline.
type DSP struct {
	taps    []int       // knob ladder, taps[0] = fullTaps
	filters [][]float64 // windowed-sinc coefficients per config
	returns [][]float64 // per pulse scenario: noisy antenna samples
	refSNR  []float64   // per pulse: SNR of the default-config output
	work    kernel.WorkScale
	acc     kernel.AccuracyScale
}

// New builds the pipeline: synthesises pulse returns (target tone + strong
// out-of-band noise), designs the filter bank, and calibrates to Table 2.
func New() *DSP {
	d := &DSP{taps: kernel.GeometricInts(fullTaps, minTaps, numConfigs)}
	d.filters = make([][]float64, numConfigs)
	for c, t := range d.taps {
		d.filters[c] = design(t)
	}
	d.returns = make([][]float64, pulses)
	d.refSNR = make([]float64, pulses)
	for p := 0; p < pulses; p++ {
		rng := kernel.RNG(name+"-pulse", p)
		sig := make([]float64, samples)
		phase := rng.Float64() * 2 * math.Pi
		amp := 0.8 + 0.4*rng.Float64()
		for i := range sig {
			x := 2 * math.Pi * float64(i) / samples
			sig[i] = amp * math.Sin(float64(signalBin)*x+phase)
			// In-band noise floor.
			sig[i] += 0.05 * rng.NormFloat64()
			// Strong out-of-band interference the filter must reject.
			for _, b := range []int{40, 57, 83, 110} {
				sig[i] += 0.5 * math.Sin(float64(b)*x+float64(b)*phase)
			}
		}
		d.returns[p] = sig
		d.refSNR[p] = snr(convolve(sig, d.filters[0]))
	}
	rawDef := float64(fullTaps * samples)
	rawFast := float64(minTaps * samples)
	d.work = kernel.NewWorkScale(rawDef, rawFast, targetSpeed)
	losses := make([]float64, pulses)
	for p := range losses {
		losses[p] = d.rawLoss(numConfigs-1, p)
	}
	d.acc = kernel.NewAccuracyScale(kernel.MeanAbs(losses), targetLoss)
	return d
}

// design returns a Hamming-windowed sinc low-pass filter with the given
// number of taps and the fixed cutoff.
func design(taps int) []float64 {
	h := make([]float64, taps)
	fc := float64(cutoffBin) / samples // normalised cutoff
	mid := float64(taps-1) / 2
	var sum float64
	for i := range h {
		t := float64(i) - mid
		var s float64
		if t == 0 {
			s = 2 * fc
		} else {
			s = math.Sin(2*math.Pi*fc*t) / (math.Pi * t)
		}
		w := 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(taps-1))
		h[i] = s * w
		sum += h[i]
	}
	for i := range h { // normalise DC gain... unity passband gain
		h[i] /= sum
	}
	return h
}

// convolve applies the FIR filter with same-length output (zero-padded
// edges), counting taps*samples multiply-accumulates of work.
func convolve(x, h []float64) []float64 {
	out := make([]float64, len(x))
	mid := len(h) / 2
	for i := range x {
		var acc float64
		for j, c := range h {
			k := i + j - mid
			if k >= 0 && k < len(x) {
				acc += c * x[k]
			}
		}
		out[i] = acc
	}
	return out
}

// snr estimates signal-to-noise: power in the target Doppler bin over the
// power of everything else, via a Goertzel-style projection.
func snr(x []float64) float64 {
	var re, im, total float64
	for i, v := range x {
		ang := 2 * math.Pi * float64(signalBin) * float64(i) / float64(len(x))
		re += v * math.Cos(ang)
		im += v * math.Sin(ang)
		total += v * v
	}
	sigPower := 2 * (re*re + im*im) / float64(len(x)*len(x)) * 2
	noise := total/float64(len(x)) - sigPower
	if noise <= 1e-12 {
		noise = 1e-12
	}
	return sigPower / noise
}

// rawLoss is the relative SNR degradation of configuration cfg on pulse p.
func (d *DSP) rawLoss(cfg, p int) float64 {
	got := snr(convolve(d.returns[p], d.filters[cfg]))
	ref := d.refSNR[p]
	if ref <= 0 {
		return 0
	}
	loss := (ref - got) / ref
	if loss < 0 {
		loss = 0 // a shorter filter can fluke a marginally better SNR
	}
	return loss
}

// Name implements the App interface.
func (d *DSP) Name() string { return name }

// Metric implements the App interface.
func (d *DSP) Metric() string { return "signal to noise ratio" }

// NumConfigs implements the App interface.
func (d *DSP) NumConfigs() int { return numConfigs }

// DefaultConfig implements the App interface.
func (d *DSP) DefaultConfig() int { return 0 }

// Step implements the App interface: filter one pulse return and measure
// the detection SNR against the default filter's output.
func (d *DSP) Step(cfg, iter int) (work, accuracy float64) {
	if cfg < 0 || cfg >= numConfigs {
		cfg = 0
	}
	p := iter % pulses
	if p < 0 {
		p += pulses
	}
	raw := float64(d.taps[cfg] * samples)
	return d.work.Work(raw), d.acc.Accuracy(d.rawLoss(cfg, p))
}
