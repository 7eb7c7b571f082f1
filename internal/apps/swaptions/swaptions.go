// Package swaptions is the PARSEC-style Monte-Carlo swaption pricer built
// with PowerDial (paper Table 2: 100 configurations, max speedup 100.35,
// max accuracy loss 1.5%, metric "swaption price"). The knob is the number
// of Monte-Carlo trials: each trial simulates a short-rate path under a
// Vasicek model and the swaption price is the mean discounted payoff.
// Truncating the trial stream is exactly how the real PowerDial swaptions
// behaves: the same random paths are evaluated, just fewer of them.
package swaptions

import (
	"math"

	"jouleguard/internal/apps/kernel"
)

const (
	name        = "swaptions"
	instruments = 16 // distinct swaptions cycled by iteration index
	fullTrials  = 2000
	minTrials   = 20 // fullTrials / 100 ~ the Table 2 speedup
	pathSteps   = 12 // Euler steps per simulated short-rate path
	numConfigs  = 100
	targetSpeed = 100.35
	targetLoss  = 0.015
)

// instrument holds one swaption's model parameters.
type instrument struct {
	r0, kappa, theta, sigma float64 // Vasicek short-rate parameters
	strike                  float64
	tenor                   float64
}

// Pricer implements the apps.App interface (structurally).
type Pricer struct {
	trials  []int       // knob ladder, trials[0] = fullTrials (default)
	payoffs [][]float64 // per instrument: fullTrials precomputed payoffs
	refs    []float64   // per instrument: reference price (all trials)
	work    kernel.WorkScale
	acc     kernel.AccuracyScale
}

// New constructs the pricer, runs the full Monte-Carlo streams once to
// establish references, and calibrates the work/accuracy scales to Table 2.
func New() *Pricer {
	p := &Pricer{
		trials:  kernel.GeometricInts(fullTrials, minTrials, numConfigs),
		payoffs: make([][]float64, instruments),
		refs:    make([]float64, instruments),
	}
	for i := 0; i < instruments; i++ {
		rng := kernel.RNG(name+"-inst", i)
		inst := instrument{
			r0:     0.02 + 0.04*rng.Float64(),
			kappa:  0.1 + 0.4*rng.Float64(),
			theta:  0.03 + 0.04*rng.Float64(),
			sigma:  0.015 + 0.02*rng.Float64(),
			strike: 0.02 + 0.04*rng.Float64(),
			tenor:  1 + 4*rng.Float64(),
		}
		stream := make([]float64, fullTrials)
		for t := range stream {
			stream[t] = simulatePayoff(inst, rng)
		}
		p.payoffs[i] = stream
		p.refs[i] = mean(stream)
		if p.refs[i] <= 0 {
			// Deep out-of-the-money draw: nudge the strike so the price is
			// meaningful (a zero reference breaks relative error).
			for t := range stream {
				stream[t] += 0.001
			}
			p.refs[i] = mean(stream)
		}
	}
	// Calibrate: raw work is trials*pathSteps; raw loss at the fastest
	// configuration is the mean relative pricing error across instruments.
	rawDef := float64(fullTrials * pathSteps)
	rawFast := float64(p.trials[numConfigs-1] * pathSteps)
	p.work = kernel.NewWorkScale(rawDef, rawFast, targetSpeed)
	losses := make([]float64, instruments)
	for i := range losses {
		losses[i] = p.rawLoss(numConfigs-1, i)
	}
	p.acc = kernel.NewAccuracyScale(kernel.MeanAbs(losses), targetLoss)
	return p
}

// simulatePayoff runs one Vasicek path and returns the discounted payoff of
// a payer swaption: max(average simulated rate - strike, 0) * tenor,
// discounted along the path.
func simulatePayoff(in instrument, rng interface{ NormFloat64() float64 }) float64 {
	dt := in.tenor / pathSteps
	r := in.r0
	var rateSum, discount float64
	discount = 1
	for s := 0; s < pathSteps; s++ {
		r += in.kappa*(in.theta-r)*dt + in.sigma*math.Sqrt(dt)*rng.NormFloat64()
		rateSum += r
		discount *= math.Exp(-r * dt)
	}
	avg := rateSum / pathSteps
	payoff := avg - in.strike
	if payoff < 0 {
		payoff = 0
	}
	return payoff * in.tenor * discount
}

// Name implements the App interface.
func (p *Pricer) Name() string { return name }

// Metric implements the App interface.
func (p *Pricer) Metric() string { return "swaption price" }

// NumConfigs implements the App interface.
func (p *Pricer) NumConfigs() int { return numConfigs }

// DefaultConfig implements the App interface; config 0 runs all trials.
func (p *Pricer) DefaultConfig() int { return 0 }

// Period reports the number of swaptions Step cycles through: for
// iter >= 0, Step(cfg, iter) depends on iter only through iter mod Period().
func (*Pricer) Period() int { return instruments }

// Trials exposes the knob ladder (for tests and docs).
func (p *Pricer) Trials() []int { return append([]int(nil), p.trials...) }

// rawLoss is the relative pricing error of configuration cfg on instrument
// inst versus the full-trial reference.
func (p *Pricer) rawLoss(cfg, inst int) float64 {
	n := p.trials[cfg]
	price := mean(p.payoffs[inst][:n])
	return math.Abs(price-p.refs[inst]) / p.refs[inst]
}

// Step implements the App interface.
func (p *Pricer) Step(cfg, iter int) (work, accuracy float64) {
	if cfg < 0 || cfg >= numConfigs {
		cfg = 0
	}
	inst := iter % instruments
	if inst < 0 {
		inst += instruments
	}
	raw := float64(p.trials[cfg] * pathSteps)
	return p.work.Work(raw), p.acc.Accuracy(p.rawLoss(cfg, inst))
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
