// Package metrics implements the paper's evaluation metrics: relative
// error against the energy goal (Eqn 12) and effective accuracy against the
// oracle (Eqn 13), plus the summary statistics the figures report.
package metrics

import (
	"math"
	"sort"
)

// RelativeError implements Eqn 12: the percentage by which measured energy
// exceeds the goal, and zero when the goal is met or beaten ("we only count
// the error if it is above the target").
func RelativeError(measured, goal float64) float64 {
	if goal <= 0 || math.IsNaN(measured) || math.IsNaN(goal) {
		return 0
	}
	if measured <= goal {
		return 0
	}
	return (measured - goal) / goal * 100
}

// EffectiveAccuracy implements Eqn 13: measured accuracy as a fraction of
// the oracle's accuracy for the same goal. Values slightly above 1 can
// occur when measurement noise favours the runtime; callers may clamp.
func EffectiveAccuracy(measured, oracle float64) float64 {
	if oracle <= 0 || math.IsNaN(measured) || math.IsNaN(oracle) {
		return 0
	}
	return measured / oracle
}

// Summary holds basic statistics of a sample.
type Summary struct {
	N              int
	Mean, Min, Max float64
	StdDev         float64
	P50, P90, P99  float64
}

// Summarize computes summary statistics. An empty sample yields the zero
// Summary, and non-finite values (NaN, ±Inf) are dropped before any
// statistic is computed — one NaN would otherwise scramble the sort
// order and poison every percentile, and a single ±Inf would swallow the
// mean and standard deviation. N counts only the finite samples kept.
func Summarize(xs []float64) Summary {
	var s Summary
	sorted := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			sorted = append(sorted, x)
		}
	}
	if len(sorted) == 0 {
		return s
	}
	sort.Float64s(sorted)
	s.N = len(sorted)
	s.Min = sorted[0]
	s.Max = sorted[s.N-1]
	var sum float64
	for _, x := range sorted {
		sum += x
	}
	s.Mean = sum / float64(s.N)
	var sq float64
	for _, x := range sorted {
		d := x - s.Mean
		sq += d * d
	}
	s.StdDev = math.Sqrt(sq / float64(s.N))
	s.P50 = percentile(sorted, 0.50)
	s.P90 = percentile(sorted, 0.90)
	s.P99 = percentile(sorted, 0.99)
	return s
}

// percentile interpolates the p-quantile of a sorted sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
