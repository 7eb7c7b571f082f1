// Package perforation is the Loop Perforation substrate (Sidiroglou et al.,
// ESEC/FSE'11): it transforms loops to execute only a subset of their
// iterations, trading accuracy for performance. The paper builds canneal,
// ferret and streamcluster with this framework (Sec. 4.1).
//
// A perforated loop is described by a rate r in [0, 1): the fraction of
// iterations skipped. Rate 0 runs the full loop. The package offers the two
// perforation strategies from the original work — interleaved (skip evenly
// through the iteration space, the default because it usually distorts
// results least) and truncation (run the prefix, drop the tail) — plus a
// helper for generating the rate ladders used as application knobs.
package perforation

import (
	"fmt"
	"math"
)

// Strategy selects which iterations of a perforated loop execute.
type Strategy int

const (
	// Interleave keeps iterations evenly spaced through the index range.
	Interleave Strategy = iota
	// Truncate keeps the leading iterations and drops the tail.
	Truncate
)

// Loop is a perforated loop specification.
type Loop struct {
	Rate     float64 // fraction of iterations skipped, in [0, 1)
	Strategy Strategy
}

// NewLoop validates and builds a perforated loop.
func NewLoop(rate float64, s Strategy) (Loop, error) {
	if rate < 0 || rate >= 1 || math.IsNaN(rate) {
		return Loop{}, fmt.Errorf("perforation: rate %v outside [0, 1)", rate)
	}
	if s != Interleave && s != Truncate {
		return Loop{}, fmt.Errorf("perforation: unknown strategy %d", s)
	}
	return Loop{Rate: rate, Strategy: s}, nil
}

// Kept returns how many of n iterations execute under the loop's rate:
// ceil(n * (1-rate)), never less than 1 for n >= 1 (a loop that runs zero
// iterations would produce no result at all, which perforation forbids).
func (l Loop) Kept(n int) int {
	if n <= 0 {
		return 0
	}
	k := int(math.Ceil(float64(n) * (1 - l.Rate)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// Range invokes body for each executed iteration index in [0, n), according
// to the strategy. It returns the number of iterations executed.
func (l Loop) Range(n int, body func(i int)) int {
	k := l.Kept(n)
	if k == 0 {
		return 0
	}
	switch l.Strategy {
	case Truncate:
		for i := 0; i < k; i++ {
			body(i)
		}
	default: // Interleave: largest-remainder spacing across [0, n).
		step := float64(n) / float64(k)
		for j := 0; j < k; j++ {
			body(int(float64(j) * step))
		}
	}
	return k
}

// Speedup returns the nominal speedup of the perforated loop over the full
// loop, assuming uniform per-iteration cost: n / kept(n) in the limit,
// i.e. 1/(1-rate).
func (l Loop) Speedup() float64 { return 1 / (1 - l.Rate) }

// RateLadder builds n perforation rates from 0 (exact) up to maxRate,
// spaced so the nominal speedups 1/(1-rate) are geometrically spaced — the
// shape Loop Perforation uses for its accuracy/performance sweeps. The
// first entry is always 0.
func RateLadder(n int, maxRate float64) ([]float64, error) {
	if n < 1 {
		return nil, fmt.Errorf("perforation: ladder needs at least one rung")
	}
	if maxRate < 0 || maxRate >= 1 {
		return nil, fmt.Errorf("perforation: max rate %v outside [0, 1)", maxRate)
	}
	out := make([]float64, n)
	if n == 1 {
		return out, nil
	}
	maxSpeed := 1 / (1 - maxRate)
	for i := 1; i < n; i++ {
		s := math.Pow(maxSpeed, float64(i)/float64(n-1))
		out[i] = 1 - 1/s
	}
	return out, nil
}
