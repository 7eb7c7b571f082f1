package main

import (
	"math"
	"sort"
)

// segments is how many equal-work parts the timed part of every run is
// split into. A rate or a quantile is computed inside each part and the
// reported figure is the median of the parts' values, so a disturbed
// part (a stall, a noisy neighbour on the box) cannot move it.
const segments = 25

// minQuantileN is the sample count below which no quantile is reported:
// a p99 of a few dozen samples is the maximum by another name.
const minQuantileN = 100

// quantile interpolates the q-quantile (0..1) of an ascending sample.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs (NaN when empty); xs is not modified.
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// quantiles is a latency sample summarised segment by segment: each
// figure is the median of the segments' own values.
type quantiles struct {
	p50, p90, p99 float64
	// mid is the midhinge, the mean of the two quartiles. On a stream
	// whose latency has two modes of similar weight (the v2 frame stream
	// on two cores: a decision handed over on one core, or one that wakes
	// the other) the median sits on the boundary and flips between the
	// modes from run to run; the midhinge moves when either mode moves
	// and does not flip.
	mid float64
	// midLo and midHi are the lowest and highest segment midhinge.
	midLo, midHi float64
	n            int // true sample count
}

// segmentQuantiles summarises per-segment samples. ok is false when the
// whole sample is smaller than minQuantileN or a segment is empty;
// callers then report no quantile.
func segmentQuantiles(segs [][]float64) (q quantiles, ok bool) {
	var p50s, p90s, p99s, mids []float64
	ok = true
	for _, seg := range segs {
		q.n += len(seg)
		if len(seg) == 0 {
			ok = false
			continue
		}
		s := sortedCopy(seg)
		p50s = append(p50s, quantile(s, 0.50))
		p90s = append(p90s, quantile(s, 0.90))
		p99s = append(p99s, quantile(s, 0.99))
		mids = append(mids, (quantile(s, 0.25)+quantile(s, 0.75))/2)
	}
	if q.n < minQuantileN || !ok {
		return quantiles{p50: math.NaN(), p99: math.NaN(), mid: math.NaN(), n: q.n}, false
	}
	q.p50, q.p90, q.p99, q.mid = median(p50s), median(p90s), median(p99s), median(mids)
	sort.Float64s(mids)
	q.midLo, q.midHi = mids[0], mids[len(mids)-1]
	return q, true
}

// splitEven cuts n items into parts contiguous ranges whose sizes differ
// by at most one; bounds has parts+1 entries, bounds[0]=0, bounds[parts]=n.
func splitEven(n, parts int) []int {
	bounds := make([]int, parts+1)
	for i := 0; i <= parts; i++ {
		bounds[i] = n * i / parts
	}
	return bounds
}

// relDiff is |a-b| as a share of a, the first reading.
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	if a == 0 {
		return math.Inf(1)
	}
	return math.Abs(a-b) / math.Abs(a)
}
