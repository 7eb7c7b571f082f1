package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRelativeErrorEqn12(t *testing.T) {
	cases := []struct {
		measured, goal, want float64
	}{
		{120, 100, 20},
		{100, 100, 0},
		{80, 100, 0}, // under the target counts as zero error
		{0, 100, 0},
	}
	for _, tc := range cases {
		if got := RelativeError(tc.measured, tc.goal); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("RelativeError(%v, %v) = %v, want %v", tc.measured, tc.goal, got, tc.want)
		}
	}
	if RelativeError(1, 0) != 0 || RelativeError(math.NaN(), 1) != 0 {
		t.Error("degenerate inputs must yield zero")
	}
}

func TestRelativeErrorNonNegativeProperty(t *testing.T) {
	f := func(m, g float64) bool {
		return RelativeError(m, g) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEffectiveAccuracyEqn13(t *testing.T) {
	if got := EffectiveAccuracy(0.9, 0.95); math.Abs(got-0.9/0.95) > 1e-12 {
		t.Fatalf("EffectiveAccuracy: %v", got)
	}
	if EffectiveAccuracy(0.5, 0) != 0 {
		t.Fatal("zero oracle must yield 0")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.P50 != 3 {
		t.Fatalf("summary: %+v", s)
	}
	if math.Abs(s.StdDev-math.Sqrt(2)) > 1e-12 {
		t.Fatalf("stddev: %v", s.StdDev)
	}
	empty := Summarize(nil)
	if empty.N != 0 || empty.Mean != 0 {
		t.Fatalf("empty summary: %+v", empty)
	}
	one := Summarize([]float64{7})
	if one.P50 != 7 || one.P99 != 7 {
		t.Fatalf("singleton summary: %+v", one)
	}
}

func TestSummarizeTable(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name string
		in   []float64
		want Summary
	}{
		{
			name: "empty yields zero value",
			in:   nil,
			want: Summary{},
		},
		{
			name: "all non-finite yields zero value",
			in:   []float64{math.NaN(), inf, -inf},
			want: Summary{},
		},
		{
			name: "non-finite samples dropped before statistics",
			in:   []float64{4, math.NaN(), 1, inf, 3, -inf, 2, 5},
			want: Summary{N: 5, Mean: 3, Min: 1, Max: 5, StdDev: math.Sqrt(2), P50: 3, P90: 4.6, P99: 4.96},
		},
		{
			name: "constant sample has zero spread",
			in:   []float64{2, 2, 2, 2},
			want: Summary{N: 4, Mean: 2, Min: 2, Max: 2, P50: 2, P90: 2, P99: 2},
		},
		{
			name: "even length interpolates the median",
			in:   []float64{1, 2, 3, 4},
			want: Summary{N: 4, Mean: 2.5, Min: 1, Max: 4, StdDev: math.Sqrt(1.25), P50: 2.5, P90: 3.7, P99: 3.97},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Summarize(tc.in)
			close := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12 }
			if got.N != tc.want.N || !close(got.Mean, tc.want.Mean) ||
				!close(got.Min, tc.want.Min) || !close(got.Max, tc.want.Max) ||
				!close(got.StdDev, tc.want.StdDev) || !close(got.P50, tc.want.P50) ||
				!close(got.P90, tc.want.P90) || !close(got.P99, tc.want.P99) {
				t.Errorf("Summarize(%v) = %+v, want %+v", tc.in, got, tc.want)
			}
		})
	}
}

// TestPercentileInterpolationConsistency pins that P50/P90/P99 all come
// from the same linear-interpolation rule: the quantile of the sample
// {0, 1, ..., n-1} at p is exactly p*(n-1).
func TestPercentileInterpolationConsistency(t *testing.T) {
	xs := make([]float64, 11)
	for i := range xs {
		xs[i] = float64(i)
	}
	s := Summarize(xs)
	for _, tc := range []struct{ got, want float64 }{
		{s.P50, 5}, {s.P90, 9}, {s.P99, 9.9},
	} {
		if math.Abs(tc.got-tc.want) > 1e-12 {
			t.Errorf("percentile = %v, want %v", tc.got, tc.want)
		}
	}
}

func TestPercentilesOrdered(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Min <= s.P50 && s.P50 <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
