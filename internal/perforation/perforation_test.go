package perforation

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewLoopValidates(t *testing.T) {
	for _, bad := range []float64{-0.1, 1, 1.5, math.NaN()} {
		if _, err := NewLoop(bad, Interleave); err == nil {
			t.Errorf("NewLoop(%v): want error", bad)
		}
	}
	if _, err := NewLoop(0.5, Strategy(9)); err == nil {
		t.Error("want error for unknown strategy")
	}
	if _, err := NewLoop(0, Interleave); err != nil {
		t.Errorf("rate 0 should be valid: %v", err)
	}
}

func TestKept(t *testing.T) {
	cases := []struct {
		rate float64
		n    int
		want int
	}{
		{0, 10, 10},
		{0.5, 10, 5},
		{0.9, 10, 1},
		{0.99, 10, 1}, // never zero iterations
		{0.25, 4, 3},
		{0.5, 0, 0},
		{0.5, -3, 0},
		{0.3, 1, 1},
	}
	for _, tc := range cases {
		l, err := NewLoop(tc.rate, Interleave)
		if err != nil {
			t.Fatal(err)
		}
		if got := l.Kept(tc.n); got != tc.want {
			t.Errorf("Kept(rate=%v, n=%d) = %d, want %d", tc.rate, tc.n, got, tc.want)
		}
	}
}

func TestRangeTruncate(t *testing.T) {
	l, _ := NewLoop(0.5, Truncate)
	var got []int
	n := l.Range(10, func(i int) { got = append(got, i) })
	if n != 5 || len(got) != 5 {
		t.Fatalf("executed %d iterations: %v", n, got)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("truncate must keep the prefix, got %v", got)
		}
	}
}

func TestRangeInterleaveSpacing(t *testing.T) {
	l, _ := NewLoop(0.75, Interleave)
	got := indices(l, 16) // keep 4 of 16, evenly spread
	if len(got) != 4 {
		t.Fatalf("kept %d: %v", len(got), got)
	}
	want := []int{0, 4, 8, 12}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interleave indices: got %v, want %v", got, want)
		}
	}
}

func TestRangeFullLoop(t *testing.T) {
	l, _ := NewLoop(0, Interleave)
	got := indices(l, 7)
	if len(got) != 7 {
		t.Fatalf("full loop kept %d", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("full loop must visit every index in order: %v", got)
		}
	}
}

func TestSpeedup(t *testing.T) {
	l, _ := NewLoop(0.5, Interleave)
	if got := l.Speedup(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Speedup: %v", got)
	}
	l0, _ := NewLoop(0, Interleave)
	if l0.Speedup() != 1 {
		t.Fatalf("rate-0 speedup: %v", l0.Speedup())
	}
}

func TestRateLadder(t *testing.T) {
	rates, err := RateLadder(5, 0.875) // max speedup 8
	if err != nil {
		t.Fatal(err)
	}
	if len(rates) != 5 || rates[0] != 0 {
		t.Fatalf("ladder: %v", rates)
	}
	// Speedups must be geometric: 1, 8^(1/4), 8^(1/2), 8^(3/4), 8.
	for i, r := range rates {
		want := math.Pow(8, float64(i)/4)
		got := 1 / (1 - r)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("rung %d speedup %v, want %v", i, got, want)
		}
	}
}

func TestRateLadderValidates(t *testing.T) {
	if _, err := RateLadder(0, 0.5); err == nil {
		t.Error("want error for zero rungs")
	}
	if _, err := RateLadder(3, 1); err == nil {
		t.Error("want error for rate 1")
	}
	if _, err := RateLadder(3, -0.1); err == nil {
		t.Error("want error for negative rate")
	}
	one, err := RateLadder(1, 0.9)
	if err != nil || len(one) != 1 || one[0] != 0 {
		t.Fatalf("single-rung ladder: %v %v", one, err)
	}
}

// Properties: indices are strictly increasing, within range, unique, and
// their count matches Kept for every strategy and rate.
func TestLoopIndicesProperty(t *testing.T) {
	f := func(rateRaw float64, nRaw uint16, strat bool) bool {
		rate := math.Mod(math.Abs(rateRaw), 0.999)
		if math.IsNaN(rate) {
			return true
		}
		n := int(nRaw%2000) + 1
		s := Interleave
		if strat {
			s = Truncate
		}
		l, err := NewLoop(rate, s)
		if err != nil {
			return false
		}
		idx := indices(l, n)
		if len(idx) != l.Kept(n) {
			return false
		}
		for i, v := range idx {
			if v < 0 || v >= n {
				return false
			}
			if i > 0 && v <= idx[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// indices returns the iteration indices l executes out of n, in order.
func indices(l Loop, n int) []int {
	var out []int
	l.Range(n, func(i int) { out = append(out, i) })
	return out
}
