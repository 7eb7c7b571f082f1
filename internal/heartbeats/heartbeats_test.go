package heartbeats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewMonitorValidates(t *testing.T) {
	if _, err := NewMonitor(1); err == nil {
		t.Error("want error for window 1")
	}
	if _, err := NewMonitor(2); err != nil {
		t.Errorf("window 2 should be valid: %v", err)
	}
}

func TestBeatSequenceAndValidation(t *testing.T) {
	m, _ := NewMonitor(4)
	s1, err := m.Beat(1.0, 0)
	if err != nil || s1 != 1 {
		t.Fatalf("first beat: %d, %v", s1, err)
	}
	s2, _ := m.Beat(2.0, 0)
	if s2 != 2 {
		t.Fatalf("second beat seq: %d", s2)
	}
	if _, err := m.Beat(1.5, 0); err == nil {
		t.Error("want error for time regression")
	}
	if _, err := m.Beat(math.NaN(), 0); err == nil {
		t.Error("want error for NaN time")
	}
	if m.Count() != 2 {
		t.Fatalf("count: %d", m.Count())
	}
}

func TestRatesSteadyBeats(t *testing.T) {
	m, _ := NewMonitor(8)
	for i := 0; i <= 20; i++ {
		if _, err := m.Beat(float64(i)*0.1, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.WindowRate(); math.Abs(got-10) > 1e-9 {
		t.Fatalf("window rate: %v, want 10", got)
	}
}

func TestRatesBeforeTwoBeats(t *testing.T) {
	m, _ := NewMonitor(4)
	if m.WindowRate() != 0 {
		t.Fatal("rate must be 0 before two beats")
	}
	m.Beat(1, 0)
	if m.WindowRate() != 0 {
		t.Fatal("rate with one beat must be 0")
	}
}

func TestWindowSlides(t *testing.T) {
	m, _ := NewMonitor(4)
	// Slow beats first, then fast: the window rate must converge to the
	// fast regime once the slow beats fall out of the window.
	times := []float64{0, 1, 2, 3, 3.1, 3.2, 3.3, 3.4}
	for _, ts := range times {
		m.Beat(ts, 0)
	}
	if got := m.WindowRate(); math.Abs(got-10) > 1e-6 {
		t.Fatalf("window rate after regime change: %v, want 10", got)
	}
}

func TestZeroTimeSpanRate(t *testing.T) {
	m, _ := NewMonitor(4)
	m.Beat(1, 0)
	m.Beat(1, 0) // same timestamp is allowed (non-decreasing)
	if m.WindowRate() != 0 {
		t.Fatal("zero-span rate must be 0, not Inf")
	}
}

// Property: for any positive inter-beat gaps, the window rate equals
// (n-1)/sum(last n-1 gaps).
func TestWindowRateProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 50 {
			raw = raw[:50]
		}
		m, _ := NewMonitor(8)
		t0 := 0.0
		var intervals []float64 // inter-beat gaps (excludes the first beat)
		for i, r := range raw {
			gap := float64(r%1000+1) / 1000
			t0 += gap
			if i > 0 {
				intervals = append(intervals, gap)
			}
			if _, err := m.Beat(t0, 0); err != nil {
				return false
			}
		}
		n := len(intervals)
		w := 7 // window holds 8 beats = 7 intervals
		if n < w {
			w = n
		}
		var span float64
		for _, g := range intervals[n-w:] {
			span += g
		}
		want := float64(w) / span
		return math.Abs(m.WindowRate()-want) < 1e-9*want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
