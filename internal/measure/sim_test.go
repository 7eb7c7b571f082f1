package measure

import (
	"errors"
	"math"
	"testing"

	"jouleguard/internal/faults"
)

func TestSimMeterDepositAndIdle(t *testing.T) {
	clk := newFakeClock()
	m := NewSimMeter(SimConfig{IdleW: 2, NoiseW: 1e-9, Now: clk.now})
	if _, err := m.ReadJoules(); err != nil { // anchors the clock
		t.Fatal(err)
	}
	clk.advance(1e9) // 1 second
	m.Deposit(10)
	j, err := m.ReadJoules()
	if err != nil {
		t.Fatal(err)
	}
	// 10 J of work + ~2 J of idle over 1 s.
	if math.Abs(j-12) > 0.01 {
		t.Fatalf("cumulative = %v, want ~12", j)
	}
	if math.Abs(m.trueJ-j) > 0.01 {
		t.Fatalf("true joules %v != reading %v on a fault-free meter", m.trueJ, j)
	}
}

// The sim path runs through a 32-bit RAPL register (65536 J range), so
// counter wrap-around is exercised on every big run.
func TestSimMeterCounterWrap(t *testing.T) {
	clk := newFakeClock()
	m := NewSimMeter(SimConfig{IdleW: 1, NoiseW: 1e-9, Now: clk.now})
	if _, err := m.ReadJoules(); err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for i := 0; i < 5; i++ { // 5 x 30000 J crosses the 65536 J wrap twice
		m.Deposit(30000)
		total += 30000
		j, err := m.ReadJoules()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(j-total) > 1e-3 {
			t.Fatalf("after %d deposits: cumulative = %v, want %v", i+1, j, total)
		}
	}
}

func TestSimMeterFaults(t *testing.T) {
	clk := newFakeClock()
	m := NewSimMeter(SimConfig{IdleW: 1, NoiseW: 1e-9, Now: clk.now})
	m.Deposit(100)
	if _, err := m.ReadJoules(); err != nil {
		t.Fatal(err)
	}
	// Spike: the reading triples, the truth does not.
	m.SetFault(faults.NewSpike(1.0, 3, 0, 1))
	j, err := m.ReadJoules()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(j-300) > 1 {
		t.Fatalf("spiked reading = %v, want ~300", j)
	}
	if math.Abs(m.trueJ-100) > 1 {
		t.Fatalf("true joules = %v, want ~100 (spikes are not energy)", m.trueJ)
	}
	// Dropout: the read fails like a failed sysfs read.
	m.SetFault(faults.NewDropout(1.0, 1))
	if _, err := m.ReadJoules(); !errors.Is(err, ErrReadingDropped) {
		t.Fatalf("err = %v, want ErrReadingDropped", err)
	}
}
