package sensors

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRAPLAccumulates(t *testing.T) {
	var r RAPL
	r.Deposit(1) // 1 J = 65536 units
	if got := r.Read(); got != 65536 {
		t.Fatalf("counter after 1 J: %d", got)
	}
	r.Deposit(0.5)
	if got := r.Read(); got != 65536+32768 {
		t.Fatalf("counter after 1.5 J: %d", got)
	}
}

func TestRAPLSubUnitCarry(t *testing.T) {
	var r RAPL
	// Deposit many sub-unit amounts; total must not lose energy.
	n := 100000
	per := RAPLUnit / 3
	for i := 0; i < n; i++ {
		r.Deposit(per)
	}
	want := per * float64(n) / RAPLUnit
	got := float64(r.Read())
	if math.Abs(got-want) > 2 {
		t.Fatalf("carry lost energy: %v units, want %v", got, want)
	}
}

func TestRAPLIgnoresInvalid(t *testing.T) {
	var r RAPL
	r.Deposit(-1)
	r.Deposit(math.NaN())
	if r.Read() != 0 {
		t.Fatalf("counter moved on invalid deposits: %d", r.Read())
	}
}

func TestEnergyBetweenWrapAround(t *testing.T) {
	// A counter that wrapped: prev near the top, cur small.
	prev := uint32(0xFFFFFF00)
	cur := uint32(0x100)
	want := float64(0x200) * RAPLUnit
	if got := EnergyBetween(prev, cur); math.Abs(got-want) > 1e-12 {
		t.Fatalf("wrap-around delta: %v, want %v", got, want)
	}
	if got := EnergyBetween(100, 300); math.Abs(got-200*RAPLUnit) > 1e-15 {
		t.Fatalf("plain delta: %v", got)
	}
	if EnergyBetween(7, 7) != 0 {
		t.Fatal("no-op delta")
	}
}

// Property: for any sequence of reads, summing EnergyBetween over
// consecutive reads reconstructs the deposited energy (within quantisation).
func TestRAPLReconstructionProperty(t *testing.T) {
	f := func(deposits []uint16) bool {
		var r RAPL
		prev := r.Read()
		var reconstructed, trueJ float64
		for _, d := range deposits {
			j := float64(d) / 1000 // up to ~65 J per deposit
			r.Deposit(j)
			trueJ += j
			cur := r.Read()
			reconstructed += EnergyBetween(prev, cur)
			prev = cur
		}
		return math.Abs(reconstructed-trueJ) < RAPLUnit*float64(len(deposits)+1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestINA231Quantisation(t *testing.T) {
	var s INA231
	s.Set(3.14159)
	if got := s.PowerW(); math.Abs(got-3.142) > 1e-9 {
		t.Fatalf("PowerW: %v", got)
	}
	s.Set(-5)
	if s.PowerW() != 0 {
		t.Fatal("negative power must clamp to 0")
	}
	s.Set(math.NaN())
	if s.PowerW() != 0 {
		t.Fatal("NaN power must clamp to 0")
	}
}

func TestExternalMeterSampling(t *testing.T) {
	m, err := NewExternalMeter(1.0)
	if err != nil {
		t.Fatal(err)
	}
	// 2.5 seconds at 100 W in 0.1 s slices.
	for i := 0; i < 25; i++ {
		m.Advance(100, 0.1)
	}
	if got := m.EnergyJ(); math.Abs(got-250) > 1e-9 {
		t.Fatalf("energy: %v", got)
	}
	if n := len(m.Samples()); n != 2 {
		t.Fatalf("samples at 1 Hz over 2.5 s: %d", n)
	}
	if m.lastW != 100 {
		t.Fatalf("last power: %v", m.lastW)
	}
}

func TestExternalMeterValidates(t *testing.T) {
	if _, err := NewExternalMeter(0); err == nil {
		t.Fatal("want error for zero period")
	}
	m, _ := NewExternalMeter(1)
	m.Advance(100, -1)
	m.Advance(math.NaN(), 1)
	if m.EnergyJ() != 0 {
		t.Fatal("invalid advances must be ignored")
	}
}

func TestFullSystemReaderReconstruction(t *testing.T) {
	// Perfect sensor (no leak): reconstruction must match true energy.
	f, err := NewFullSystemReader(85, 0)
	if err != nil {
		t.Fatal(err)
	}
	var trueJ float64
	for i := 0; i < 1000; i++ {
		w := 150 + 50*math.Sin(float64(i)/50)
		f.Advance(w, 0.01)
		trueJ += w * 0.01
	}
	got := f.ReadEnergy()
	if math.Abs(got-trueJ) > 0.01 {
		t.Fatalf("reconstructed %v J, true %v J", got, trueJ)
	}
}

func TestFullSystemReaderLeakUnderestimates(t *testing.T) {
	f, err := NewFullSystemReader(85, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	var trueJ float64
	for i := 0; i < 500; i++ {
		f.Advance(200, 0.01)
		trueJ += 200 * 0.01
	}
	got := f.ReadEnergy()
	if got >= trueJ {
		t.Fatalf("leaky sensor should under-report: %v >= %v", got, trueJ)
	}
	// The error must be exactly the leak share of package energy.
	wantErr := trueJ * 0.05 * (200.0 - 85) / 200
	if math.Abs((trueJ-got)-wantErr) > 0.05 {
		t.Fatalf("leak error %v, want %v", trueJ-got, wantErr)
	}
}

func TestFullSystemReaderValidates(t *testing.T) {
	if _, err := NewFullSystemReader(-1, 0); err == nil {
		t.Fatal("want error for negative adder")
	}
	if _, err := NewFullSystemReader(1, 1); err == nil {
		t.Fatal("want error for leak of 1")
	}
}

func TestFullSystemReaderBelowFixed(t *testing.T) {
	f, _ := NewFullSystemReader(85, 0)
	f.Advance(50, 1) // true power below the adder: MSR sees zero
	if got := f.rapl.Read(); got != 0 {
		t.Fatalf("counter: %d", got)
	}
	if got := f.ReadEnergy(); math.Abs(got-85) > 1e-9 {
		t.Fatalf("reconstruction: %v", got)
	}
}

func TestINAReaderReconstruction(t *testing.T) {
	r := NewINAReader(0.3, "big", "LITTLE", "DRAM", "GPU")
	var trueJ float64
	for i := 0; i < 2000; i++ {
		w := 4 + 2*math.Sin(float64(i)/100)
		r.Advance(w, 0.005)
		trueJ += w * 0.005
	}
	got := r.ReadEnergy()
	// Millisecond-granularity rail quantisation: small error allowed.
	if math.Abs(got-trueJ) > trueJ*0.01 {
		t.Fatalf("reconstructed %v J, true %v J", got, trueJ)
	}
}

func TestForPlatform(t *testing.T) {
	for _, name := range []string{"Mobile", "Tablet", "Server"} {
		a, err := ForPlatform(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a.Advance(100, 1)
		if a.ReadEnergy() <= 0 {
			t.Fatalf("%s: no energy after advance", name)
		}
	}
	if _, err := ForPlatform("Toaster"); err == nil {
		t.Fatal("want error for unknown platform")
	}
}
