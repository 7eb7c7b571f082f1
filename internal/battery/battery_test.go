package battery

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewValidates(t *testing.T) {
	if _, err := New(0, 1, 1); err == nil {
		t.Error("want error for zero capacity")
	}
	if _, err := New(100, 0, 1); err == nil {
		t.Error("want error for zero rated draw")
	}
	if _, err := New(100, 1, 0.5); err == nil {
		t.Error("want error for peukert < 1")
	}
	if _, err := New(100, 1, 3); err == nil {
		t.Error("want error for peukert > 2")
	}
}

func TestIdealBatteryCountsJoules(t *testing.T) {
	b, err := New(100, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.Draw(10, 4) // 40 J at any rate: ideal
	if err != nil || got != 40 {
		t.Fatalf("draw: %v, %v", got, err)
	}
	if b.RemainingJ() != 60 || b.wastedJ != 0 {
		t.Fatalf("remaining %v wasted %v", b.RemainingJ(), b.wastedJ)
	}
	if math.Abs(b.StateOfCharge()-0.6) > 1e-12 {
		t.Fatalf("soc: %v", b.StateOfCharge())
	}
}

func TestHeavyDrawWastesCharge(t *testing.T) {
	b, _ := New(100, 5, 1.3)
	useful, err := b.Draw(20, 1) // 4x rated
	if err != nil {
		t.Fatal(err)
	}
	if useful != 20 {
		t.Fatalf("useful: %v", useful)
	}
	wantDepletion := 20 * math.Pow(4, 0.3)
	if math.Abs((100-b.RemainingJ())-wantDepletion) > 1e-9 {
		t.Fatalf("depletion: %v, want %v", 100-b.RemainingJ(), wantDepletion)
	}
	if b.wastedJ <= 0 {
		t.Fatal("no waste recorded")
	}
}

func TestLightDrawNoPenalty(t *testing.T) {
	b, _ := New(100, 5, 1.5)
	b.Draw(2, 10) // under rated
	if b.wastedJ != 0 {
		t.Fatalf("light draw wasted %v", b.wastedJ)
	}
}

func TestCrossingEmptyDeliversPartial(t *testing.T) {
	b, _ := New(10, 5, 1)
	got, err := b.Draw(5, 4) // wants 20 J, only 10 available
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-10) > 1e-12 {
		t.Fatalf("partial delivery: %v", got)
	}
	if !b.Empty() {
		t.Fatal("battery should be empty")
	}
	if _, err := b.Draw(1, 1); err == nil {
		t.Fatal("drawing from empty should error")
	}
}

func TestInvalidDraw(t *testing.T) {
	b, _ := New(10, 5, 1)
	if _, err := b.Draw(-1, 1); err == nil {
		t.Error("want error for negative watts")
	}
	if _, err := b.Draw(1, math.NaN()); err == nil {
		t.Error("want error for NaN duration")
	}
}

func TestBudgetFor(t *testing.T) {
	b, _ := New(100, 5, 1.3)
	if got := b.BudgetFor(3); got != 100 {
		t.Fatalf("light budget: %v", got)
	}
	heavy := b.BudgetFor(20)
	want := 100 / math.Pow(4, 0.3)
	if math.Abs(heavy-want) > 1e-9 {
		t.Fatalf("heavy budget: %v, want %v", heavy, want)
	}
	// Drawing exactly the heavy budget at that rate must empty the battery
	// without going negative.
	useful, err := b.Draw(20, heavy/20)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(useful-heavy) > 1e-6 {
		t.Fatalf("delivered %v of budget %v", useful, heavy)
	}
	if b.RemainingJ() > 1e-6 {
		t.Fatalf("remaining: %v", b.RemainingJ())
	}
}

// Property: energy conservation — delivered + wasted + remaining equals the
// initial capacity for any draw sequence.
func TestConservationProperty(t *testing.T) {
	f := func(draws []uint16) bool {
		b, _ := New(1000, 5, 1.4)
		for _, d := range draws {
			w := float64(d%400) / 10
			if _, err := b.Draw(w, 0.5); err != nil {
				break
			}
		}
		total := b.drawnJ + b.wastedJ + b.RemainingJ()
		return math.Abs(total-1000) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
