package learning

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"jouleguard/internal/ckpt"
	"jouleguard/internal/control"
)

// refFilter is what the reference keeps per signal: one heap-allocated
// filter object, the storage the bank replaced.
type refFilter interface {
	Observe(float64) float64
	Value() float64
	EncodeState(*ckpt.Enc)
}

// refBandit is the plain bandit the bank-backed one must be
// indistinguishable from: a filter object pair per arm, built by
// evaluating the priors arm by arm, every argmax a lowest-index scan, and
// a checkpoint written field by field from the filters themselves.
type refBandit struct {
	tag   byte
	rate  []refFilter
	power []refFilter
	pulls []int
	total int
}

func newRefBandit(t *testing.T, n int, alpha float64, kalman bool, priors Priors) *refBandit {
	t.Helper()
	r := &refBandit{tag: 'E', pulls: make([]int, n)}
	filter := func(prior float64) refFilter {
		e, err := control.NewEWMA(alpha)
		if err != nil {
			t.Fatal(err)
		}
		e.Prime(prior)
		return e
	}
	if kalman {
		r.tag = 'K'
		filter = func(prior float64) refFilter {
			return control.NewKalman1D(prior, prior*prior, 1e-4*prior*prior, 0.01*prior*prior)
		}
	}
	for i := 0; i < n; i++ {
		rate, power := priors.Estimate(i)
		r.rate = append(r.rate, filter(rate))
		r.power = append(r.power, filter(power))
	}
	return r
}

func (r *refBandit) observe(arm int, rate, power float64) {
	r.rate[arm].Observe(rate)
	r.power[arm].Observe(power)
	r.pulls[arm]++
	r.total++
}

func (r *refBandit) efficiency(arm int) float64 {
	p := r.power[arm].Value()
	if p <= 0 {
		return 0
	}
	return r.rate[arm].Value() / p
}

// best scans for the arm keep accepts with the highest efficiency, lowest
// index on a tie; NaN and -Inf never win; -1 when nothing does.
func (r *refBandit) best(keep func(arm int) bool) int {
	best, bestEff := -1, math.Inf(-1)
	for i := range r.pulls {
		if !keep(i) {
			continue
		}
		if eff := r.efficiency(i); eff > bestEff {
			best, bestEff = i, eff
		}
	}
	return best
}

func (r *refBandit) bestArm() int { return max(r.best(func(int) bool { return true }), 0) }
func (r *refBandit) bestMeasuredArm() int {
	return r.best(func(arm int) bool { return r.pulls[arm] > 0 })
}

func (r *refBandit) encode() []byte {
	enc := ckpt.NewEnc(nil, 'B', 1)
	enc.Int(len(r.pulls))
	enc.Uint(uint64(r.tag))
	enc.Int(r.total)
	enc.Int(r.bestArm())
	enc.Int(r.bestMeasuredArm())
	pulled := 0
	for _, p := range r.pulls {
		if p > 0 {
			pulled++
		}
	}
	enc.Int(pulled)
	for i, p := range r.pulls {
		if p > 0 {
			enc.Int(i)
			enc.Int(p)
			r.rate[i].EncodeState(enc)
			r.power[i].EncodeState(enc)
		}
	}
	return enc.Seal()
}

// sameFloat is bit equality, except that any NaN equals any NaN: which
// payload and sign a NaN carries out of a blend depends on the operand
// order the compiler picked at that call site, not on where the estimate
// is stored. (The runtime never lets a NaN reach the bandit; the trees
// must still rank around one.)
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestBankMatchesPerArmFilters drives random (arm count, gain, priors,
// observation sequence) draws through the bank-backed bandit and the
// reference side by side. After every observation every accessor, every
// argmax and the checkpoint bytes must agree to the bit — including
// through zero-power readings and, under EWMA, estimates poisoned to ±Inf
// and NaN (whose bits alone are exempt, see sameFloat).
func TestBankMatchesPerArmFilters(t *testing.T) {
	values := []float64{0, 1e-3, 5, 10, 10, 20, 1e6, math.NaN(), math.Inf(1), math.Inf(-1), -3}
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := []int{1, 2, 3, 7, 48, 129, 1024}[rng.Intn(7)]
		alpha := 1 - rng.Float64() // (0, 1]
		kalman := trial%3 == 2
		rates, powers := make([]float64, n), make([]float64, n)
		for i := range rates {
			// Few distinct values: ties among the priors are the rule.
			rates[i] = float64(1+rng.Intn(4)) * 2.5
			powers[i] = float64(1+rng.Intn(3)) * 1.25
		}
		priors := PriorsFunc(func(arm int) (float64, float64) { return rates[arm], powers[arm] })

		t.Run(fmt.Sprintf("trial%d/n%d/kalman=%v", trial, n, kalman), func(t *testing.T) {
			ref := newRefBandit(t, n, alpha, kalman, priors)
			table, err := Tabulate(n, priors)
			if err != nil {
				t.Fatal(err)
			}
			var b *Bandit
			if kalman {
				b, err = table.NewKalmanBandit(rng)
			} else {
				b, err = table.NewBandit(alpha, rng)
			}
			if err != nil {
				t.Fatal(err)
			}
			check := func(step int) {
				t.Helper()
				nan := false
				for i := 0; i < n; i++ {
					nan = nan || math.IsNaN(b.Rate(i)) || math.IsNaN(b.Power(i))
					if !sameFloat(b.Rate(i), ref.rate[i].Value()) || !sameFloat(b.Power(i), ref.power[i].Value()) ||
						!sameFloat(b.Efficiency(i), ref.efficiency(i)) || b.Pulls(i) != ref.pulls[i] {
						t.Fatalf("step %d arm %d: bank (%v, %v, eff %v, %d pulls), reference (%v, %v, eff %v, %d pulls)", step, i,
							b.Rate(i), b.Power(i), b.Efficiency(i), b.Pulls(i),
							ref.rate[i].Value(), ref.power[i].Value(), ref.efficiency(i), ref.pulls[i])
					}
				}
				if b.BestArm() != ref.bestArm() || b.BestMeasuredArm() != ref.bestMeasuredArm() || b.TotalPulls() != ref.total {
					t.Fatalf("step %d: bank answers (%d, measured %d), reference (%d, measured %d)", step,
						b.BestArm(), b.BestMeasuredArm(), ref.bestArm(), ref.bestMeasuredArm())
				}
				if got, want := encodeBandit(b), ref.encode(); !nan && !bytes.Equal(got, want) {
					t.Fatalf("step %d: checkpoint is %d bytes that differ from the reference's %d", step, len(got), len(want))
				}
			}
			check(-1)
			for step := 0; step < 120; step++ {
				arm := rng.Intn(n)
				if rng.Intn(3) == 0 {
					arm = b.BestArm()
				}
				rate, power := values[rng.Intn(len(values))], values[rng.Intn(len(values))]
				if rng.Intn(4) > 0 {
					// Mostly plausible readings near the arm's own model.
					rate, power = rates[arm]*(0.5+rng.Float64()), powers[arm]*(0.5+rng.Float64())
				}
				ref.observe(arm, rate, power)
				if _, err := b.Observe(arm, rate, power); err != nil {
					t.Fatal(err)
				}
				check(step)
			}
		})
	}
}

// TestPriorTableIsolation pins the table's immutability rule: bandits
// built from one table share nothing that moves. Observations on one
// leave its sibling and the table at the priors, bit for bit; and
// constructors racing each other and a busy sibling (run under -race)
// all start from the same image.
func TestPriorTableIsolation(t *testing.T) {
	const n = 129
	table, err := Tabulate(n, optimisticPriors(n))
	if err != nil {
		t.Fatal(err)
	}
	for name, construct := range map[string]func() (*Bandit, error){
		"ewma":   func() (*Bandit, error) { return table.NewBandit(0.85, rand.New(rand.NewSource(1))) },
		"kalman": func() (*Bandit, error) { return table.NewKalmanBandit(rand.New(rand.NewSource(1))) },
		"flat":   func() (*Bandit, error) { return table.Flat().NewBandit(0.85, rand.New(rand.NewSource(1))) },
	} {
		t.Run(name, func(t *testing.T) {
			build := func() *Bandit {
				b, err := construct()
				if err != nil {
					t.Error(err)
				}
				return b
			}
			pristine := encodeBandit(build())
			image := func(b *Bandit) []float64 {
				var v []float64
				for i := 0; i < n; i++ {
					v = append(v, b.Rate(i), b.Power(i), b.Efficiency(i), float64(b.Pulls(i)), b.Gain(i))
				}
				return append(v, float64(b.BestArm()), float64(b.BestMeasuredArm()))
			}
			idle := build()
			before := image(idle)

			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for round := 0; round < 20; round++ {
						b := build()
						if b == nil {
							return
						}
						if !bytes.Equal(encodeBandit(b), pristine) {
							t.Errorf("goroutine %d round %d: a new bandit does not start from the table's image", g, round)
							return
						}
						for i := 0; i < 3*n; i++ {
							b.Observe((i*7+g)%n, float64(1+i%5), float64(1+i%3))
						}
					}
				}(g)
			}
			wg.Wait()

			after := image(idle)
			for i := range before {
				if !sameFloat(before[i], after[i]) {
					t.Fatalf("a sibling's observations moved the idle bandit: value %d went %v -> %v", i, before[i], after[i])
				}
			}
			if !bytes.Equal(encodeBandit(build()), pristine) {
				t.Fatal("observations on its bandits changed what the table builds")
			}
			for i := 0; i < n; i++ {
				r, p := table.Estimate(i)
				if wr, wp := optimisticPriors(n).Estimate(i); r != wr || p != wp {
					t.Fatalf("table prior %d moved to (%v, %v), want (%v, %v)", i, r, p, wr, wp)
				}
			}
		})
	}
}

// TestTabulate pins the table's edges: it is its own tabulation, a table
// of another size is re-read arm by arm, and the refusals NewBandit gives
// come from it.
func TestTabulate(t *testing.T) {
	table, err := Tabulate(8, optimisticPriors(8))
	if err != nil {
		t.Fatal(err)
	}
	if again, err := Tabulate(8, table); err != nil || again != table {
		t.Fatalf("tabulating a table: got %p, %v; want the table itself", again, err)
	}
	half, err := Tabulate(4, table)
	if err != nil || half == table {
		t.Fatalf("tabulating four arms of an eight-arm table: %p, %v", half, err)
	}
	if r, p := half.Estimate(3); r != table.rate[3] || p != table.power[3] {
		t.Fatalf("arm 3 of the narrower table (%v, %v), want (%v, %v)", r, p, table.rate[3], table.power[3])
	}
	if _, err := Tabulate(0, table); err == nil {
		t.Error("tabulated zero arms")
	}
	if _, err := Tabulate(3, FlatPriors{Rate: 1, Power: 0}); err == nil {
		t.Error("tabulated a non-positive prior")
	}
	flat := table.Flat()
	var rSum, pSum float64
	for i := 0; i < 8; i++ {
		r, p := table.Estimate(i)
		rSum, pSum = rSum+r, pSum+p
	}
	if r, p := flat.Estimate(5); r != rSum/8 || p != pSum/8 || flat != table.Flat() {
		t.Fatalf("flat prior (%v, %v), want the means (%v, %v), built once", r, p, rSum/8, pSum/8)
	}
}
