package learning

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"jouleguard/internal/ckpt"
	"jouleguard/internal/control"
)

// denseBandit is the bandit as it stood before it held only its pulled
// arms, kept as the reference model the sparse one must be
// indistinguishable from: every arm's filters copied out of the table
// into arm-indexed slices, a cached efficiency per arm, and two
// tournament trees over the arm indices — one entering every arm, one
// only the pulled ones.
type denseBandit struct {
	kalman          bool
	alpha           float64
	rates, powers   []float64 // EWMA
	kRates, kPowers []control.Kalman1D
	pulls           []int
	eff             []float64
	all, pulled     denseTree
	total           int
}

func newDenseBandit(t *PriorTable, alpha float64, kalman bool) *denseBandit {
	n := len(t.rate)
	b := &denseBandit{kalman: kalman, alpha: alpha, pulls: make([]int, n), eff: make([]float64, n),
		all: newDenseTree(n), pulled: newDenseTree(n)}
	if kalman {
		for i := 0; i < n; i++ {
			b.kRates = append(b.kRates, newKalmanFilter(t.rate[i]))
			b.kPowers = append(b.kPowers, newKalmanFilter(t.power[i]))
		}
	} else {
		b.rates, b.powers = append([]float64(nil), t.rate...), append([]float64(nil), t.power...)
	}
	for i := range b.eff {
		b.eff[i] = efficiency(b.rate(i), b.power(i))
	}
	b.all.fill(b.eff)
	return b
}

func (b *denseBandit) rate(arm int) float64 {
	if b.kalman {
		return b.kRates[arm].Value()
	}
	return b.rates[arm]
}

func (b *denseBandit) power(arm int) float64 {
	if b.kalman {
		return b.kPowers[arm].Value()
	}
	return b.powers[arm]
}

func (b *denseBandit) gain(arm int) float64 {
	if b.kalman {
		return b.kRates[arm].Gain()
	}
	return b.alpha
}

func (b *denseBandit) observe(arm int, rate, power float64) float64 {
	prior := b.eff[arm]
	var measured float64
	if power > 0 {
		measured = rate / power
	}
	if b.kalman {
		b.kRates[arm].Observe(rate)
		b.kPowers[arm].Observe(power)
	} else {
		b.rates[arm] = control.Blend(b.alpha, b.rates[arm], rate)
		b.powers[arm] = control.Blend(b.alpha, b.powers[arm], power)
	}
	b.pulls[arm]++
	b.total++
	b.eff[arm] = efficiency(b.rate(arm), b.power(arm))
	b.all.update(b.eff, arm)
	b.pulled.update(b.eff, arm)
	return math.Abs(measured - prior)
}

func (b *denseBandit) bestArm() int         { return max(b.all.best(), 0) }
func (b *denseBandit) bestMeasuredArm() int { return b.pulled.best() }

func (b *denseBandit) encode() []byte {
	enc := ckpt.NewEnc(nil, 'B', 1)
	enc.Int(len(b.pulls))
	tag := uint64('E')
	if b.kalman {
		tag = 'K'
	}
	enc.Uint(tag)
	enc.Int(b.total)
	enc.Int(b.bestArm())
	enc.Int(b.bestMeasuredArm())
	pulled := 0
	for _, p := range b.pulls {
		if p > 0 {
			pulled++
		}
	}
	enc.Int(pulled)
	for i, p := range b.pulls {
		if p == 0 {
			continue
		}
		enc.Int(i)
		enc.Int(p)
		if b.kalman {
			b.kRates[i].EncodeState(enc)
			b.kPowers[i].EncodeState(enc)
		} else {
			enc.Float(b.rates[i])
			enc.Bool(true)
			enc.Float(b.powers[i])
			enc.Bool(true)
		}
	}
	return enc.Seal()
}

// denseTree is the tournament tree over arm indices: leaf n+arm holds arm
// while it is a candidate, -1 otherwise.
type denseTree []int32

func newDenseTree(n int) denseTree {
	t := make(denseTree, 2*n)
	for i := range t {
		t[i] = -1
	}
	return t
}

func denseMatch(eff []float64, a, b int32) int32 {
	switch {
	case a < 0:
		return b
	case b < 0:
		return a
	case eff[b] > eff[a] || (eff[b] == eff[a] && b < a):
		return b
	}
	return a
}

func (t denseTree) fill(eff []float64) {
	n := len(t) / 2
	for arm := 0; arm < n; arm++ {
		if candidate(eff[arm]) {
			t[n+arm] = int32(arm)
		}
	}
	for i := n - 1; i >= 1; i-- {
		t[i] = denseMatch(eff, t[2*i], t[2*i+1])
	}
}

func (t denseTree) update(eff []float64, arm int) {
	i := len(t)/2 + arm
	t[i] = -1
	if candidate(eff[arm]) {
		t[i] = int32(arm)
	}
	for i >>= 1; i >= 1; i >>= 1 {
		t[i] = denseMatch(eff, t[2*i], t[2*i+1])
	}
}

func (t denseTree) best() int { return int(t[1]) }

// checkAgainstDense holds every accessor of b to the dense reference, arm
// by arm, and the checkpoint to its bytes.
func checkAgainstDense(t *testing.T, b *Bandit, ref *denseBandit, step int) {
	t.Helper()
	if b.NumArms() != len(ref.pulls) || b.TotalPulls() != ref.total {
		t.Fatalf("step %d: %d arms and %d pulls, reference %d and %d", step, b.NumArms(), b.TotalPulls(), len(ref.pulls), ref.total)
	}
	for i := range ref.pulls {
		if !sameFloat(b.Rate(i), ref.rate(i)) || !sameFloat(b.Power(i), ref.power(i)) ||
			!sameFloat(b.Efficiency(i), ref.eff[i]) || !sameFloat(b.Gain(i), ref.gain(i)) || b.Pulls(i) != ref.pulls[i] {
			t.Fatalf("step %d arm %d: sparse (%v, %v, eff %v, gain %v, %d pulls), dense (%v, %v, eff %v, gain %v, %d pulls)", step, i,
				b.Rate(i), b.Power(i), b.Efficiency(i), b.Gain(i), b.Pulls(i),
				ref.rate(i), ref.power(i), ref.eff[i], ref.gain(i), ref.pulls[i])
		}
	}
	if b.BestArm() != ref.bestArm() || b.BestMeasuredArm() != ref.bestMeasuredArm() {
		t.Fatalf("step %d: sparse answers (%d, measured %d), dense (%d, measured %d)", step,
			b.BestArm(), b.BestMeasuredArm(), ref.bestArm(), ref.bestMeasuredArm())
	}
	var pulled []int
	for i, p := range ref.pulls {
		if p > 0 {
			pulled = append(pulled, i)
		}
	}
	if got := b.PulledArms(); !slices.Equal(got, pulled) {
		t.Fatalf("step %d: pulled arms %v, dense %v", step, got, pulled)
	}
	if got, want := encodeBandit(b), ref.encode(); !bytes.Equal(got, want) {
		t.Fatalf("step %d: checkpoint is %d bytes that differ from the dense bandit's %d", step, len(got), len(want))
	}
}

// TestSparseMatchesDense drives random (arm count, gain, priors,
// observation sequence) draws through the sparse bandit and the dense
// reference side by side, under both estimator banks. The priors come
// from a few distinct values, so ties among them — and between a pulled
// arm and the best unpulled one — are the rule, and some priors are NaN or
// +Inf, so the table's ranking must leave out what cannot win and rank
// what always does. Observations mix plausible readings with zero, NaN,
// ±Inf and negative ones, and land as often on the best arm, the best
// measured arm and the best unpulled arm as anywhere. After every
// observation every accessor, every argmax and the checkpoint bytes must
// agree; every so often the sparse bandit also goes through its
// checkpoint and must come back agreeing.
func TestSparseMatchesDense(t *testing.T) {
	// Every NaN here is the one the FPU makes of Inf - Inf, which is also
	// the one a blend of +Inf and -Inf makes: a blend that meets two NaNs
	// keeps one operand's bits, and which one depends on the operand order
	// the compiler chose at that call site (it differs under -race). With
	// one NaN bit pattern the checkpoints can be held byte-equal.
	inf := math.Inf(1)
	nan := inf - inf
	values := []float64{0, 1e-3, 5, 10, 10, 20, 1e6, nan, inf, -inf, -3}
	for trial := 0; trial < 80; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		n := []int{1, 2, 3, 7, 48, 129, 1024}[rng.Intn(7)]
		alpha := 1 - rng.Float64() // (0, 1]
		kalman := trial%2 == 1
		rates, powers := make([]float64, n), make([]float64, n)
		for i := range rates {
			rates[i] = float64(1+rng.Intn(4)) * 2.5
			powers[i] = float64(1+rng.Intn(3)) * 1.25
			switch rng.Intn(40) {
			case 0:
				rates[i] = nan
			case 1:
				rates[i] = inf
			}
		}
		priors := PriorsFunc(func(arm int) (float64, float64) { return rates[arm], powers[arm] })

		t.Run(fmt.Sprintf("trial%d/n%d/kalman=%v", trial, n, kalman), func(t *testing.T) {
			table, err := Tabulate(n, priors)
			if err != nil {
				t.Fatal(err)
			}
			build := func() *Bandit {
				var b *Bandit
				if kalman {
					b, err = table.NewKalmanBandit(rng)
				} else {
					b, err = table.NewBandit(alpha, rng)
				}
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			b, ref := build(), newDenseBandit(table, alpha, kalman)
			checkAgainstDense(t, b, ref, -1)
			for step := 0; step < 250; step++ {
				arm := rng.Intn(n)
				switch rng.Intn(5) {
				case 0:
					arm = b.BestArm()
				case 1:
					if m := b.BestMeasuredArm(); m >= 0 {
						arm = m
					}
				case 2:
					if next := b.next; next < len(table.rank) {
						arm = int(table.rank[next])
					}
				}
				rate, power := values[rng.Intn(len(values))], values[rng.Intn(len(values))]
				if rng.Intn(4) > 0 {
					// Mostly plausible readings near the arm's own model.
					rate, power = 2.5*float64(1+rng.Intn(4)), 1.25*float64(1+rng.Intn(3))
				}
				want := ref.observe(arm, rate, power)
				got, err := b.Observe(arm, rate, power)
				if err != nil {
					t.Fatal(err)
				}
				if !sameFloat(got, want) {
					t.Fatalf("step %d: Observe(%d, %v, %v) returned %v, dense %v", step, arm, rate, power, got, want)
				}
				checkAgainstDense(t, b, ref, step)
				if step%41 == 0 {
					r := build()
					if err := decodeBandit(r, encodeBandit(b)); err != nil {
						t.Fatalf("step %d: round trip: %v", step, err)
					}
					checkAgainstDense(t, r, ref, step)
				}
			}
		})
	}
}
