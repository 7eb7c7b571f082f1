package learning

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"

	"jouleguard/internal/ckpt"
)

// scanBest is the reference the tournament trees must agree with: a
// lowest-index scan in which NaN and -Inf never win, -1 when nothing does.
func scanBest(b *Bandit, pulledOnly bool) int {
	best, bestEff := -1, math.Inf(-1)
	for i := 0; i < b.NumArms(); i++ {
		if pulledOnly && b.Pulls(i) == 0 {
			continue
		}
		if eff := b.Efficiency(i); eff > bestEff {
			best, bestEff = i, eff
		}
	}
	return best
}

func checkArgmax(t *testing.T, b *Bandit, step int) {
	t.Helper()
	if got, want := b.BestArm(), max(scanBest(b, false), 0); got != want {
		t.Fatalf("step %d: BestArm %d, scan says %d", step, got, want)
	}
	if got, want := b.BestMeasuredArm(), scanBest(b, true); got != want {
		t.Fatalf("step %d: BestMeasuredArm %d, scan says %d", step, got, want)
	}
}

// bestArmWord is where EncodeState puts the best arm: the fourth word of
// the blob body (after arm count, estimator tag and total pulls), which
// follows ckpt's 3-byte header; the measured best is the word after it.
const bestArmWord = 3

func encodeBandit(b *Bandit) []byte {
	enc := ckpt.NewEnc(nil, 'B', 1)
	b.EncodeState(enc)
	return enc.Seal()
}

func decodeBandit(b *Bandit, blob []byte) error {
	d, err := ckpt.Open(blob, 'B')
	if err != nil {
		return err
	}
	b.DecodeState(d)
	return d.Close()
}

// TestArgmaxMatchesScan drives seeded random Observe sequences — heavy
// with ties, zero-power readings and, under EWMA, estimates poisoned to
// NaN and ±Inf — over arm counts on both sides of a power of two, and
// after every step holds BestArm and BestMeasuredArm to the scan. Half the
// observations land on the current champion, the case the old maintained
// argmax answered with a full rescan. Every so often the bandit goes
// through a checkpoint and must come back with the same answers.
func TestArgmaxMatchesScan(t *testing.T) {
	rates := []float64{0, 5, 10, 10, 10, 20, math.NaN(), math.Inf(1), math.Inf(-1)}
	powers := []float64{0, 5, 5, 5, 10, 2.5}
	for name, construct := range banditKinds {
		for _, n := range []int{1, 2, 3, 7, 1024, 1025} {
			t.Run(fmt.Sprintf("%s/%d", name, n), func(t *testing.T) {
				build := func() *Bandit {
					b, err := construct(n, FlatPriors{Rate: 10, Power: 5}, rand.New(rand.NewSource(1)))
					if err != nil {
						t.Fatal(err)
					}
					return b
				}
				rng := rand.New(rand.NewSource(int64(n)))
				b := build()
				checkArgmax(t, b, -1)
				steps := 600 + 4*n
				for step := 0; step < steps; step++ {
					arm := rng.Intn(n)
					switch rng.Intn(4) {
					case 0:
						arm = b.BestArm()
					case 1:
						if m := b.BestMeasuredArm(); m >= 0 {
							arm = m
						}
					}
					rate := rates[rng.Intn(len(rates))]
					if rng.Intn(3) > 0 && !(rate >= 0 && rate <= 20) {
						rate = 10 // keep poison to a third of its draws so most arms stay rankable
					}
					if _, err := b.Observe(arm, rate, powers[rng.Intn(len(powers))]); err != nil {
						t.Fatal(err)
					}
					checkArgmax(t, b, step)
					if step%97 == 0 || step == steps-1 {
						r := build()
						if err := decodeBandit(r, encodeBandit(b)); err != nil {
							t.Fatalf("step %d: round trip: %v", step, err)
						}
						if r.BestArm() != b.BestArm() || r.BestMeasuredArm() != b.BestMeasuredArm() {
							t.Fatalf("step %d: restored bandit answers (%d, %d), original (%d, %d)", step,
								r.BestArm(), r.BestMeasuredArm(), b.BestArm(), b.BestMeasuredArm())
						}
						checkArgmax(t, r, step)
					}
				}
			})
		}
	}
}

// TestDecodeStateVerifiesBest pins that the argmaxes a checkpoint records
// are checked, not trusted: a blob that is intact as far as its checksum
// goes but names another best arm is refused.
func TestDecodeStateVerifiesBest(t *testing.T) {
	build := func() *Bandit {
		b, err := NewBandit(7, 0.85, FlatPriors{Rate: 10, Power: 5}, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	b := build()
	for arm := 0; arm < 7; arm++ {
		b.Observe(arm, float64(10+arm), 5)
	}
	for word, name := range map[int]string{bestArmWord: "best", bestArmWord + 1: "best measured"} {
		for _, wrong := range []int{0, 5, -1} {
			// Rewrite one argmax and re-seal, so the checksum is good and
			// only the cross-check can object.
			blob := encodeBandit(b)
			body := blob[:len(blob)-4]
			binary.LittleEndian.PutUint64(body[3+8*word:], uint64(int64(wrong)))
			forged := binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
			if err := decodeBandit(build(), forged); err == nil {
				t.Errorf("restored a blob whose %s arm was rewritten from 6 to %d", name, wrong)
			}
		}
	}
	if err := decodeBandit(build(), encodeBandit(b)); err != nil {
		t.Fatalf("untampered blob refused: %v", err)
	}
}
