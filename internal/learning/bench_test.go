package learning

import (
	"math/rand"
	"testing"
)

func benchBandit(b *testing.B, n int) *Bandit {
	b.Helper()
	bd, err := NewBandit(n, 0.85, FlatPriors{Rate: 10, Power: 5}, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	return bd
}

func BenchmarkBanditObserve(b *testing.B) {
	bd := benchBandit(b, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bd.Observe(i%1024, 10, 5)
	}
}

// BenchmarkBanditObserveChampion is the steady state of a converged run:
// every observation lands on the best arm and every second one makes its
// estimate dip (it stays the best). A maintained argmax that rescans when
// the champion worsens pays for all 1,024 arms on half of these calls;
// BenchmarkBanditObserve's round-robin never meets that case.
func BenchmarkBanditObserveChampion(b *testing.B) {
	bd := benchBandit(b, 1024)
	const champion = 700
	for i := 0; i < 8; i++ {
		bd.Observe(champion, 20, 5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bd.Observe(champion, 20+0.1*float64(1-2*(i&1)), 5)
	}
	if bd.BestArm() != champion {
		b.Fatalf("best arm %d, want %d", bd.BestArm(), champion)
	}
}

// BenchmarkBestArm1024 is the Eqn 3 arg-max on the Server-sized space —
// the dominant term in the paper's Table 4 overhead.
func BenchmarkBestArm1024(b *testing.B) {
	bd := benchBandit(b, 1024)
	for i := 0; i < 1024; i++ {
		bd.Observe(i, float64(i+1), 5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bd.BestArm()
	}
}

func BenchmarkVDBESelect(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	bd := benchBandit(b, 1024)
	v := NewVDBE(1024, 0.85, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Select(bd)
		v.Update(0.01, 2)
	}
}
