package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewTraceValidates(t *testing.T) {
	if _, err := NewTrace(); err == nil {
		t.Error("want error for empty trace")
	}
	if _, err := NewTrace(Phase{Iterations: 0, Cost: 1}); err == nil {
		t.Error("want error for zero-length phase")
	}
	if _, err := NewTrace(Phase{Iterations: 5, Cost: 0}); err == nil {
		t.Error("want error for zero cost")
	}
	if _, err := NewTrace(Phase{Iterations: 5, Cost: math.NaN()}); err == nil {
		t.Error("want error for NaN cost")
	}
}

func TestTraceCostLookup(t *testing.T) {
	tr, err := NewTrace(
		Phase{Name: "a", Iterations: 3, Cost: 1},
		Phase{Name: "b", Iterations: 2, Cost: 0.5},
	)
	if err != nil {
		t.Fatal(err)
	}
	wants := []float64{1, 1, 1, 0.5, 0.5}
	for i, w := range wants {
		if got := tr.Cost(i); got != w {
			t.Errorf("Cost(%d) = %v, want %v", i, got, w)
		}
	}
	if tr.Cost(-1) != 1 {
		t.Error("negative index should clamp to first phase")
	}
	if tr.Cost(99) != 0.5 {
		t.Error("past-the-end should repeat final phase")
	}
	if tr.Len() != 5 {
		t.Errorf("Len = %d", tr.Len())
	}
	if got := tr.TotalCost(); math.Abs(got-4) > 1e-12 {
		t.Errorf("TotalCost = %v, want 4", got)
	}
}

func TestThreePhaseVideoMatchesPaper(t *testing.T) {
	tr := ThreePhaseVideo(200)
	if tr.Len() != 600 {
		t.Fatalf("Len = %d, want 600", tr.Len())
	}
	// Middle scene encodes ~40% faster: cost ratio 1/1.4.
	if got := tr.Cost(0) / tr.Cost(300); math.Abs(got-1.4) > 1e-12 {
		t.Fatalf("phase cost ratio: %v, want 1.4", got)
	}
	if tr.Cost(0) != tr.Cost(599) {
		t.Fatal("first and third scenes should match")
	}
}

// Property: TotalCost equals the sum of Cost(i) over the trace.
func TestTraceTotalCostConsistencyProperty(t *testing.T) {
	f := func(lens []uint8, costs []uint8) bool {
		n := len(lens)
		if len(costs) < n {
			n = len(costs)
		}
		if n == 0 {
			return true
		}
		phases := make([]Phase, 0, n)
		for i := 0; i < n; i++ {
			phases = append(phases, Phase{
				Iterations: int(lens[i]%20) + 1,
				Cost:       float64(costs[i]%50)/10 + 0.1,
			})
		}
		tr, err := NewTrace(phases...)
		if err != nil {
			return false
		}
		var sum float64
		for i := 0; i < tr.Len(); i++ {
			sum += tr.Cost(i)
		}
		return math.Abs(sum-tr.TotalCost()) < 1e-9*(1+sum)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDiurnalTrace(t *testing.T) {
	tr, err := DiurnalTrace(400, 200, 8, 0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 400 {
		t.Fatalf("len: %d", tr.Len())
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < tr.Len(); i++ {
		c := tr.Cost(i)
		lo = math.Min(lo, c)
		hi = math.Max(hi, c)
	}
	if lo < 0.5-1e-9 || hi > 2+1e-9 {
		t.Fatalf("cost range [%v, %v] outside [0.5, 2]", lo, hi)
	}
	if hi-lo < 1.0 {
		t.Fatalf("diurnal swing too small: [%v, %v]", lo, hi)
	}
	// One full period: early costs should differ from quarter-period costs.
	if math.Abs(tr.Cost(10)-tr.Cost(110)) < 0.2 {
		t.Fatal("no diurnal variation across a half period")
	}
}

func TestDiurnalTraceValidates(t *testing.T) {
	if _, err := DiurnalTrace(0, 10, 4, 1, 2); err == nil {
		t.Error("want error for zero length")
	}
	if _, err := DiurnalTrace(10, 1, 4, 1, 2); err == nil {
		t.Error("want error for degenerate period")
	}
	if _, err := DiurnalTrace(10, 10, 4, 2, 1); err == nil {
		t.Error("want error for inverted range")
	}
}

func TestBurstyTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr, err := BurstyTrace(rng, 500, 40, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 500 {
		t.Fatalf("len: %d", tr.Len())
	}
	// Both calm and burst costs must occur.
	var calm, burst int
	for i := 0; i < tr.Len(); i++ {
		switch tr.Cost(i) {
		case 1:
			calm++
		case 3:
			burst++
		default:
			t.Fatalf("unexpected cost %v", tr.Cost(i))
		}
	}
	if calm == 0 || burst == 0 {
		t.Fatalf("calm=%d burst=%d", calm, burst)
	}
	if burst > calm {
		t.Fatalf("bursts dominate: calm=%d burst=%d", calm, burst)
	}
}

func TestBurstyTraceValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	if _, err := BurstyTrace(rng, 0, 10, 5, 2); err == nil {
		t.Error("want error for zero length")
	}
	if _, err := BurstyTrace(rng, 10, 0, 5, 2); err == nil {
		t.Error("want error for zero calm length")
	}
	if _, err := BurstyTrace(rng, 10, 5, 5, 0); err == nil {
		t.Error("want error for zero burst cost")
	}
}

func TestLogNormal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if LogNormal(rng, 0) != 1 {
		t.Fatal("sigma=0 must return 1")
	}
	var sum float64
	n := 20000
	for i := 0; i < n; i++ {
		v := LogNormal(rng, 0.1)
		if v <= 0 {
			t.Fatal("non-positive noise sample")
		}
		sum += math.Log(v)
	}
	if mean := sum / float64(n); math.Abs(mean) > 0.01 {
		t.Fatalf("log-mean = %v, want ~0", mean)
	}
}

func TestNewCorpusValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if _, err := NewCorpus(rng, 0, 10, 10, 1.1); err == nil {
		t.Error("want error for zero docs")
	}
	if _, err := NewCorpus(rng, 10, 0, 10, 1.1); err == nil {
		t.Error("want error for zero words")
	}
	if _, err := NewCorpus(rng, 10, 10, 1, 1.1); err == nil {
		t.Error("want error for unit vocab")
	}
}

func TestCorpusShapeAndZipf(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c, err := NewCorpus(rng, 50, 500, 1000, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Docs) != 50 {
		t.Fatalf("doc count: %d", len(c.Docs))
	}
	freq := make([]int, c.Vocab)
	for _, d := range c.Docs {
		if len(d) != 500 {
			t.Fatalf("doc length: %d", len(d))
		}
		for _, w := range d {
			if w < 0 || w >= c.Vocab {
				t.Fatalf("word id out of range: %d", w)
			}
			freq[w]++
		}
	}
	// Zipf: word 0 must dominate the tail.
	var tail int
	for _, f := range freq[100:] {
		tail += f
	}
	if freq[0] < tail/100 {
		t.Fatalf("frequency distribution not heavy-headed: head=%d tail=%d", freq[0], tail)
	}
}

func TestCorpusDeterministic(t *testing.T) {
	a, _ := NewCorpus(rand.New(rand.NewSource(4)), 5, 50, 100, 1.1)
	b, _ := NewCorpus(rand.New(rand.NewSource(4)), 5, 50, 100, 1.1)
	for d := range a.Docs {
		for w := range a.Docs[d] {
			if a.Docs[d][w] != b.Docs[d][w] {
				t.Fatal("corpus generation not deterministic")
			}
		}
	}
}

func TestQueryStream(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c, err := NewCorpus(rng, 40, 400, 500, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQueryStream(rng, c, 3, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	present := map[int]bool{}
	for _, d := range c.Docs {
		for _, w := range d {
			present[w] = true
		}
	}
	for i := 0; i < 500; i++ {
		terms := q.Next()
		if len(terms) != 3 {
			t.Fatalf("query size: %d", len(terms))
		}
		for _, w := range terms {
			if !present[w] {
				t.Fatalf("query term %d not in corpus", w)
			}
		}
	}
}

func TestNewQueryStreamValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c, _ := NewCorpus(rng, 10, 100, 200, 1.1)
	if _, err := NewQueryStream(rng, c, 0, 1.1); err == nil {
		t.Error("want error for zero terms")
	}
	tiny := &Corpus{Docs: [][]int{{1}}, Vocab: 3}
	if _, err := NewQueryStream(rng, tiny, 1, 1.1); err == nil {
		t.Error("want error for degenerate corpus")
	}
}
