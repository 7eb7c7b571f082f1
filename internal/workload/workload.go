// Package workload provides the synthetic input generators the evaluation
// uses in place of the paper's proprietary inputs: Zipf-distributed text
// corpora and power-law query streams (the paper's own swish++ methodology,
// Sec. 2 footnote 1), multi-phase scene traces for the video encoder
// (Sec. 5.6), and generic noise helpers shared by the application kernels.
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// Phase describes a contiguous stretch of a workload with a constant
// difficulty multiplier: an iteration in this phase costs Cost times the
// app's base work.
type Phase struct {
	Name       string
	Iterations int
	Cost       float64 // relative work per iteration (1 = nominal)
}

// Trace is a sequence of phases; it maps an iteration index to its cost.
type Trace struct {
	phases []Phase
	total  int
}

// NewTrace builds a trace from phases. Every phase must have positive
// length and cost.
func NewTrace(phases ...Phase) (*Trace, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("workload: trace needs at least one phase")
	}
	t := &Trace{phases: append([]Phase(nil), phases...)}
	for _, p := range phases {
		if p.Iterations <= 0 {
			return nil, fmt.Errorf("workload: phase %q has %d iterations", p.Name, p.Iterations)
		}
		if p.Cost <= 0 || math.IsNaN(p.Cost) {
			return nil, fmt.Errorf("workload: phase %q has cost %v", p.Name, p.Cost)
		}
		t.total += p.Iterations
	}
	return t, nil
}

// ThreePhaseVideo reproduces the Fig. 8 input: three scenes of framesPer
// frames each, where the middle scene "naturally (without any control)
// encodes about 40% faster" — i.e. costs 1/1.4 of the others.
func ThreePhaseVideo(framesPer int) *Trace {
	t, err := NewTrace(
		Phase{Name: "scene-a", Iterations: framesPer, Cost: 1},
		Phase{Name: "scene-b", Iterations: framesPer, Cost: 1 / 1.4},
		Phase{Name: "scene-a2", Iterations: framesPer, Cost: 1},
	)
	if err != nil {
		panic(err)
	}
	return t
}

// DiurnalTrace models a server's day/night load variation: iteration cost
// follows a sinusoid between lo and hi over `period` iterations, quantised
// into `steps` plateaus per period (real load curves are staircase-like at
// control timescales). n is the total length.
func DiurnalTrace(n, period, steps int, lo, hi float64) (*Trace, error) {
	if n <= 0 || period <= 1 || steps < 2 {
		return nil, fmt.Errorf("workload: invalid diurnal shape (n=%d period=%d steps=%d)", n, period, steps)
	}
	if lo <= 0 || hi < lo {
		return nil, fmt.Errorf("workload: invalid diurnal range [%v, %v]", lo, hi)
	}
	plateau := period / steps
	if plateau < 1 {
		plateau = 1
	}
	var phases []Phase
	for start := 0; start < n; start += plateau {
		length := plateau
		if start+length > n {
			length = n - start
		}
		mid := float64(start) + float64(length)/2
		cost := lo + (hi-lo)*(0.5+0.5*math.Sin(2*math.Pi*mid/float64(period)))
		phases = append(phases, Phase{
			Name:       fmt.Sprintf("diurnal-%d", start/plateau),
			Iterations: length,
			Cost:       cost,
		})
	}
	return NewTrace(phases...)
}

// BurstyTrace alternates calm stretches of nominal cost with short bursts
// of `burstCost`, a stress input for control loops: the budget must survive
// load spikes the model never saw. Deterministic given the rng seed.
func BurstyTrace(rng *rand.Rand, n, meanCalm, meanBurst int, burstCost float64) (*Trace, error) {
	if n <= 0 || meanCalm < 1 || meanBurst < 1 {
		return nil, fmt.Errorf("workload: invalid bursty shape (n=%d calm=%d burst=%d)", n, meanCalm, meanBurst)
	}
	if burstCost <= 0 {
		return nil, fmt.Errorf("workload: burst cost %v must be positive", burstCost)
	}
	var phases []Phase
	remaining := n
	burst := false
	for remaining > 0 {
		mean := meanCalm
		cost := 1.0
		if burst {
			mean = meanBurst
			cost = burstCost
		}
		length := 1 + rng.Intn(2*mean)
		if length > remaining {
			length = remaining
		}
		phases = append(phases, Phase{
			Name:       fmt.Sprintf("seg-%d", len(phases)),
			Iterations: length,
			Cost:       cost,
		})
		remaining -= length
		burst = !burst
	}
	return NewTrace(phases...)
}

// Len returns the total number of iterations in the trace.
func (t *Trace) Len() int { return t.total }

// Phases returns a copy of the phase list.
func (t *Trace) Phases() []Phase { return append([]Phase(nil), t.phases...) }

// Cost returns the difficulty multiplier for iteration i. Iterations past
// the end repeat the final phase's cost, so a trace can pace an open-ended
// run.
func (t *Trace) Cost(i int) float64 {
	if i < 0 {
		i = 0
	}
	for _, p := range t.phases {
		if i < p.Iterations {
			return p.Cost
		}
		i -= p.Iterations
	}
	return t.phases[len(t.phases)-1].Cost
}

// TotalCost returns the sum of costs over the whole trace — the total work
// in units of nominal iterations. The runtime uses it as the workload W the
// user supplies to Algorithm 1.
func (t *Trace) TotalCost() float64 {
	var sum float64
	for _, p := range t.phases {
		sum += float64(p.Iterations) * p.Cost
	}
	return sum
}

// LogNormal returns a multiplicative noise sample with median 1 and the
// given sigma (sigma = 0 returns exactly 1). Used to jitter per-iteration
// work the way real inputs do.
func LogNormal(rng *rand.Rand, sigma float64) float64 {
	if sigma <= 0 {
		return 1
	}
	return math.Exp(rng.NormFloat64() * sigma)
}

// Corpus is a synthetic document collection with Zipf-distributed word
// frequencies, standing in for the Project Gutenberg books the paper
// indexes with swish++.
type Corpus struct {
	Docs  [][]int // Docs[d] = word ids in document d
	Vocab int     // vocabulary size; word ids are [0, Vocab)
}

// NewCorpus generates numDocs documents of wordsPerDoc words drawn from a
// vocabulary of vocab words with Zipf exponent s (s ~ 1 matches natural
// text). Deterministic given the rng seed.
func NewCorpus(rng *rand.Rand, numDocs, wordsPerDoc, vocab int, s float64) (*Corpus, error) {
	if numDocs <= 0 || wordsPerDoc <= 0 || vocab <= 1 {
		return nil, fmt.Errorf("workload: invalid corpus shape (%d docs, %d words, %d vocab)",
			numDocs, wordsPerDoc, vocab)
	}
	if s <= 1 {
		// rand.Zipf requires s > 1; natural-language fits hover just above.
		s = 1.0001
	}
	z := rand.NewZipf(rng, s, 1, uint64(vocab-1))
	c := &Corpus{Docs: make([][]int, numDocs), Vocab: vocab}
	for d := range c.Docs {
		words := make([]int, wordsPerDoc)
		for w := range words {
			words[w] = int(z.Uint64())
		}
		c.Docs[d] = words
	}
	return c, nil
}

// QueryStream draws search queries the way the paper does: "we construct a
// dictionary of all words present in the documents ... and select words at
// random following a power law distribution".
type QueryStream struct {
	words []int // dictionary sorted by descending corpus frequency
	z     *rand.Zipf
	rng   *rand.Rand
	terms int
}

// NewQueryStream builds a query generator over the corpus dictionary. Each
// query has terms words, selected power-law by corpus rank.
func NewQueryStream(rng *rand.Rand, c *Corpus, terms int, s float64) (*QueryStream, error) {
	if terms <= 0 {
		return nil, fmt.Errorf("workload: query needs at least one term")
	}
	freq := make([]int, c.Vocab)
	for _, doc := range c.Docs {
		for _, w := range doc {
			freq[w]++
		}
	}
	// Dictionary = words that actually occur, ranked by frequency. The top
	// ranks play the role of stop words and are excluded, as in the paper.
	type wf struct{ w, f int }
	var present []wf
	for w, f := range freq {
		if f > 0 {
			present = append(present, wf{w, f})
		}
	}
	if len(present) < 2 {
		return nil, fmt.Errorf("workload: corpus too small for queries")
	}
	for i := 1; i < len(present); i++ { // insertion sort by descending f (stable, no deps)
		for j := i; j > 0 && present[j].f > present[j-1].f; j-- {
			present[j], present[j-1] = present[j-1], present[j]
		}
	}
	stop := len(present) / 50 // drop the top 2% as stop words
	present = present[stop:]
	words := make([]int, len(present))
	for i, p := range present {
		words[i] = p.w
	}
	if s <= 1 {
		s = 1.0001
	}
	return &QueryStream{
		words: words,
		z:     rand.NewZipf(rng, s, 1, uint64(len(words)-1)),
		rng:   rng,
		terms: terms,
	}, nil
}

// Next returns the next query's word ids.
func (q *QueryStream) Next() []int {
	out := make([]int, q.terms)
	for i := range out {
		out[i] = q.words[q.z.Uint64()]
	}
	return out
}
