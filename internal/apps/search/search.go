// Package search is the swish++ document-search benchmark (paper Table 2: 6
// configurations, max speedup 1.52, max accuracy loss 83.4%, metric
// "precision and recall"). It is a real miniature search engine: an
// inverted index over a Zipf-distributed synthetic corpus (standing in for
// the paper's Project Gutenberg books), a power-law query stream built from
// the corpus dictionary exactly as the paper describes (Sec. 2 footnote 1),
// TF ranking, and per-result snippet generation. The PowerDial knob is the
// maximum number of results returned per query: fewer results cut the
// (expensive) snippet stage but directly reduce recall — which is why this
// application shows the paper's most dramatic accuracy cliff.
package search

import (
	"fmt"
	"sort"

	"jouleguard/internal/apps/kernel"
	"jouleguard/internal/workload"
)

const (
	name        = "swish++"
	numDocs     = 300
	wordsPerDoc = 150
	vocab       = 2000
	queryTerms  = 3
	queryPool   = 64 // distinct queries cycled through
	batchSize   = 8  // queries per Step (one heartbeat = one batch)
	targetSpeed = 1.52
	targetLoss  = 0.834
	snippetScan = 40 // words of the document scanned per returned result
)

// resultCaps is the knob ladder: maximum results per query; 0 means
// unlimited (the default, full-accuracy configuration). The spacing gives
// the engine a gentle first step (a mild cap that trades ~25% of results
// for ~1.1x speedup, the operating point JouleGuard lands on in the
// paper's Sec. 2 example) before the steep cliff at tiny caps.
var resultCaps = []int{0, 50, 20, 12, 8, 5}

// posting is one document entry in a term's posting list.
type posting struct {
	doc int
	tf  int
}

// rankedQuery is one query's precomputed ranking: the full ordered result
// list, the work the scoring and ranking stages cost, and the snippet work
// of each ranked result. Rankings depend only on the query (the cap knob
// merely truncates them), so the pool's 64 rankings are computed once and
// every configuration shares them; all work terms are integer-valued, so
// the replayed sums are exactly the figures direct evaluation produces.
type rankedQuery struct {
	docs     []int
	rankWork float64
	snipWork []float64
}

// Engine implements the App interface for document search.
type Engine struct {
	corpus  *workload.Corpus
	index   map[int][]posting
	queries [][]int
	ranked  []rankedQuery  // per query, precomputed in New (read-only after)
	refSets []map[int]bool // per query: result set of the default config
	refLens []int
	work    kernel.WorkScale
	acc     kernel.AccuracyScale
}

// New builds the corpus, index and query pool, and calibrates to Table 2.
func New() (*Engine, error) {
	rng := kernel.RNG(name+"-corpus", 0)
	corpus, err := workload.NewCorpus(rng, numDocs, wordsPerDoc, vocab, 1.1)
	if err != nil {
		return nil, fmt.Errorf("search: %w", err)
	}
	e := &Engine{corpus: corpus, index: make(map[int][]posting)}
	for d, doc := range corpus.Docs {
		tf := map[int]int{}
		for _, w := range doc {
			tf[w]++
		}
		for w, f := range tf {
			e.index[w] = append(e.index[w], posting{doc: d, tf: f})
		}
	}
	qs, err := workload.NewQueryStream(kernel.RNG(name+"-queries", 0), corpus, queryTerms, 1.05)
	if err != nil {
		return nil, fmt.Errorf("search: %w", err)
	}
	e.queries = make([][]int, queryPool)
	e.ranked = make([]rankedQuery, queryPool)
	e.refSets = make([]map[int]bool, queryPool)
	e.refLens = make([]int, queryPool)
	for q := range e.queries {
		e.queries[q] = qs.Next()
	}
	for q := range e.queries {
		e.ranked[q] = e.rank(e.queries[q])
		docs, _ := e.answer(q, 0)
		set := make(map[int]bool, len(docs))
		for _, d := range docs {
			set[d] = true
		}
		e.refSets[q] = set
		e.refLens[q] = len(docs)
	}
	// Calibrate work and accuracy at the two endpoint configurations. Work
	// is calibrated in Step units: one Step answers a whole batch, and the
	// base cost (query parsing, HTTP handling in the real swish++ server)
	// is per batch.
	rawDef, rawFast := 0.0, 0.0
	var lossFast float64
	for q := 0; q < queryPool; q++ {
		_, w := e.answer(q, 0)
		rawDef += w
		docs, w2 := e.answer(q, resultCaps[len(resultCaps)-1])
		rawFast += w2
		lossFast += e.lossVersusRef(q, docs)
	}
	perBatch := float64(batchSize) / float64(queryPool)
	e.work = kernel.NewWorkScale(rawDef*perBatch, rawFast*perBatch, targetSpeed)
	e.acc = kernel.NewAccuracyScale(lossFast/float64(queryPool), targetLoss)
	return e, nil
}

// rank executes one query's scoring, ranking and per-result snippet stages
// in full, recording the work of each stage so answer can replay any
// truncation of it exactly.
func (e *Engine) rank(terms []int) rankedQuery {
	var r rankedQuery
	scores := map[int]int{}
	for _, t := range terms {
		for _, p := range e.index[t] {
			scores[p.doc] += p.tf
			r.rankWork++
		}
	}
	type cand struct{ doc, score int }
	cands := make([]cand, 0, len(scores))
	for d, s := range scores {
		cands = append(cands, cand{d, s})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].doc < cands[j].doc
	})
	r.rankWork += float64(len(cands)) * 4 // ranking cost (comparison-ish)
	r.docs = make([]int, len(cands))
	r.snipWork = make([]float64, len(cands))
	for i, c := range cands {
		r.docs[i] = c.doc
		r.snipWork[i] = e.snippet(c.doc, terms)
	}
	return r
}

// answer executes query q with a result cap (0 = unlimited) and returns
// the ranked document ids plus the raw work performed: postings scanned,
// ranking comparisons, and snippet generation for every returned result.
// The ranking itself comes from the precomputed per-query cache; every
// work term is an integer-valued float64, so the replayed totals are
// identical to evaluating the stages directly.
func (e *Engine) answer(q, cap int) (docs []int, rawWork float64) {
	r := &e.ranked[q]
	rawWork = r.rankWork
	n := len(r.docs)
	if cap > 0 && cap < n {
		n = cap
	}
	for i := 0; i < n; i++ {
		rawWork += r.snipWork[i]
	}
	return r.docs[:n:n], rawWork
}

// snippet scans the whole document, highlighting every query-term
// occurrence — the per-result formatting stage a web search front-end
// performs — and returns the work it cost. This stage dominates per-result
// cost, which is what makes the result-cap knob worth 1.52x.
func (e *Engine) snippet(doc int, terms []int) float64 {
	words := e.corpus.Docs[doc]
	hits := 0
	for _, w := range words {
		for _, t := range terms {
			if w == t {
				hits++
			}
		}
	}
	return float64(len(words)*len(terms) + hits)
}

// lossVersusRef computes 1 - recall of the returned set against the default
// configuration's result set for query q (precision is always 1 because the
// cap only truncates the same ranking).
func (e *Engine) lossVersusRef(q int, docs []int) float64 {
	if e.refLens[q] == 0 {
		return 0
	}
	hits := 0
	for _, d := range docs {
		if e.refSets[q][d] {
			hits++
		}
	}
	return 1 - float64(hits)/float64(e.refLens[q])
}

// Name implements the App interface.
func (e *Engine) Name() string { return name }

// Metric implements the App interface.
func (e *Engine) Metric() string { return "precision and recall" }

// NumConfigs implements the App interface.
func (e *Engine) NumConfigs() int { return len(resultCaps) }

// DefaultConfig implements the App interface.
func (e *Engine) DefaultConfig() int { return 0 }

// Step implements the App interface: answer one batch of queries.
func (e *Engine) Step(cfg, iter int) (work, accuracy float64) {
	if cfg < 0 || cfg >= len(resultCaps) {
		cfg = 0
	}
	if iter < 0 {
		iter = -iter
	}
	var raw, loss float64
	for b := 0; b < batchSize; b++ {
		q := (iter*batchSize + b) % queryPool
		docs, w := e.answer(q, resultCaps[cfg])
		raw += w
		loss += e.lossVersusRef(q, docs)
	}
	return e.work.Work(raw), e.acc.Accuracy(loss / batchSize)
}
