// Package ferret is the content-similarity-search benchmark built with Loop
// Perforation (paper Table 2: 8 configurations, max speedup 1.24, max
// accuracy loss 18.2%, metric "similarity"). The real PARSEC ferret ranks
// images by feature-vector similarity through a multi-stage pipeline; Loop
// Perforation skips candidates in the expensive ranking stage. This kernel
// searches a clustered feature database: a fixed coarse-quantisation stage
// selects candidate clusters, and the perforated ranking stage scores the
// candidates; accuracy is the mean similarity of the returned neighbours
// relative to the default configuration's neighbours.
package ferret

import (
	"math"
	"sort"

	"jouleguard/internal/apps/kernel"
	"jouleguard/internal/perforation"
)

const (
	name        = "ferret"
	dbSize      = 512
	dim         = 16
	numClusters = 32
	probes      = 8  // clusters probed by the coarse stage
	topK        = 10 // neighbours returned
	batch       = 4  // queries per Step
	queryPool   = 64
	numConfigs  = 8
	maxRate     = 0.8
	targetSpeed = 1.24
	targetLoss  = 0.182
	calibIters  = 8
)

// Searcher implements the App interface.
type Searcher struct {
	db        [][dim]float64
	centroids [numClusters][dim]float64
	clusters  [][]int // cluster -> member indices
	queries   [][dim]float64
	refSim    []float64 // default mean top-K similarity per query
	rates     []float64
	work      kernel.WorkScale
	acc       kernel.AccuracyScale
}

// New builds the database (a Gaussian-mixture feature space), the query
// pool, and calibrates to Table 2.
func New() *Searcher {
	s := &Searcher{}
	rates, err := perforation.RateLadder(numConfigs, maxRate)
	if err != nil {
		panic(err) // static ladder cannot fail
	}
	s.rates = rates
	rng := kernel.RNG(name+"-db", 0)
	for c := range s.centroids {
		for d := 0; d < dim; d++ {
			s.centroids[c][d] = rng.NormFloat64() * 4
		}
	}
	s.db = make([][dim]float64, dbSize)
	s.clusters = make([][]int, numClusters)
	for i := range s.db {
		c := i % numClusters
		for d := 0; d < dim; d++ {
			s.db[i][d] = s.centroids[c][d] + rng.NormFloat64()
		}
		s.clusters[c] = append(s.clusters[c], i)
	}
	s.queries = make([][dim]float64, queryPool)
	s.refSim = make([]float64, queryPool)
	qrng := kernel.RNG(name+"-queries", 0)
	for q := range s.queries {
		base := s.db[qrng.Intn(dbSize)]
		for d := 0; d < dim; d++ {
			s.queries[q][d] = base[d] + 0.5*qrng.NormFloat64()
		}
		sim, _ := s.search(q, 0)
		s.refSim[q] = sim
	}
	// Calibrate in Step units (a Step is a batch of queries): the base cost
	// stands in for the real ferret pipeline's non-perforated stages
	// (segmentation, feature extraction, output).
	var rawDef, rawFast, lossFast float64
	for it := 0; it < calibIters; it++ {
		q := it % queryPool
		_, wd := s.search(q, 0)
		simF, wf := s.search(q, len(s.rates)-1)
		rawDef += wd
		rawFast += wf
		lossFast += s.lossFor(q, simF)
	}
	perBatch := float64(batch) / calibIters
	s.work = kernel.NewWorkScale(rawDef*perBatch, rawFast*perBatch, targetSpeed)
	s.acc = kernel.NewAccuracyScale(lossFast/calibIters, targetLoss)
	return s
}

func dist2(a, b [dim]float64) float64 {
	var s float64
	for d := 0; d < dim; d++ {
		diff := a[d] - b[d]
		s += diff * diff
	}
	return s
}

// search runs the pipeline for query q at configuration cfg and returns the
// mean similarity of the returned top-K plus the raw work (vector ops).
func (s *Searcher) search(q, cfg int) (meanSim, rawWork float64) {
	query := s.queries[q]
	// Stage 1 (never perforated): rank the coarse centroids.
	type scored struct {
		idx int
		d   float64
	}
	cents := make([]scored, numClusters)
	for c := range s.centroids {
		cents[c] = scored{c, dist2(query, s.centroids[c])}
		rawWork += dim
	}
	sort.Slice(cents, func(i, j int) bool { return cents[i].d < cents[j].d })
	// Candidate list from the probed clusters, in deterministic order.
	var cands []int
	for p := 0; p < probes; p++ {
		cands = append(cands, s.clusters[cents[p].idx]...)
	}
	// Stage 2 (perforated): score the candidates.
	loop, err := perforation.NewLoop(s.rates[cfg], perforation.Interleave)
	if err != nil {
		loop, _ = perforation.NewLoop(0, perforation.Interleave)
	}
	var results []scored
	loop.Range(len(cands), func(i int) {
		idx := cands[i]
		results = append(results, scored{idx, dist2(query, s.db[idx])})
		rawWork += dim
	})
	sort.Slice(results, func(i, j int) bool { return results[i].d < results[j].d })
	k := topK
	if k > len(results) {
		k = len(results)
	}
	var sim float64
	for i := 0; i < k; i++ {
		sim += 1 / (1 + math.Sqrt(results[i].d))
	}
	if k > 0 {
		sim /= float64(k)
	}
	return sim, rawWork
}

// lossFor converts a configuration's mean similarity into raw loss against
// the default configuration on query q.
func (s *Searcher) lossFor(q int, sim float64) float64 {
	ref := s.refSim[q]
	if ref <= 0 {
		return 0
	}
	l := (ref - sim) / ref
	if l < 0 {
		l = 0
	}
	return l
}

// Name implements the App interface.
func (s *Searcher) Name() string { return name }

// Metric implements the App interface.
func (s *Searcher) Metric() string { return "similarity" }

// NumConfigs implements the App interface.
func (s *Searcher) NumConfigs() int { return numConfigs }

// DefaultConfig implements the App interface.
func (s *Searcher) DefaultConfig() int { return 0 }

// Period reports that Step walks the query pool batch queries at a time,
// so for iter >= 0, Step(cfg, iter) depends on iter only through
// iter mod Period().
func (*Searcher) Period() int { return queryPool / batch }

// Step implements the App interface: answer one batch of similarity
// queries.
func (s *Searcher) Step(cfg, iter int) (work, accuracy float64) {
	if cfg < 0 || cfg >= numConfigs {
		cfg = 0
	}
	if iter < 0 {
		iter = -iter
	}
	var raw, loss float64
	for b := 0; b < batch; b++ {
		q := (iter*batch + b) % queryPool
		sim, w := s.search(q, cfg)
		raw += w
		loss += s.lossFor(q, sim)
	}
	return s.work.Work(raw), s.acc.Accuracy(loss / batch)
}
