// Package streamcluster is the online-clustering benchmark built with Loop
// Perforation (paper Table 2: 7 configurations, max speedup 5.52, max
// accuracy loss 0.55%, metric "quality of clustering"). Each iteration
// clusters a fresh batch of points drawn from a Gaussian mixture with a
// k-median-style iterative refinement; perforation subsamples the points
// used to update the centers. Clustering cost (sum of distances to the
// nearest center, evaluated over all points) measures quality — robust to
// subsampling, which is why this benchmark shows the paper's smallest
// accuracy loss at a large speedup.
package streamcluster

import (
	"math"

	"jouleguard/internal/apps/kernel"
	"jouleguard/internal/perforation"
)

const (
	name        = "streamcluster"
	points      = 256
	dim         = 8
	k           = 8
	refineIters = 3
	numConfigs  = 7
	targetSpeed = 5.52
	targetLoss  = 0.0055
	instances   = 16
	calibIters  = 8
)

// Clusterer implements the App interface.
type Clusterer struct {
	rates   []float64
	refCost []float64 // default-config clustering cost per instance
	work    kernel.WorkScale
	acc     kernel.AccuracyScale
}

// New constructs and calibrates the clusterer.
func New() *Clusterer {
	maxRate := 1 - 1/targetSpeed
	rates, err := perforation.RateLadder(numConfigs, maxRate)
	if err != nil {
		panic(err)
	}
	c := &Clusterer{rates: rates, refCost: make([]float64, instances)}
	for inst := 0; inst < instances; inst++ {
		cost, _ := c.cluster(inst, 0)
		c.refCost[inst] = cost
	}
	var rawDef, rawFast, lossFast float64
	for it := 0; it < calibIters; it++ {
		inst := it % instances
		_, wd := c.cluster(inst, 0)
		costF, wf := c.cluster(inst, numConfigs-1)
		rawDef += wd
		rawFast += wf
		if ref := c.refCost[inst]; ref > 0 {
			l := costF/ref - 1
			if l < 0 {
				l = 0
			}
			lossFast += l
		}
	}
	c.work = kernel.NewWorkScale(rawDef/calibIters, rawFast/calibIters, targetSpeed)
	c.acc = kernel.NewAccuracyScale(lossFast/calibIters, targetLoss)
	return c
}

// makePoints generates the point batch for an instance: a mixture of k
// Gaussians with uneven weights.
func makePoints(inst int) [][dim]float64 {
	rng := kernel.RNG(name+"-points", inst)
	var centers [k][dim]float64
	for c := range centers {
		for d := 0; d < dim; d++ {
			centers[c][d] = rng.NormFloat64() * 6
		}
	}
	pts := make([][dim]float64, points)
	for i := range pts {
		c := rng.Intn(k)
		for d := 0; d < dim; d++ {
			pts[i][d] = centers[c][d] + rng.NormFloat64()
		}
	}
	return pts
}

func dist2(a, b [dim]float64) float64 {
	var s float64
	for d := 0; d < dim; d++ {
		diff := a[d] - b[d]
		s += diff * diff
	}
	return s
}

// cluster runs the k-median refinement on instance inst with the given
// perforation config and returns the final clustering cost (over all
// points, not counted as work) and the raw work (distance evaluations in
// the refinement itself).
func (c *Clusterer) cluster(inst, cfg int) (cost, rawWork float64) {
	pts := makePoints(inst)
	loop, err := perforation.NewLoop(c.rates[cfg], perforation.Interleave)
	if err != nil {
		loop, _ = perforation.NewLoop(0, perforation.Interleave)
	}
	var centers [k][dim]float64
	for i := 0; i < k; i++ {
		centers[i] = pts[i*(points/k)] // deterministic spread seeding
	}
	for it := 0; it < refineIters; it++ {
		var sums [k][dim]float64
		var counts [k]int
		loop.Range(points, func(i int) {
			best, bestD := 0, math.Inf(1)
			for ci := 0; ci < k; ci++ {
				if d := dist2(pts[i], centers[ci]); d < bestD {
					best, bestD = ci, d
				}
				rawWork += dim
			}
			for d := 0; d < dim; d++ {
				sums[best][d] += pts[i][d]
			}
			counts[best]++
		})
		for ci := 0; ci < k; ci++ {
			if counts[ci] == 0 {
				continue // keep the old center for an empty cluster
			}
			for d := 0; d < dim; d++ {
				centers[ci][d] = sums[ci][d] / float64(counts[ci])
			}
		}
	}
	// Quality: cost over every point (metric evaluation, not app work).
	for i := range pts {
		bestD := math.Inf(1)
		for ci := 0; ci < k; ci++ {
			if d := dist2(pts[i], centers[ci]); d < bestD {
				bestD = d
			}
		}
		cost += math.Sqrt(bestD)
	}
	return cost, rawWork
}

// Name implements the App interface.
func (c *Clusterer) Name() string { return name }

// Metric implements the App interface.
func (c *Clusterer) Metric() string { return "quality of clustering" }

// NumConfigs implements the App interface.
func (c *Clusterer) NumConfigs() int { return numConfigs }

// DefaultConfig implements the App interface.
func (c *Clusterer) DefaultConfig() int { return 0 }

// Step implements the App interface: cluster one point batch.
func (c *Clusterer) Step(cfg, iter int) (work, accuracy float64) {
	if cfg < 0 || cfg >= numConfigs {
		cfg = 0
	}
	if iter < 0 {
		iter = -iter
	}
	inst := iter % instances
	cost, raw := c.cluster(inst, cfg)
	ref := c.refCost[inst]
	var loss float64
	if ref > 0 {
		loss = cost/ref - 1
		if loss < 0 {
			loss = 0
		}
	}
	return c.work.Work(raw), c.acc.Accuracy(loss)
}
