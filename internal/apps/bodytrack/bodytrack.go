// Package bodytrack is the image-analysis tracking benchmark (paper Table
// 2: 200 configurations, max speedup 7.38, max accuracy loss 14.4%, metric
// "track quality"). The real PARSEC bodytrack follows a person through a
// scene with an annealed particle filter; PowerDial exposes the particle
// count and the number of annealing layers as knobs. This kernel is a
// faithful miniature: an annealed particle filter tracks a smooth 2D
// trajectory through noisy observations, and track quality is the inverse
// tracking error against ground truth.
package bodytrack

import (
	"math"
	"math/rand"

	"jouleguard/internal/apps/kernel"
	"jouleguard/internal/knob"
)

const (
	name                = "bodytrack"
	numLayers           = 4
	numParticleSettings = 50
	maxParticles        = 400
	minParticles        = 217 // maxParticles*numLayers/minParticles = Table 2 speedup
	segSteps            = 6   // tracked frames per Step
	obsNoise            = 2.0
	procNoise           = 1.0
	targetSpeed         = 7.38
	targetLoss          = 0.144
	calibIters          = 16
)

// Tracker implements the App interface. Its caches compute each value
// once, so Step is safe for concurrent use by parallel experiment sweeps.
type Tracker struct {
	space     *knob.Space
	particles []int
	defCfg    int
	defErr    kernel.OnceMap[int, float64] // default-config tracking error per iter
	segs      kernel.OnceMap[int, segment] // ground-truth segment per iter
	work      kernel.WorkScale
	acc       kernel.AccuracyScale
}

// New constructs and calibrates the tracker.
func New() *Tracker {
	particles := kernel.GeometricInts(maxParticles, minParticles, numParticleSettings)
	pv := make([]float64, len(particles))
	for i, p := range particles {
		pv[i] = float64(p)
	}
	space, err := knob.NewSpace(
		knob.Knob{Name: "particles", Values: pv},
		knob.Knob{Name: "layers", Values: []float64{4, 3, 2, 1}},
	)
	if err != nil {
		panic(err)
	}
	def, err := space.Index([]int{0, 0}) // 400 particles, 4 layers
	if err != nil {
		panic(err)
	}
	t := &Tracker{space: space, particles: particles, defCfg: def}
	rawDef := float64(maxParticles * numLayers * segSteps)
	rawFast := float64(minParticles * 1 * segSteps)
	t.work = kernel.NewWorkScale(rawDef, rawFast, targetSpeed)
	fast, err := space.Index([]int{numParticleSettings - 1, numLayers - 1})
	if err != nil {
		panic(err)
	}
	losses := make([]float64, calibIters)
	for it := 0; it < calibIters; it++ {
		losses[it] = t.rawLoss(fast, it)
	}
	t.acc = kernel.NewAccuracyScale(kernel.MeanAbs(losses), targetLoss)
	return t
}

// detections per tracked frame: the true body plus clutter (other people,
// shadows) the filter must not lock onto — the failure mode that makes
// particle count and annealing depth matter, exactly as in real bodytrack.
const clutter = 2

// segment holds one iteration's ground truth and detections.
type segment struct {
	truth [segSteps][2]float64
	dets  [segSteps][clutter + 1][2]float64
}

// makeSegment generates the trajectory segment for an iteration: a smooth
// arc with process noise, observed as a noisy detection plus clutter
// detections offset a body-width or two away.
func makeSegment(iter int) segment {
	rng := kernel.RNG(name+"-traj", iter)
	var s segment
	x := rng.Float64() * 40
	y := rng.Float64() * 40
	heading := rng.Float64() * 2 * math.Pi
	turn := (rng.Float64() - 0.5) * 0.4
	speed := 2 + rng.Float64()*2
	for i := 0; i < segSteps; i++ {
		heading += turn
		x += speed*math.Cos(heading) + procNoise*rng.NormFloat64()*0.3
		y += speed*math.Sin(heading) + procNoise*rng.NormFloat64()*0.3
		s.truth[i] = [2]float64{x, y}
		s.dets[i][0] = [2]float64{x + obsNoise*rng.NormFloat64(), y + obsNoise*rng.NormFloat64()}
		for c := 1; c <= clutter; c++ {
			ang := rng.Float64() * 2 * math.Pi
			r := 4 + 6*rng.Float64()
			s.dets[i][c] = [2]float64{
				x + r*math.Cos(ang) + obsNoise*rng.NormFloat64(),
				y + r*math.Sin(ang) + obsNoise*rng.NormFloat64(),
			}
		}
	}
	return s
}

// run executes the annealed particle filter and returns the mean tracking
// error against ground truth.
func run(seg segment, nParticles, layers int, rng *rand.Rand) float64 {
	px := make([]float64, nParticles)
	py := make([]float64, nParticles)
	wts := make([]float64, nParticles)
	// Scratch buffers for resampling, reused across layers to keep the
	// inner loop allocation-free.
	npx := make([]float64, nParticles)
	npy := make([]float64, nParticles)
	for i := range px {
		// Broad initialisation: the first frame's identity is ambiguous.
		d := seg.dets[0][i%(clutter+1)]
		px[i] = d[0] + 2*rng.NormFloat64()
		py[i] = d[1] + 2*rng.NormFloat64()
	}
	// The likelihood of a particle is the best match over all detections,
	// weighted by temporal consistency with the particle's previous
	// position — clutter is uncorrelated frame to frame, so particles that
	// follow the true body accumulate weight.
	var totalErr float64
	for t := 0; t < segSteps; t++ {
		// Annealing layers: successively sharper likelihoods with shrinking
		// diffusion, as in the real annealed particle filter.
		for l := 0; l < layers; l++ {
			beta := math.Pow(2, float64(l)) / math.Pow(2, float64(layers-1))
			diffuse := procNoise * (2.5 - 2.0*float64(l)/float64(layers))
			var sum float64
			dets := &seg.dets[t]
			for i := range px {
				prevX, prevY := px[i], py[i]
				px[i] += diffuse * rng.NormFloat64()
				py[i] += diffuse * rng.NormFloat64()
				// Best match over detections. Exp is monotone and beta and
				// the 2*sigma^2 divisor are exact powers of two, so taking
				// the largest exponent and exponentiating once gives the
				// same weight as exponentiating each candidate.
				bestArg := math.Inf(-1)
				for c := 0; c <= clutter; c++ {
					dx, dy := px[i]-dets[c][0], py[i]-dets[c][1]
					if a := -beta * (dx*dx + dy*dy) / (2 * obsNoise * obsNoise); a > bestArg {
						bestArg = a
					}
				}
				best := math.Exp(bestArg)
				// Motion-consistency prior: discourage jumps.
				jx, jy := px[i]-prevX, py[i]-prevY
				wts[i] = best * math.Exp(-(jx*jx+jy*jy)/(2*25))
				sum += wts[i]
			}
			if sum <= 0 {
				for i := range wts {
					wts[i] = 1
				}
				sum = float64(len(wts))
			}
			// Systematic resampling.
			step := sum / float64(nParticles)
			u := rng.Float64() * step
			var cum float64
			j := 0
			for i := 0; i < nParticles; i++ {
				target := u + float64(i)*step
				for cum+wts[j] < target && j < nParticles-1 {
					cum += wts[j]
					j++
				}
				npx[i], npy[i] = px[j], py[j]
			}
			px, npx = npx, px
			py, npy = npy, py
		}
		var ex, ey float64
		for i := range px {
			ex += px[i]
			ey += py[i]
		}
		ex /= float64(nParticles)
		ey /= float64(nParticles)
		dx, dy := ex-seg.truth[t][0], ey-seg.truth[t][1]
		totalErr += math.Sqrt(dx*dx + dy*dy)
	}
	return totalErr / segSteps
}

// settings decodes a configuration id.
func (t *Tracker) settings(cfgID int) (nParticles, layers int) {
	vals, err := t.space.Settings(cfgID)
	if err != nil {
		vals, _ = t.space.Settings(t.defCfg)
	}
	return int(vals[0]), int(vals[1])
}

// segmentAt returns (and caches) the ground-truth segment for an
// iteration. Segments are pure functions of the iteration index, so every
// configuration profiled against the same input can share one.
func (t *Tracker) segmentAt(iter int) segment {
	return t.segs.Get(iter, func() segment { return makeSegment(iter) })
}

// defaultError returns (and caches) the default configuration's tracking
// error for an iteration.
func (t *Tracker) defaultError(iter int) float64 {
	return t.defErr.Get(iter, func() float64 {
		return run(t.segmentAt(iter), maxParticles, numLayers, kernel.RNG(name+"-pf", iter))
	})
}

// rawLoss is the relative tracking-error increase of cfg versus default.
func (t *Tracker) rawLoss(cfgID, iter int) float64 {
	// Common random numbers: every configuration consumes the same PF
	// stream, so differences in tracking error reflect the configuration,
	// not sampling luck.
	seg := t.segmentAt(iter)
	n, l := t.settings(cfgID)
	err := run(seg, n, l, kernel.RNG(name+"-pf", iter))
	ref := t.defaultError(iter)
	if ref <= 0 {
		return 0
	}
	loss := err/ref - 1
	if loss < 0 {
		loss = 0
	}
	return loss
}

// Name implements the App interface.
func (t *Tracker) Name() string { return name }

// Metric implements the App interface.
func (t *Tracker) Metric() string { return "track quality" }

// NumConfigs implements the App interface.
func (t *Tracker) NumConfigs() int { return t.space.Size() }

// DefaultConfig implements the App interface.
func (t *Tracker) DefaultConfig() int { return t.defCfg }

// Space exposes the knob space.
func (t *Tracker) Space() *knob.Space { return t.space }

// Step implements the App interface: track one trajectory segment.
func (t *Tracker) Step(cfgID, iter int) (work, accuracy float64) {
	if cfgID < 0 || cfgID >= t.space.Size() {
		cfgID = t.defCfg
	}
	if iter < 0 {
		iter = -iter
	}
	n, l := t.settings(cfgID)
	raw := float64(n * l * segSteps)
	return t.work.Work(raw), t.acc.Accuracy(t.rawLoss(cfgID, iter))
}
