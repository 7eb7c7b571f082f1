// Customapp: plugging your own approximate application into JouleGuard.
//
// The App interface needs five methods; here we implement an "approximate
// image blur" whose knob is the kernel radius sampling rate. Accuracy is
// measured for real (output difference against the exact blur), exactly
// like the built-in benchmarks. Calibration measures configurations in
// parallel, so Step must be safe to call from several goroutines at once;
// Blur's only reads its inputs.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"jouleguard"
)

const (
	size      = 64 // image side
	radius    = 4  // blur radius
	numLevels = 5  // approximation levels: sample every 1st, 2nd, ... tap
)

// Blur is a user-defined approximate application.
type Blur struct {
	images [][]float64 // flattened size x size images, cycled by iteration
	refs   [][]float64 // exact blur outputs per image
}

// NewBlur generates deterministic input images and their exact outputs.
func NewBlur() *Blur {
	b := &Blur{}
	for i := 0; i < 8; i++ {
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		img := make([]float64, size*size)
		for p := range img {
			x, y := p%size, p/size
			img[p] = 128 + 80*math.Sin(float64(x)/7)*math.Cos(float64(y)/5) + 10*rng.NormFloat64()
		}
		b.images = append(b.images, img)
		out, _ := blur(img, 1)
		b.refs = append(b.refs, out)
	}
	return b
}

// blur applies a box blur sampling every `stride`-th tap, returning the
// output and the taps evaluated (the work).
func blur(img []float64, stride int) ([]float64, float64) {
	out := make([]float64, len(img))
	var work float64
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			var sum float64
			var n int
			for dy := -radius; dy <= radius; dy += stride {
				for dx := -radius; dx <= radius; dx += stride {
					xx, yy := x+dx, y+dy
					if xx < 0 || xx >= size || yy < 0 || yy >= size {
						continue
					}
					sum += img[yy*size+xx]
					n++
					work++
				}
			}
			out[y*size+x] = sum / float64(n)
		}
	}
	return out, work
}

// Name implements jouleguard.App.
func (b *Blur) Name() string { return "blur" }

// Metric implements jouleguard.App.
func (b *Blur) Metric() string { return "output PSNR" }

// NumConfigs implements jouleguard.App.
func (b *Blur) NumConfigs() int { return numLevels }

// DefaultConfig implements jouleguard.App: stride 1, the exact blur.
func (b *Blur) DefaultConfig() int { return 0 }

// Step implements jouleguard.App.
func (b *Blur) Step(cfg, iter int) (work, accuracy float64) {
	if cfg < 0 || cfg >= numLevels {
		cfg = 0
	}
	if iter < 0 {
		iter = -iter
	}
	img := b.images[iter%len(b.images)]
	ref := b.refs[iter%len(b.images)]
	out, w := blur(img, cfg+1)
	var mse float64
	for p := range out {
		d := out[p] - ref[p]
		mse += d * d
	}
	mse /= float64(len(out))
	// Accuracy: 1 at zero error, decaying with RMS error.
	return w, 1 / (1 + math.Sqrt(mse)/8)
}

func main() {
	// Tell the platform model how the app exercises hardware, then bind it
	// to a platform like any built-in benchmark.
	jouleguard.RegisterProfile(jouleguard.AppHardwareProfile{
		Name:          "blur",
		ParallelFrac:  0.97,
		MemFrac:       0.3,
		HTGain:        1.3,
		UnitsPerSpeed: 500000,
	})
	plat, err := jouleguard.PlatformByName("Tablet")
	if err != nil {
		log.Fatal(err)
	}
	tb, err := jouleguard.NewTestbedFrom(NewBlur(), plat)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("blur frontier (%d Pareto points, max speedup %.2fx):\n", tb.Frontier.Len(), tb.Frontier.MaxSpeedup())
	for _, p := range tb.Frontier.Points() {
		fmt.Printf("  config %d: speedup %.2fx, accuracy %.4f\n", p.Config, p.Speedup, p.Accuracy)
	}

	const iters = 600
	gov, err := tb.NewJouleGuard(1.8, iters, jouleguard.Options{})
	if err != nil {
		log.Fatal(err)
	}
	rec, err := tb.Run(gov, iters)
	if err != nil {
		log.Fatal(err)
	}
	goal := tb.DefaultEnergy / 1.8
	fmt.Printf("\ngoal %.4f J/iter -> achieved %.4f J/iter at accuracy %.4f\n",
		goal, rec.EnergyPerIterAvg(), rec.MeanAccuracy())
}
