// Package knob is the PowerDial substrate (Hoffmann et al., ASPLOS'11): it
// turns an application's static parameters into dynamic knobs, enumerates
// the cross-product configuration space, profiles each configuration's
// speedup and accuracy on calibration inputs, and extracts the
// Pareto-optimal frontier of performance/accuracy trade-offs that
// JouleGuard's application accuracy optimiser searches (paper Eqn 6).
package knob

import (
	"fmt"
	"sort"
)

// Knob is one dynamically adjustable parameter with a discrete set of
// settings. Values carries the concrete parameter values in the order the
// application understands; the knob framework treats them opaquely.
type Knob struct {
	Name   string
	Values []float64
}

// Space is the cross-product of a set of knobs. Configurations are
// identified by a dense index in [0, Size()).
type Space struct {
	knobs []Knob
	size  int
}

// NewSpace builds a configuration space. Every knob must have at least one
// value.
func NewSpace(knobs ...Knob) (*Space, error) {
	if len(knobs) == 0 {
		return nil, fmt.Errorf("knob: space needs at least one knob")
	}
	size := 1
	for _, k := range knobs {
		if len(k.Values) == 0 {
			return nil, fmt.Errorf("knob: %q has no values", k.Name)
		}
		size *= len(k.Values)
	}
	return &Space{knobs: append([]Knob(nil), knobs...), size: size}, nil
}

// Size returns the number of configurations in the space.
func (s *Space) Size() int { return s.size }

// Settings decodes configuration id into one value per knob, in knob order.
func (s *Space) Settings(id int) ([]float64, error) {
	if id < 0 || id >= s.size {
		return nil, fmt.Errorf("knob: config %d out of range [0,%d)", id, s.size)
	}
	out := make([]float64, len(s.knobs))
	for i, k := range s.knobs {
		out[i] = k.Values[id%len(k.Values)]
		id /= len(k.Values)
	}
	return out, nil
}

// Index encodes per-knob value indices into a configuration id.
func (s *Space) Index(valueIdx []int) (int, error) {
	if len(valueIdx) != len(s.knobs) {
		return 0, fmt.Errorf("knob: got %d indices for %d knobs", len(valueIdx), len(s.knobs))
	}
	id := 0
	mult := 1
	for i, k := range s.knobs {
		if valueIdx[i] < 0 || valueIdx[i] >= len(k.Values) {
			return 0, fmt.Errorf("knob: %q index %d out of range", k.Name, valueIdx[i])
		}
		id += valueIdx[i] * mult
		mult *= len(k.Values)
	}
	return id, nil
}

// Point is one profiled configuration: its id in the Space, its speedup
// relative to the default configuration, and its accuracy (1 = full
// accuracy, following the paper's normalisation in Sec. 4.1).
type Point struct {
	Config   int
	Speedup  float64
	Accuracy float64
}

// Profile holds profiling results for every configuration of a space.
type Profile struct {
	Points []Point
}

// Frontier is the Pareto-optimal subset of a profile sorted by ascending
// speedup: no retained configuration is dominated (another configuration at
// least as fast and strictly more accurate, or faster and at least as
// accurate). Along the frontier, accuracy is non-increasing in speedup.
type Frontier struct {
	points []Point // ascending speedup, non-increasing accuracy
}

// NewFrontier extracts the Pareto frontier from profiled points. The
// returned frontier always contains at least one point (the best-accuracy
// configuration).
func NewFrontier(prof *Profile) (*Frontier, error) {
	if prof == nil || len(prof.Points) == 0 {
		return nil, fmt.Errorf("knob: empty profile")
	}
	pts := append([]Point(nil), prof.Points...)
	// Sort by descending accuracy, then descending speedup, so a linear
	// sweep retaining strictly increasing speedups yields the frontier.
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Accuracy != pts[j].Accuracy {
			return pts[i].Accuracy > pts[j].Accuracy
		}
		return pts[i].Speedup > pts[j].Speedup
	})
	var front []Point
	bestSpeed := 0.0
	for _, pt := range pts {
		if pt.Speedup > bestSpeed {
			front = append(front, pt)
			bestSpeed = pt.Speedup
		}
	}
	// front is in descending accuracy = ascending speedup order already.
	sort.Slice(front, func(i, j int) bool { return front[i].Speedup < front[j].Speedup })
	return &Frontier{points: front}, nil
}

// Points returns the frontier points in ascending speedup order.
func (f *Frontier) Points() []Point { return append([]Point(nil), f.points...) }

// Len returns the number of frontier configurations.
func (f *Frontier) Len() int { return len(f.points) }

// MaxSpeedup returns the largest achievable speedup.
func (f *Frontier) MaxSpeedup() float64 { return f.points[len(f.points)-1].Speedup }

// MinSpeedup returns the smallest frontier speedup (usually ~1).
func (f *Frontier) MinSpeedup() float64 { return f.points[0].Speedup }

// ForSpeedup implements Eqn 6: the highest-accuracy configuration whose
// speedup meets or exceeds s. Because frontier accuracy is non-increasing
// in speedup, that is the first point with Speedup >= s, found by binary
// search (the implementation detail Sec. 5.1 credits for the runtime's low
// overhead). If s exceeds every frontier speedup the fastest configuration
// is returned along with ok = false, signalling an infeasible demand
// (Sec. 3.4.3).
func (f *Frontier) ForSpeedup(s float64) (Point, bool) {
	i := sort.Search(len(f.points), func(i int) bool { return f.points[i].Speedup >= s })
	if i == len(f.points) {
		return f.points[len(f.points)-1], false
	}
	return f.points[i], true
}

// SpeedupOf returns the speedup of the frontier point with the given
// configuration id, and whether the id is on the frontier. Callers use
// it to value feedback by the configuration that actually ran, which —
// when actuation is verified by readback — may differ from the one that
// was requested.
func (f *Frontier) SpeedupOf(config int) (float64, bool) {
	for _, p := range f.points {
		if p.Config == config {
			return p.Speedup, true
		}
	}
	return 0, false
}
