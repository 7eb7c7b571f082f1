// Package canneal is the place-and-route benchmark built with Loop
// Perforation (paper Table 2: 3 configurations, max speedup 1.93, max
// accuracy loss 7.1%, metric "wire length"). Each iteration anneals a
// synthetic netlist onto a grid with simulated annealing; perforation
// skips a fraction of the annealing moves, finishing faster but settling
// on longer wires. The move-proposal stream is precomputed per iteration
// so a perforated run evaluates an exact subsequence of the default run's
// moves — the same semantics as perforating the canneal swap loop.
package canneal

import (
	"math"

	"jouleguard/internal/apps/kernel"
	"jouleguard/internal/perforation"
)

const (
	name        = "canneal"
	cells       = 48
	gridW       = 8
	gridH       = 8
	nets        = 64
	tempSteps   = 12
	movesPerT   = 100
	targetSpeed = 1.93
	targetLoss  = 0.071
	calibIters  = 6
	instances   = 16 // distinct netlists cycled by iteration
)

// perforation ladder: rate 0 (default), then geometric speedups to 1.93.
var rates = []float64{0, 0.28, 1 - 1/targetSpeed}

// net connects a set of cells; wire length is the half-perimeter of the
// bounding box of their placed locations.
type net []int

// proposal is one precomputed annealing move: swap the cells at two slots,
// with a uniform draw for the Metropolis acceptance test.
type proposal struct {
	a, b   int
	accept float64
}

// Annealer implements the App interface.
type Annealer struct {
	netlists  [][]net
	cellNets  [][][]int // instance -> cell -> indices of nets touching it
	proposals [][]proposal
	refWL     []float64 // default-config final wire length per instance
	work      kernel.WorkScale
	acc       kernel.AccuracyScale
}

// New builds the netlist instances, precomputes move streams, and
// calibrates to Table 2.
func New() *Annealer {
	a := &Annealer{
		netlists:  make([][]net, instances),
		cellNets:  make([][][]int, instances),
		proposals: make([][]proposal, instances),
		refWL:     make([]float64, instances),
	}
	for inst := 0; inst < instances; inst++ {
		rng := kernel.RNG(name+"-netlist", inst)
		nl := make([]net, nets)
		for n := range nl {
			deg := 2 + rng.Intn(3)
			m := make(net, deg)
			for i := range m {
				m[i] = rng.Intn(cells)
			}
			nl[n] = m
		}
		a.netlists[inst] = nl
		cn := make([][]int, cells)
		for ni, m := range nl {
			for _, c := range m {
				cn[c] = append(cn[c], ni)
			}
		}
		a.cellNets[inst] = cn
		props := make([]proposal, tempSteps*movesPerT)
		for i := range props {
			props[i] = proposal{
				a:      rng.Intn(gridW * gridH),
				b:      rng.Intn(gridW * gridH),
				accept: rng.Float64(),
			}
		}
		a.proposals[inst] = props
		wl, _ := a.anneal(inst, rates[0])
		a.refWL[inst] = wl
	}
	var rawDef, rawFast, lossFast float64
	for it := 0; it < calibIters; it++ {
		inst := it % instances
		_, wd := a.anneal(inst, rates[0])
		wlf, wf := a.anneal(inst, rates[len(rates)-1])
		rawDef += wd
		rawFast += wf
		if a.refWL[inst] > 0 {
			l := wlf/a.refWL[inst] - 1
			if l < 0 {
				l = 0
			}
			lossFast += l
		}
	}
	a.work = kernel.NewWorkScale(rawDef/calibIters, rawFast/calibIters, targetSpeed)
	a.acc = kernel.NewAccuracyScale(lossFast/calibIters, targetLoss)
	return a
}

// anneal runs simulated annealing on instance inst with the given
// perforation rate and returns the final wire length and the raw work
// (net-evaluation count).
func (a *Annealer) anneal(inst int, rate float64) (wireLength, rawWork float64) {
	// slot[i] = cell id or -1; cells placed row-major at start.
	slots := make([]int, gridW*gridH)
	pos := make([]int, cells)
	for i := range slots {
		slots[i] = -1
	}
	for c := 0; c < cells; c++ {
		slots[c] = c
		pos[c] = c
	}
	nl := a.netlists[inst]
	cn := a.cellNets[inst]
	netWL := func(ni int) float64 {
		minX, minY := math.Inf(1), math.Inf(1)
		maxX, maxY := math.Inf(-1), math.Inf(-1)
		for _, c := range nl[ni] {
			x, y := float64(pos[c]%gridW), float64(pos[c]/gridW)
			minX, maxX = math.Min(minX, x), math.Max(maxX, x)
			minY, maxY = math.Min(minY, y), math.Max(maxY, y)
		}
		return (maxX - minX) + (maxY - minY)
	}
	loop, err := perforation.NewLoop(rate, perforation.Interleave)
	if err != nil {
		loop, _ = perforation.NewLoop(0, perforation.Interleave)
	}
	props := a.proposals[inst]
	perTemp := len(props) / tempSteps
	temp := 3.0
	// Stamp-based touched-net dedup keeps the move loop allocation-free.
	stamp := make([]int, nets)
	touched := make([]int, 0, 16)
	move := 0
	for ts := 0; ts < tempSteps; ts++ {
		base := ts * perTemp
		loop.Range(perTemp, func(i int) {
			move++
			p := props[base+i]
			ca, cb := slots[p.a], slots[p.b]
			if ca < 0 && cb < 0 {
				return
			}
			// Delta = change in wire length of nets touching moved cells.
			touched = touched[:0]
			mark := func(c int) {
				if c < 0 {
					return
				}
				for _, ni := range cn[c] {
					if stamp[ni] != move {
						stamp[ni] = move
						touched = append(touched, ni)
					}
				}
			}
			mark(ca)
			mark(cb)
			var before float64
			for _, ni := range touched {
				before += netWL(ni)
				rawWork += float64(len(nl[ni]))
			}
			swap(slots, pos, p.a, p.b)
			var after float64
			for _, ni := range touched {
				after += netWL(ni)
				rawWork += float64(len(nl[ni]))
			}
			delta := after - before
			if delta > 0 && p.accept > math.Exp(-delta/temp) {
				swap(slots, pos, p.a, p.b) // reject: undo
			}
		})
		temp *= 0.7
	}
	for ni := range nl {
		wireLength += netWL(ni)
	}
	return wireLength, rawWork
}

// swap exchanges the contents of two slots and fixes the position index.
func swap(slots, pos []int, sa, sb int) {
	ca, cb := slots[sa], slots[sb]
	slots[sa], slots[sb] = cb, ca
	if ca >= 0 {
		pos[ca] = sb
	}
	if cb >= 0 {
		pos[cb] = sa
	}
}

// Name implements the App interface.
func (a *Annealer) Name() string { return name }

// Metric implements the App interface.
func (a *Annealer) Metric() string { return "wire length" }

// NumConfigs implements the App interface.
func (a *Annealer) NumConfigs() int { return len(rates) }

// DefaultConfig implements the App interface.
func (a *Annealer) DefaultConfig() int { return 0 }

// Period reports the number of netlists Step cycles through: for
// iter >= 0, Step(cfg, iter) depends on iter only through iter mod Period().
func (*Annealer) Period() int { return instances }

// Step implements the App interface: anneal one netlist instance.
func (a *Annealer) Step(cfg, iter int) (work, accuracy float64) {
	if cfg < 0 || cfg >= len(rates) {
		cfg = 0
	}
	if iter < 0 {
		iter = -iter
	}
	inst := iter % instances
	wl, raw := a.anneal(inst, rates[cfg])
	ref := a.refWL[inst]
	var loss float64
	if ref > 0 {
		loss = wl/ref - 1
		if loss < 0 {
			loss = 0
		}
	}
	return a.work.Work(raw), a.acc.Accuracy(loss)
}
