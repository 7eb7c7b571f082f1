package apps

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jouleguard/internal/knob"
)

// sameBits reports whether two Step results are bit-identical.
func sameBits(w1, a1, w2, a2 float64) bool {
	return math.Float64bits(w1) == math.Float64bits(w2) && math.Float64bits(a1) == math.Float64bits(a2)
}

// TestPeriodHolds checks each kernel's Period claim on a fresh, unmemoised
// instance: Step(cfg, i) is bit-identical to Step(cfg, i+k*P) for every
// configuration, i in [0, 2P) and k in {1, 3}. The Step memo keys periodic
// kernels by iteration residue, so a wrong claim would replay the wrong
// input's result.
func TestPeriodHolds(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			a, err := constructors[name]()
			if err != nil {
				t.Fatal(err)
			}
			p, ok := a.(periodic)
			switch {
			case name == "bodytrack" || name == "x264":
				if ok {
					t.Fatalf("%s computes a fresh input per iteration; it must not claim Period %d", name, p.Period())
				}
				return
			case !ok:
				t.Fatalf("%s cycles through a fixed input pool but does not implement Period", name)
			}
			P := p.Period()
			if P <= 0 {
				t.Fatalf("Period() = %d", P)
			}
			for cfg := 0; cfg < a.NumConfigs(); cfg++ {
				for i := 0; i < 2*P; i++ {
					w, acc := a.Step(cfg, i)
					for _, k := range []int{1, 3} {
						if w2, acc2 := a.Step(cfg, i+k*P); !sameBits(w, acc, w2, acc2) {
							t.Fatalf("cfg %d: Step(%d) = (%v, %v) but Step(%d) = (%v, %v)", cfg, i, w, acc, i+k*P, w2, acc2)
						}
					}
				}
			}
		})
	}
}

// TestStepConcurrentMatchesSerial: four goroutines call every benchmark's
// memoised Step on overlapping keys, each in its own shuffled order,
// starting from cold caches; every value must be bit-identical to a
// serial pass over a fresh, unmemoised instance.
func TestStepConcurrentMatchesSerial(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			ref, err := constructors[name]()
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := constructors[name]()
			if err != nil {
				t.Fatal(err)
			}
			shared := memoizeSteps(fresh)
			type key struct{ cfg, iter int }
			n := ref.NumConfigs()
			cfgs := []int{ref.DefaultConfig(), 0, n - 1, n / 2, n / 3}
			// Iterations past one period and a negative one, so the residue
			// keys and the raw negative keys are both exercised.
			iters := []int{0, 1, 2, 5, 17, 18, 33, -3}
			var keys []key
			for _, c := range cfgs {
				for _, i := range iters {
					keys = append(keys, key{c, i})
				}
			}
			type result struct{ w, acc float64 }
			want := make(map[key]result, len(keys))
			for _, k := range keys {
				w, acc := ref.Step(k.cfg, k.iter)
				want[k] = result{w, acc}
			}
			var wg sync.WaitGroup
			start := make(chan struct{})
			for g := 0; g < 4; g++ {
				order := append([]key(nil), keys...)
				rand.New(rand.NewSource(int64(g))).Shuffle(len(order), func(i, j int) {
					order[i], order[j] = order[j], order[i]
				})
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for _, k := range order {
						w, acc := shared.Step(k.cfg, k.iter)
						if r := want[k]; !sameBits(w, acc, r.w, r.acc) {
							t.Errorf("Step(%d, %d) = (%v, %v) concurrently, (%v, %v) serially", k.cfg, k.iter, w, acc, r.w, r.acc)
						}
					}
				}()
			}
			close(start)
			wg.Wait()
		})
	}
}

// gateApp is a two-configuration App whose Step blocks until gate is
// closed (nil: never) and counts its calls.
type gateApp struct {
	name    string
	gate    chan struct{}
	entered chan struct{} // closed by the first Step
	once    sync.Once
	steps   atomic.Int64
}

func (g *gateApp) Name() string       { return g.name }
func (g *gateApp) NumConfigs() int    { return 2 }
func (g *gateApp) DefaultConfig() int { return 0 }
func (g *gateApp) Metric() string     { return "test" }
func (g *gateApp) Step(cfg, iter int) (float64, float64) {
	g.steps.Add(1)
	g.once.Do(func() { close(g.entered) })
	if g.gate != nil {
		<-g.gate
	}
	if cfg == 1 {
		return 1, 0.9
	}
	return 2, 1
}

// TestCalibrationDoesNotSerialiseOtherApps: while one application's
// calibration is stuck in Step, another application's CalibratedFrontier
// still returns — a cold daemon's first registrations of different apps
// do not queue behind each other — and two concurrent callers for the
// stuck application share its one calibration.
func TestCalibrationDoesNotSerialiseOtherApps(t *testing.T) {
	a := &gateApp{name: "a", gate: make(chan struct{}), entered: make(chan struct{})}
	b := &gateApp{name: "b", entered: make(chan struct{})}
	fa := make(chan *knob.Frontier, 2)
	for i := 0; i < 2; i++ {
		go func() {
			f, err := CalibratedFrontier(a)
			if err != nil {
				t.Error(err)
			}
			fa <- f
		}()
	}
	<-a.entered

	fb := make(chan error, 1)
	go func() {
		_, err := CalibratedFrontier(b)
		fb <- err
	}()
	select {
	case err := <-fb:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("CalibratedFrontier(b) waited for a's calibration")
	}

	close(a.gate)
	if f1, f2 := <-fa, <-fa; f1 == nil || f1 != f2 {
		t.Fatal("the two callers for a got different frontiers")
	}
	if got, want := a.steps.Load(), int64(a.NumConfigs()*CalibrationIters(a)); got != want {
		t.Fatalf("a's Step ran %d times, want %d (one calibration)", got, want)
	}
}

// countApp is an App whose Step returns its own arguments and counts its
// calls; with period > 0 it also claims that Period.
type countApp struct {
	steps  atomic.Int64
	period int
}

func (c *countApp) Name() string       { return "count" }
func (c *countApp) NumConfigs() int    { return 2 }
func (c *countApp) DefaultConfig() int { return 0 }
func (c *countApp) Metric() string     { return "test" }
func (c *countApp) Step(cfg, iter int) (float64, float64) {
	c.steps.Add(1)
	return float64(iter), float64(cfg)
}

type periodicCountApp struct{ *countApp }

func (p periodicCountApp) Period() int { return p.period }

// TestStepMemoKeysWholeIterations: the memo keys a kernel with no period
// by the whole (cfg, iter) pair, so iterations 2^32 apart, and an
// iteration at 2^31 and its negative, are distinct keys, each computed
// once; a periodic kernel's iterations still fold onto their residue,
// and its negative iterations keep their own keys.
func TestStepMemoKeysWholeIterations(t *testing.T) {
	raw := &countApp{}
	m := memoizeSteps(raw)
	for _, iter := range []int{0, 1 << 32, 1 << 31, -(1 << 31), 5, 5 + 1<<32} {
		for rep := 0; rep < 2; rep++ {
			if w, cfg := m.Step(1, iter); w != float64(iter) || cfg != 1 {
				t.Fatalf("Step(1, %d) = (%v, %v), want (%v, 1)", iter, w, cfg, float64(iter))
			}
		}
	}
	if got := raw.steps.Load(); got != 6 {
		t.Fatalf("6 distinct iterations took %d computations, want 6", got)
	}

	per := &countApp{period: 4}
	pm := memoizeSteps(periodicCountApp{per})
	for _, c := range []struct{ iter, residue int }{{1, 1}, {5, 1}, {1 + 4<<30, 1}, {3, 3}, {-1, -1}, {-5, -5}} {
		if w, _ := pm.Step(0, c.iter); w != float64(c.residue) {
			t.Fatalf("periodic Step(0, %d) = %v, want the residue's %v", c.iter, w, float64(c.residue))
		}
	}
	if got := per.steps.Load(); got != 4 {
		t.Fatalf("periodic kernel: %d computations, want 4 (residues 1 and 3, iterations -1 and -5)", got)
	}
}
