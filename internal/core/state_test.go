package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"hash/fnv"
	"math/rand"
	"testing"

	"jouleguard/internal/learning"
	"jouleguard/internal/sim"
)

// stateCases are the Options combinations New accepts that change what a
// checkpoint holds: each estimator family under each exploration policy,
// plus the controller and prior variants.
var stateCases = []struct {
	name string
	opts Options
}{
	{"paper", Options{Seed: 7}},
	{"kalman", Options{Seed: 7, KalmanEstimator: true}},
	{"fixed-eps", Options{Seed: 7, Selector: SelectFixedEps, FixedEpsilon: 0.2}},
	{"ucb", Options{Seed: 7, Selector: SelectUCB}},
	{"kalman-ucb", Options{Seed: 7, Selector: SelectUCB, KalmanEstimator: true}},
	{"kalman-fixed-eps", Options{Seed: 7, Selector: SelectFixedEps, FixedEpsilon: 0.1, KalmanEstimator: true}},
	{"fixed-pole-flat-priors", Options{Seed: 7, FixedPole: 0.3, FixedPoleSet: true, FlatPriors: true, Alpha: 0.5}},
}

// TestStateRoundTrip checkpoints a runtime mid-run under every Options
// combination, restores it into a fresh one, and drives both on: every
// decision and the final states must match exactly.
func TestStateRoundTrip(t *testing.T) {
	f := testFrontier(t)
	const arms, cut, total = 12, 150, 400
	for _, tc := range stateCases {
		t.Run(tc.name, func(t *testing.T) {
			w := newFakeWorld(arms)
			build := func() *Runtime {
				gov, err := New(total, 60, f, arms, optimisticPriors(w), arms-1, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				return gov
			}
			orig := build()
			for i := 0; i < cut; i++ {
				fb := w.step(orig, f)
				if i%17 == 3 {
					// Rejected feedback moves the watchdog counters too.
					fb.Estimated = true
					orig.Observe(fb)
				}
			}
			blob := orig.MarshalState()

			rest := build()
			if err := rest.RestoreState(blob); err != nil {
				t.Fatal(err)
			}
			if again := rest.MarshalState(); !bytes.Equal(again, blob) {
				t.Fatalf("restored state re-marshals to %d bytes that differ from the %d restored", len(again), len(blob))
			}
			for i := cut; i < total; i++ {
				fb := w.step(orig, f)
				a, s := rest.Decide(fb.Iter)
				if a != fb.AppConfig || s != fb.SysConfig {
					t.Fatalf("decision %d diverged: restored (%d,%d), original (%d,%d)", i, a, s, fb.AppConfig, fb.SysConfig)
				}
				rest.Observe(fb)
			}
			if a, b := orig.MarshalState(), rest.MarshalState(); !bytes.Equal(a, b) {
				t.Fatal("final states differ")
			}
		})
	}
}

// TestRestoreStateRejects pins the refusals: damage of any kind, a
// runtime built differently from the one checkpointed, and a runtime
// that has already run.
func TestRestoreStateRejects(t *testing.T) {
	f := testFrontier(t)
	w := newFakeWorld(8)
	build := func(opts Options, budget float64) *Runtime {
		gov, err := New(200, budget, f, 8, optimisticPriors(w), 7, opts)
		if err != nil {
			t.Fatal(err)
		}
		return gov
	}
	orig := build(Options{Seed: 3}, 40)
	for i := 0; i < 60; i++ {
		w.step(orig, f)
	}
	blob := orig.MarshalState()

	for n := 0; n < len(blob); n++ {
		if err := build(Options{Seed: 3}, 40).RestoreState(blob[:n]); err == nil {
			t.Fatalf("restored from the first %d of %d bytes", n, len(blob))
		}
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		bad := bytes.Clone(blob)
		bad[rng.Intn(len(bad))] ^= 1 << rng.Intn(8)
		if err := build(Options{Seed: 3}, 40).RestoreState(bad); err == nil {
			t.Fatal("restored from a blob with a flipped bit")
		}
	}
	// An intact checksum over a wrong answer: the bandit's recorded best
	// arms (words 8 and 9 of the body: five runtime words, then arm count,
	// estimator tag and total pulls come first) are checked against the
	// restored estimates, not trusted.
	for _, word := range []int{8, 9} {
		body := bytes.Clone(blob[:len(blob)-4])
		at := body[3+8*word:]
		binary.LittleEndian.PutUint64(at, binary.LittleEndian.Uint64(at)^1)
		forged := binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
		if err := build(Options{Seed: 3}, 40).RestoreState(forged); err == nil {
			t.Errorf("restored a resealed blob whose word %d names another best arm", word)
		}
	}
	for name, other := range map[string]*Runtime{
		"seed":      build(Options{Seed: 4}, 40),
		"budget":    build(Options{Seed: 3}, 41),
		"estimator": build(Options{Seed: 3, KalmanEstimator: true}, 40),
		"selector":  build(Options{Seed: 3, Selector: SelectUCB}, 40),
	} {
		if err := other.RestoreState(blob); err == nil {
			t.Errorf("restored into a runtime with a different %s", name)
		}
	}
	used := build(Options{Seed: 3}, 40)
	used.Observe(sim.Feedback{Duration: 1, Power: 1, Energy: 1, IterationsDone: 1})
	if err := used.RestoreState(blob); err == nil {
		t.Error("restored into a runtime that had already observed feedback")
	}
}

// stateGolden holds, per stateCases entry, the FNV-1a hash of the checkpoint
// a fixed 150-iteration history leaves and of the decisions that led to it,
// as the runtime produced them while every arm's filters were heap objects
// of their own. The estimator bank and the prior table must reproduce both
// to the bit under every estimator family, selector and prior variant: a
// checkpoint written before they existed restores after, and the Kalman
// and flat-priors ablations still measure what they measured.
var stateGolden = map[string][2]uint64{
	"paper":                  {0x6c58611e7e442d8f, 0x770632765fb8139a},
	"kalman":                 {0x363be8e10e63b77d, 0x73d02625f5eac5cc},
	"fixed-eps":              {0xfaa4076b45af2bf3, 0x770632765fb8139a},
	"ucb":                    {0xcad8f0d1ac76402f, 0x770632765fb8139a},
	"kalman-ucb":             {0x1e33619cc79a272e, 0x73d02625f5eac5cc},
	"kalman-fixed-eps":       {0x485b5dbf54e4f202, 0x73d02625f5eac5cc},
	"fixed-pole-flat-priors": {0x930fe996230f81be, 0xf34ee17624d7d26e},
}

func TestStateMatchesPerArmEstimators(t *testing.T) {
	f := testFrontier(t)
	const arms, cut, total = 12, 150, 400
	for _, tc := range stateCases {
		w := newFakeWorld(arms)
		gov, err := New(total, 60, f, arms, optimisticPriors(w), arms-1, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		var decisions []byte
		for i := 0; i < cut; i++ {
			fb := w.step(gov, f)
			decisions = append(decisions, byte(fb.AppConfig), byte(fb.SysConfig))
		}
		got := [2]uint64{fnv1a(gov.MarshalState()), fnv1a(decisions)}
		if want := stateGolden[tc.name]; got != want {
			t.Errorf("%s: checkpoint and decision hashes {%#x, %#x}, want {%#x, %#x}",
				tc.name, got[0], got[1], want[0], want[1])
		}
	}
}

func fnv1a(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// TestRuntimesShareAPriorTable pins what a testbed relies on when it hands
// every registration the same tabulated priors: a runtime built from the
// table is the runtime built from the model it tabulates, and a busy
// sibling built from the same table leaves it so.
func TestRuntimesShareAPriorTable(t *testing.T) {
	f := testFrontier(t)
	const arms, steps = 12, 150
	for _, tc := range stateCases {
		model := optimisticPriors(newFakeWorld(arms))
		table, err := learning.Tabulate(arms, model)
		if err != nil {
			t.Fatal(err)
		}
		run := func(priors learning.Priors) []byte {
			gov, err := New(400, 60, f, arms, priors, arms-1, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			w := newFakeWorld(arms)
			for i := 0; i < steps; i++ {
				w.step(gov, f)
			}
			return gov.MarshalState()
		}
		want := run(model)
		if first, second := run(table), run(table); !bytes.Equal(first, want) || !bytes.Equal(second, want) {
			t.Errorf("%s: runtimes built from one prior table do not reproduce the untabulated run", tc.name)
		}
	}
}
