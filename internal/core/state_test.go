package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"

	"jouleguard/internal/ckpt"
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
// and flat-priors ablations still measure what they measured. The hashes
// are of version-1 blobs: 150 iterations draw fewer than ringLen words, so
// the version-2 blob carries no register and differs only in its version
// byte and checksum, which the test puts back before hashing.
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
		if gov.rng.draws >= ringLen {
			t.Fatalf("%s: %d draws fill the register; the version-1 golden no longer applies", tc.name, gov.rng.draws)
		}
		got := [2]uint64{fnv1a(asVersion1(gov.MarshalState())), fnv1a(decisions)}
		if want := stateGolden[tc.name]; got != want {
			t.Errorf("%s: checkpoint and decision hashes {%#x, %#x}, want {%#x, %#x}",
				tc.name, got[0], got[1], want[0], want[1])
		}
	}
}

// asVersion1 reframes a blob without a register as version 1 wrote it.
func asVersion1(blob []byte) []byte {
	body := bytes.Clone(blob[:len(blob)-4])
	body[2] = 1
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
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

// TestCountedSourceIsMathRand pins the generator to math/rand's stream,
// word for word, from the register its own seeding writes through the
// point where every word of it has been replaced by an output: for seeds
// math/rand folds in every way (zero, negative, past 2^31, the modulus
// itself and its multiples) and for 10^4 random seeds.
func TestCountedSourceIsMathRand(t *testing.T) {
	edges := []int64{0, 1, -1, 7, 1<<31 - 2, 1<<31 - 1, 1 << 31, 2 * (1<<31 - 1), -(1<<31 - 1), 1 << 40, math.MinInt64, math.MaxInt64}
	for _, seed := range edges {
		got, want := newCountedSource(seed), rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 3*ringLen+10; i++ {
			if i%3 == 0 {
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d, word %d: Int63 %d, math/rand %d", seed, i, g, w)
				}
			} else if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d, word %d: Uint64 %d, math/rand %d", seed, i, g, w)
			}
		}
		got.Seed(seed + 1)
		want.Seed(seed + 1)
		for i := 0; i < ringLen+5; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("reseeded %d, word %d: %d, math/rand %d", seed+1, i, g, w)
			}
		}
	}
	seeds := rand.New(rand.NewSource(99))
	got, want := newCountedSource(0), rand.NewSource(0).(rand.Source64)
	for range 10_000 {
		seed := int64(seeds.Uint64())
		got.Seed(seed)
		want.Seed(seed)
		for i := 0; i < 3*ringLen; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d, word %d: %d, math/rand %d", seed, i, g, w)
			}
		}
	}
}

// FuzzCountedSource holds the generator to math/rand's stream for any
// seed and length, through a checkpoint cut anywhere in it: the source
// restored at the cut, from either blob version, goes on with the words
// the uninterrupted math/rand source draws.
func FuzzCountedSource(f *testing.F) {
	f.Add(int64(1), uint16(10), uint16(3))
	f.Add(int64(0), uint16(3*ringLen), uint16(ringLen))
	f.Add(int64(0), uint16(3*ringLen+1), uint16(ringLen))
	f.Add(int64(-1), uint16(2*ringLen), uint16(ringLen-1))
	f.Add(int64(-1), uint16(2*ringLen+1), uint16(ringLen-1))
	f.Add(int64(1<<31-1), uint16(5001), uint16(4000))
	f.Fuzz(func(t *testing.T, seed int64, draws, cut uint16) {
		cut %= draws + 1
		want := rand.NewSource(seed).(rand.Source64)
		orig := newCountedSource(seed)
		for i := uint16(0); i < cut; i++ {
			if g, w := orig.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d, word %d: %d, math/rand %d", seed, i, g, w)
			}
		}
		version := byte(1 + draws%2)
		enc := ckpt.NewEnc(nil, 'T', version)
		if version >= 2 {
			orig.encode(enc)
		}
		d, err := ckpt.Open(enc.Seal(), 'T')
		if err != nil {
			t.Fatal(err)
		}
		rest := newCountedSource(seed)
		rest.decode(d, orig.draws)
		if err := d.Close(); err != nil {
			t.Fatalf("seed %d, cut %d, version %d: %v", seed, cut, version, err)
		}
		for i := cut; i < draws; i++ {
			if g, w := rest.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d, cut %d, version %d: word %d is %d, math/rand %d", seed, cut, version, i, g, w)
			}
		}
	})
}

// TestRegisterRestoresWithoutSteps is what the version-2 blob buys: a
// source restored from its register steps through no words at all,
// however far into the stream it stands, and its next 10,000 words are
// the uninterrupted source's. A version-1 blob, which has no register,
// restores the same stream by stepping a fresh source to the position.
func TestRegisterRestoresWithoutSteps(t *testing.T) {
	const seed, next = 42, 10_000
	for _, pos := range []uint64{0, 1, ringLen - 1, ringLen, ringLen + 1, 2*ringLen + 5, 10_003, 1_000_000} {
		orig := newCountedSource(seed)
		for orig.draws < pos {
			orig.Uint64()
		}
		for _, version := range []byte{1, 2} {
			enc := ckpt.NewEnc(nil, 'T', version)
			if version >= 2 {
				orig.encode(enc)
			}
			d, err := ckpt.Open(enc.Seal(), 'T')
			if err != nil {
				t.Fatal(err)
			}
			rest := newCountedSource(seed)
			rest.decode(d, pos)
			if err := d.Close(); err != nil {
				t.Fatalf("position %d, version %d: %v", pos, version, err)
			}
			wantSteps := pos
			if version >= 2 && pos >= ringLen {
				wantSteps = 0
			}
			if rest.skipped != wantSteps {
				t.Errorf("position %d, version %d: restore stepped through %d words, want %d", pos, version, rest.skipped, wantSteps)
			}
			ref := rand.NewSource(seed).(rand.Source64)
			for i := uint64(0); i < pos; i++ {
				ref.Uint64()
			}
			for i := 0; i < next; i++ {
				if g, w := rest.Uint64(), ref.Uint64(); g != w {
					t.Fatalf("position %d, version %d: word %d after the restore is %d, uninterrupted %d", pos, version, i, g, w)
				}
			}
		}
	}
}

// TestRuntimeCheckpointCarriesRegister runs a runtime until its stream
// is well past the register's fill, checkpoints it, and restores it
// without stepping through a single word; the restored runtime then makes
// the original's decisions. A position the iteration count cannot
// explain is refused in either blob version.
func TestRuntimeCheckpointCarriesRegister(t *testing.T) {
	f := testFrontier(t)
	const arms, total = 12, 20_000
	w := newFakeWorld(arms)
	build := func() *Runtime {
		gov, err := New(total, 60, f, arms, optimisticPriors(w), arms-1, Options{Seed: 7, Selector: SelectFixedEps, FixedEpsilon: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		return gov
	}
	orig := build()
	for orig.rng.draws < 3*ringLen {
		if orig.iters >= total/2 {
			t.Fatalf("%d iterations drew only %d words", orig.iters, orig.rng.draws)
		}
		w.step(orig, f)
	}
	blob := orig.MarshalState()

	rest := build()
	if err := rest.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if rest.rng.skipped != 0 {
		t.Errorf("restore at stream position %d stepped through %d words", orig.rng.draws, rest.rng.skipped)
	}
	if again := rest.MarshalState(); !bytes.Equal(again, blob) {
		t.Fatal("restored runtime re-marshals to different bytes")
	}
	for i := 0; i < 500; i++ {
		fb := w.step(orig, f)
		a, s := rest.Decide(fb.Iter)
		if a != fb.AppConfig || s != fb.SysConfig {
			t.Fatalf("decision %d after the restore diverged: (%d,%d), original (%d,%d)", i, a, s, fb.AppConfig, fb.SysConfig)
		}
		rest.Observe(fb)
	}

	// Word 4 of the body is the stream position (workload, budget,
	// frontier length and seed come first).
	for _, version := range []byte{1, 2} {
		body := bytes.Clone(blob[:len(blob)-4])
		if version == 1 {
			body = body[:len(body)-8*ringLen]
		}
		body[2] = version
		binary.LittleEndian.PutUint64(body[3+8*4:], 1<<40)
		forged := binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
		if err := build().RestoreState(forged); err == nil || !strings.Contains(err.Error(), "implausible") {
			t.Errorf("version %d blob at stream position 2^40 after %d iterations: %v, want an implausible-position refusal", version, orig.iters, err)
		}
	}
}

// BenchmarkSeed is what a session's random source costs to seed; every
// registration pays it once.
func BenchmarkSeed(b *testing.B) {
	c := newCountedSource(1)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		c.Seed(int64(i))
	}
}
