package core

import (
	"math"
	"math/rand"

	"jouleguard/internal/ckpt"
)

// Checkpointing. A Runtime's whole mutable state is small — the pulled
// arms' estimates, the exploration policy, the PI integrator, the
// watchdog counters and its random generator — and
// EncodeState appends it to the ckpt blob the online controller builds;
// DecodeState loads it into a Runtime freshly built by New with the same
// arguments. Everything New derives from its arguments (priors, gains,
// clamps, the frontier) is rebuilt, not restored; the blob carries the
// workload, budget, seed and table shapes only to refuse a runtime built
// differently.
//
// The round trip is exact: a restored Runtime makes, from the next
// Observe on, the decisions the original would have made, bit for bit,
// and EncodeState of the two is byte-equal.

// countedSource is the Runtime's random source, written so a checkpoint
// can carry the generator itself. The stream is math/rand's word for
// word: math/rand's source is an additive lagged-Fibonacci register,
// x[n] = x[n-607] + x[n-273], whose every output is stored back into the
// register, and countedSource owns that register from its first word.
//
// Seeding writes the register as math/rand's Seed does, bit for bit, but
// not as a chain: math/rand walks x[k] = 48271·x[k-1] mod (2^31-1) 1,841
// steps from the seed and folds three walk values and one constant of
// its own table (rngCooked) into each register word. The walk's k-th
// value is seed·48271^k mod (2^31-1), so against the powers tabulated
// once at init every value is one independent multiply, where math/rand
// divides 1,841 times in series. rngCooked is not exported; init recovers
// it from one math/rand seeding (see init below).
//
// From the ringLen-th draw on the register holds exactly the last 607
// outputs, and seed + draw count + register is the whole generator: a
// checkpoint loads it with no stepping, however long the session has
// run. Before that, and for a version-1 blob (which has no register), a
// restore re-seeds and discards draws words.
type countedSource struct {
	seed      int64
	draws     uint64
	tap, feed int // the register's indices, as math/rand keeps them
	ring      [ringLen]uint64
	// skipped counts the words restores stepped through (skipTo): what a
	// register in the checkpoint saves.
	skipped uint64
}

const (
	ringLen = 607 // math/rand's rngLen
	ringTap = 273 // math/rand's rngTap

	seedMod  = 1<<31 - 1 // the seed walk's modulus, math/rand's int32max
	seedMul  = 48271     // and its multiplier
	seedSkip = 20        // walk steps math/rand discards before the first word
)

var (
	// seedPow[i] holds seedMul^k mod seedMod for the three walk steps k
	// register word i is made of.
	seedPow [ringLen][3]uint64
	// cooked is math/rand's rngCooked, the constants Seed folds into the
	// register.
	cooked [ringLen]uint64
)

// init tabulates the walk's powers and recovers rngCooked. Seeding
// math/rand and drawing ringLen words leaves its register holding those
// words, in the slots the draws stored them in, with the indices back
// where seeding put them; running the recurrence backward ringLen steps
// from there (each step undoes one draw: slot feed held what it holds now
// less slot tap) gives the register as seeded. Its XOR with what the walk
// alone contributes for the same seed is rngCooked.
func init() {
	p := uint64(1)
	for range seedSkip + 1 {
		p = p * seedMul % seedMod
	}
	for i := range seedPow {
		for j := range seedPow[i] {
			seedPow[i][j] = p
			p = p * seedMul % seedMod
		}
	}

	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var c countedSource
	c.tap, c.feed = 0, ringLen-ringTap
	for k := 1; k <= ringLen; k++ {
		c.ring[(c.feed-k+ringLen)%ringLen] = src.Uint64()
	}
	for range ringLen {
		c.ring[c.feed] -= c.ring[c.tap]
		c.tap, c.feed = (c.tap+1)%ringLen, (c.feed+1)%ringLen
	}
	// cooked is still all zero: this seeding is the walk's share alone.
	var walk countedSource
	walk.Seed(seed)
	for i := range cooked {
		cooked[i] = c.ring[i] ^ walk.ring[i]
	}
}

func newCountedSource(seed int64) *countedSource {
	c := &countedSource{}
	c.Seed(seed)
	return c
}

// Seed writes the register math/rand's Seed writes for seed.
func (c *countedSource) Seed(seed int64) {
	x := seed % seedMod
	if x < 0 {
		x += seedMod
	}
	if x == 0 {
		x = 89482311 // math/rand's stand-in for a zero seed
	}
	s := uint64(x)
	for i, pow := range &seedPow {
		c.ring[i] = modWalk(s*pow[0])<<40 ^ modWalk(s*pow[1])<<20 ^ modWalk(s*pow[2]) ^ cooked[i]
	}
	c.seed, c.draws = seed, 0
	c.tap, c.feed = 0, ringLen-ringTap
}

// modWalk reduces a product of two walk values, below 2^62, modulo
// 2^31-1: 2^31 is 1 modulo it, so folding the high bits onto the low
// twice leaves a value in [0, 2^31-1], and never the modulus itself, since
// neither factor is a multiple of the prime.
func modWalk(x uint64) uint64 {
	x = x&seedMod + x>>31
	return x&seedMod + x>>31
}

func (c *countedSource) Int63() int64 { return int64(c.Uint64() &^ (1 << 63)) }

func (c *countedSource) Uint64() uint64 {
	c.draws++
	if c.tap--; c.tap < 0 {
		c.tap += ringLen
	}
	if c.feed--; c.feed < 0 {
		c.feed += ringLen
	}
	x := c.ring[c.feed] + c.ring[c.tap]
	c.ring[c.feed] = x
	return x
}

// skipTo advances a freshly seeded source to its draws-th word.
func (c *countedSource) skipTo(draws uint64) {
	for c.draws < draws {
		c.Uint64()
		c.skipped++
	}
}

// encode appends the source's register from the ringLen-th draw on,
// when it holds nothing but outputs.
func (c *countedSource) encode(enc *ckpt.Enc) {
	if c.draws < ringLen {
		return
	}
	for _, x := range c.ring {
		enc.Uint(x)
	}
}

// decode restores a freshly seeded source to position draws: from the
// blob's register when it carries one (the enclosing blob's version 2 on,
// past the first ringLen words), by stepping the fresh source otherwise.
func (c *countedSource) decode(d *ckpt.Dec, draws uint64) {
	if d.Version() < 2 || draws < ringLen {
		c.skipTo(draws)
		return
	}
	for i := range c.ring {
		c.ring[i] = d.Uint()
	}
	k := int(draws % ringLen)
	c.draws = draws
	c.tap, c.feed = (ringLen-k)%ringLen, (2*ringLen-ringTap-k)%ringLen
}

// EncodeState appends the runtime's fields to a blob an enclosing layer
// (the online controller) is building.
func (r *Runtime) EncodeState(enc *ckpt.Enc) {
	enc.Float(r.workload)
	enc.Float(r.budget)
	enc.Int(r.frontier.Len())
	enc.Uint(uint64(r.rng.seed))
	enc.Uint(r.rng.draws)

	r.bandit.EncodeState(enc)
	r.selector.EncodeState(enc)
	r.ctrl.EncodeState(enc)

	enc.Int(r.nextApp.Config)
	enc.Int(r.nextSys)
	enc.Bool(r.explored)
	enc.Int(r.iters)
	enc.Bool(r.done)
	enc.Bool(r.infeasible)

	enc.Int(r.badStreak)
	enc.Int(r.infStreak)
	enc.Int(r.healStreak)
	enc.Bool(r.degraded)
	enc.Int(r.degradeEvents)

	enc.Float(r.lastTarget)
	enc.Float(r.lastSpeedup)
	enc.Float(r.lastF)
	enc.Float(r.lastEps)
	enc.Bool(r.lastMiss)
	r.rng.encode(enc)
}

// DecodeState reads what EncodeState wrote; failures stick to d.
func (r *Runtime) DecodeState(d *ckpt.Dec) {
	if r.iters != 0 || r.rng.draws != 0 {
		d.Fail("runtime already ran %d iterations; restore needs a fresh one", r.iters)
		return
	}
	workload, budget := d.Float(), d.Float()
	points, seed := d.Int(), int64(d.Uint())
	if d.Err() == nil && (workload != r.workload || budget != r.budget || points != r.frontier.Len() || seed != r.rng.seed) {
		d.Fail("checkpoint of a runtime built with workload %v, budget %v, %d frontier points, seed %d; this one has %v, %v, %d, %d",
			workload, budget, points, seed, r.workload, r.budget, r.frontier.Len(), r.rng.seed)
		return
	}
	draws := d.Uint()

	r.bandit.DecodeState(d)
	r.selector.DecodeState(d)
	r.ctrl.DecodeState(d)

	appCfg := d.Int()
	r.nextSys = d.Count(r.bandit.NumArms() - 1)
	r.explored = d.Bool()
	r.iters = d.Count(math.MaxInt)
	r.done = d.Bool()
	r.infeasible = d.Bool()

	r.badStreak = d.Count(math.MaxInt)
	r.infStreak = d.Count(math.MaxInt)
	r.healStreak = d.Count(math.MaxInt)
	r.degraded = d.Bool()
	r.degradeEvents = d.Count(math.MaxInt)

	r.lastTarget = d.Float()
	r.lastSpeedup = d.Float()
	r.lastF = d.Float()
	r.lastEps = d.Float()
	r.lastMiss = d.Bool()
	if d.Err() != nil {
		return
	}

	onFrontier := false
	for _, p := range r.frontier.Points() {
		if p.Config == appCfg {
			r.nextApp, onFrontier = p, true
			break
		}
	}
	if !onFrontier {
		d.Fail("application configuration %d is not on the frontier", appCfg)
		return
	}
	// A version-1 blob restores by fast-forwarding, which costs time in
	// proportion to draws, so the count is held to what the runtime's own
	// arguments allow: Algorithm 1 runs for the W iterations it was built
	// for, and an iteration draws a handful of words at most. Anything
	// beyond is damage, not history, whichever way the stream restores.
	if float64(r.iters) > r.workload || draws > 64*uint64(r.iters)+64 {
		d.Fail("%d iterations and random stream position %d are implausible for a workload of %v", r.iters, draws, r.workload)
		return
	}
	r.rng.decode(d, draws)
}
