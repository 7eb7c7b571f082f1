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
// can carry the generator itself. math/rand's source is an additive
// lagged-Fibonacci register, x[n] = x[n-607] + x[n-273], and every word
// it returns is stored back into the register: 607 draws after seeding,
// the register holds exactly the last 607 outputs. So countedSource
// draws its first ringLen words from math/rand; at the ringLen-th it
// re-seeds that source, replays the same words into the slots math/rand
// stores them in, drops the source and from then on runs the recurrence
// on its own ring. The stream is math/rand's word for word, seeding costs
// what rand.NewSource costs, and a session that never draws ringLen words
// never holds a ring. From the ringLen-th draw on, seed + draw count +
// ring is the whole generator: a checkpoint loads it with no stepping,
// however long the session has run. Before that, and for a version-1 blob
// (which has no ring), a restore re-seeds and discards draws words.
type countedSource struct {
	src       rand.Source64 // math/rand's source, until the ring is built
	seed      int64
	draws     uint64
	ring      *[ringLen]uint64
	tap, feed int // the ring's indices, as math/rand keeps them
}

const (
	ringLen = 607 // math/rand's rngLen
	ringTap = 273 // math/rand's rngTap
)

func newCountedSource(seed int64) *countedSource {
	c := &countedSource{}
	c.Seed(seed)
	return c
}

func (c *countedSource) Seed(seed int64) {
	c.src = rand.NewSource(seed).(rand.Source64)
	c.seed, c.draws, c.ring = seed, 0, nil
}

func (c *countedSource) Int63() int64 { return int64(c.Uint64() &^ (1 << 63)) }

func (c *countedSource) Uint64() uint64 {
	c.draws++
	if c.ring == nil {
		x := c.src.Uint64()
		if c.draws == ringLen {
			c.buildRing()
		}
		return x
	}
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

// buildRing runs once, at the ringLen-th draw: it replays the words drawn
// so far into the slots math/rand's register holds them in. ringLen draws
// bring math/rand's indices back to where seeding put them.
func (c *countedSource) buildRing() {
	c.src.Seed(c.seed)
	c.ring = new([ringLen]uint64)
	c.tap, c.feed = 0, ringLen-ringTap
	for k := 1; k <= ringLen; k++ {
		c.ring[(c.feed-k+ringLen)%ringLen] = c.src.Uint64()
	}
	c.src = nil
}

// skipTo advances a freshly seeded source to its draws-th word.
func (c *countedSource) skipTo(draws uint64) {
	for c.draws < draws {
		c.Uint64()
	}
}

// encode appends the source's register once it has one.
func (c *countedSource) encode(enc *ckpt.Enc) {
	if c.ring == nil {
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
	c.ring = new([ringLen]uint64)
	for i := range c.ring {
		c.ring[i] = d.Uint()
	}
	k := int(draws % ringLen)
	c.src, c.draws = nil, draws
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
