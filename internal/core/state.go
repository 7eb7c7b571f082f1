package core

import (
	"math"
	"math/rand"

	"jouleguard/internal/ckpt"
)

// Checkpointing. A Runtime's whole mutable state is small — the pulled
// arms' estimates, the exploration policy, the PI integrator, the
// watchdog counters and the position of its random stream — and
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

// countedSource is the Runtime's random source with a draw counter, which
// is how a checkpoint records the stream's position: math/rand exposes no
// generator state, but every draw the runtime makes advances the
// generator by exactly one word, so seed + count pins it. Restoring
// re-seeds and discards count words (nanoseconds each; a million
// iterations fast-forward in a few milliseconds).
type countedSource struct {
	src   rand.Source64
	seed  int64
	draws uint64
}

func newCountedSource(seed int64) *countedSource {
	return &countedSource{src: rand.NewSource(seed).(rand.Source64), seed: seed}
}

func (c *countedSource) Int63() int64   { c.draws++; return c.src.Int63() }
func (c *countedSource) Uint64() uint64 { c.draws++; return c.src.Uint64() }

func (c *countedSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.seed, c.draws = seed, 0
}

// skipTo advances a source to its draws-th word.
func (c *countedSource) skipTo(draws uint64) {
	for c.draws < draws {
		c.src.Uint64()
		c.draws++
	}
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
	// The fast-forward below costs time in proportion to draws, so the
	// count is held to what the runtime's own arguments allow: Algorithm 1
	// runs for the W iterations it was built for, and an iteration draws a
	// handful of words at most. Anything beyond is damage, not history.
	if float64(r.iters) > r.workload || draws > 64*uint64(r.iters)+64 {
		d.Fail("%d iterations and random stream position %d are implausible for a workload of %v", r.iters, draws, r.workload)
		return
	}
	r.rng.skipTo(draws)
}
