package learning

import (
	"math"

	"jouleguard/internal/ckpt"
)

// EncodeState appends the bandit's learned state. Only arms that were
// ever pulled travel, in arm order: an unpulled arm stands at the prior
// its table holds, and on a 1,024-arm platform those are most of the
// table for most of a run. The two argmaxes travel as a cross-check
// only: DecodeState recomputes them from the estimates it restored.
func (b *Bandit) EncodeState(enc *ckpt.Enc) {
	enc.Int(len(b.index))
	enc.Uint(uint64(b.est.tag()))
	enc.Int(b.totalPulls)
	enc.Int(b.BestArm())
	enc.Int(b.BestMeasuredArm())
	enc.Int(len(b.slots))
	for arm, s := range b.index {
		if s > 0 {
			enc.Int(arm)
			enc.Int(b.slots[s-1].pulls)
			b.est.encodeSlot(enc, int(s)-1)
		}
	}
}

// DecodeState restores what EncodeState wrote into a bandit fresh from
// its constructor (same arm count, estimator kind and priors). A bandit
// that has already observed anything is refused: its unlisted arms would
// keep their learned values instead of the priors the blob assumes.
func (b *Bandit) DecodeState(d *ckpt.Dec) {
	if b.totalPulls != 0 {
		d.Fail("bandit already holds %d observations", b.totalPulls)
		return
	}
	n := len(b.index)
	if got := d.Int(); got != n {
		d.Fail("checkpoint of a %d-arm bandit, this one has %d", got, n)
		return
	}
	if got, want := d.Uint(), uint64(b.est.tag()); got != want {
		d.Fail("checkpoint estimator kind %q, this bandit uses %q", rune(got), rune(want))
		return
	}
	total := d.Count(math.MaxInt)
	best := d.Count(n - 1)
	bestPulled := d.Int()
	pulled := d.Count(n)
	sum, prev := 0, -1
	for k := 0; k < pulled && d.Err() == nil; k++ {
		i := d.Count(n - 1)
		pulls := d.Count(total)
		if i <= prev || pulls == 0 {
			d.Fail("arm record %d (arm %d, %d pulls) out of order or empty", k, i, pulls)
			return
		}
		prev = i
		// As the Observe that last touched the arm did: its slot opens at
		// the prior, then takes the recorded filters and re-plays its path.
		s := b.open(i)
		b.slots[s].pulls = pulls
		b.est.decodeSlot(d, s, i)
		b.slots[s].eff = efficiency(b.est.rate(s), b.est.power(s))
		b.pulled.update(b.slots, s)
		sum += pulls
	}
	if d.Err() != nil {
		return
	}
	if sum != total {
		d.Fail("bandit tallies disagree (%d pulls listed, %d recorded)", sum, total)
		return
	}
	b.totalPulls = total
	if best != b.BestArm() || bestPulled != b.BestMeasuredArm() {
		d.Fail("recorded best arms (%d, measured %d) disagree with the restored estimates (%d, measured %d)",
			best, bestPulled, b.BestArm(), b.BestMeasuredArm())
	}
}

// expectTag consumes a selector's leading tag word.
func expectTag(d *ckpt.Dec, want byte) {
	if got := d.Uint(); got != uint64(want) {
		d.Fail("checkpoint selector kind %q, this runtime uses %q", rune(got), rune(want))
	}
}

// EncodeState appends the exploration rate and the two observability
// values.
func (v *VDBE) EncodeState(enc *ckpt.Enc) {
	enc.Uint('V')
	enc.Float(v.eps)
	enc.Float(v.lastX)
	enc.Float(v.lastRV)
}

// DecodeState restores what EncodeState wrote.
func (v *VDBE) DecodeState(d *ckpt.Dec) {
	expectTag(d, 'V')
	v.eps = d.Float()
	v.lastX = d.Float()
	v.lastRV = d.Float()
}

// EncodeState writes the tag alone: the policy's only state is the
// shared random source.
func (f *FixedEpsilon) EncodeState(enc *ckpt.Enc) { enc.Uint('F') }

// DecodeState reads the tag alone.
func (f *FixedEpsilon) DecodeState(d *ckpt.Dec) { expectTag(d, 'F') }

// EncodeState appends the running mean reward and its sample count.
func (u *UCB1) EncodeState(enc *ckpt.Enc) {
	enc.Uint('U')
	enc.Float(u.meanEff)
	enc.Int(u.n)
}

// DecodeState restores what EncodeState wrote.
func (u *UCB1) DecodeState(d *ckpt.Dec) {
	expectTag(d, 'U')
	u.meanEff = d.Float()
	u.n = d.Int()
}
