package control

import "jouleguard/internal/ckpt"

// Checkpoint codecs. Each EncodeState writes exactly the fields that
// move after construction, in declaration order; gains, noise variances
// and clamps are constructor arguments and are rebuilt, not restored.
// DecodeState assumes a receiver built with the same arguments.

// EncodeState appends the filter's estimate.
func (e *EWMA) EncodeState(enc *ckpt.Enc) {
	enc.Float(e.value)
	enc.Bool(e.primed)
}

// DecodeState restores the filter's estimate.
func (e *EWMA) DecodeState(d *ckpt.Dec) {
	e.value = d.Float()
	e.primed = d.Bool()
}

// EncodeState appends the filter's state estimate, variance, last gain
// and observation count.
func (f *Kalman1D) EncodeState(enc *ckpt.Enc) {
	enc.Float(f.x)
	enc.Float(f.p)
	enc.Float(f.k)
	enc.Int(f.n)
}

// DecodeState restores what EncodeState wrote.
func (f *Kalman1D) DecodeState(d *ckpt.Dec) {
	f.x = d.Float()
	f.p = d.Float()
	f.k = d.Float()
	f.n = d.Int()
}

// EncodeState appends the integrator, the pole and the two observability
// values the flight recorder reads back.
func (c *SpeedupController) EncodeState(enc *ckpt.Enc) {
	enc.Float(c.speedup)
	enc.Float(c.pole)
	enc.Float(c.lastErr)
	enc.Float(c.lastDelt)
}

// DecodeState restores what EncodeState wrote.
func (c *SpeedupController) DecodeState(d *ckpt.Dec) {
	c.speedup = d.Float()
	c.pole = d.Float()
	c.lastErr = d.Float()
	c.lastDelt = d.Float()
}
