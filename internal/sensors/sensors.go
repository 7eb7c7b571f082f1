// Package sensors emulates the power instrumentation of the paper's three
// platforms (Sec. 4.2): Intel RAPL energy-status MSRs (fixed energy units,
// 32-bit wrap-around counters, millisecond read granularity) on Tablet and
// Server, INA231 power sensors on Mobile, and the slow external power meter
// used to verify full-system energy. A FullSystemReader combines an on-chip
// sensor with the paper's fixed-power adder to produce the feedback signal
// JouleGuard consumes.
package sensors

import (
	"fmt"
	"math"
)

// RAPLUnit is the Sandy Bridge energy-status unit: 1/2^16 J ~ 15.3 uJ
// (Rotem et al., Hot Chips'11, cited in Sec. 4.2).
const RAPLUnit = 1.0 / 65536

// RAPL emulates one package's MSR_PKG_ENERGY_STATUS: a 32-bit counter of
// energy units that wraps around. Only the CPU-rail share of system power
// is visible to it.
type RAPL struct {
	units  uint64  // total energy in units (not wrapped)
	carryJ float64 // sub-unit remainder carried between deposits
}

// Deposit accumulates joules of package energy into the counter.
func (r *RAPL) Deposit(joules float64) {
	if joules <= 0 || math.IsNaN(joules) {
		return
	}
	total := r.carryJ + joules
	u := math.Floor(total / RAPLUnit)
	r.carryJ = total - u*RAPLUnit
	r.units += uint64(u)
}

// Read returns the current 32-bit wrapped counter value, as software would
// read the MSR.
func (r *RAPL) Read() uint32 { return uint32(r.units & 0xFFFFFFFF) }

// EnergyBetween converts two successive MSR reads into joules, handling a
// single wrap-around (reads must be frequent enough that the counter wraps
// at most once, which at 15.3 uJ units and server power is every few
// hours).
func EnergyBetween(prev, cur uint32) float64 {
	delta := uint64(cur) - uint64(prev)
	if cur < prev {
		delta = (1 << 32) - uint64(prev) + uint64(cur)
	}
	return float64(delta) * RAPLUnit
}

// INA231 emulates the Mobile platform's per-rail power sensors: it reports
// instantaneous rail power in milliwatts, updated by the simulation.
type INA231 struct {
	Rail string
	mW   uint32
}

// Set updates the rail's instantaneous power.
func (s *INA231) Set(watts float64) {
	if watts < 0 || math.IsNaN(watts) {
		watts = 0
	}
	s.mW = uint32(math.Round(watts * 1000))
}

// PowerW returns the sensed power in watts (quantised to milliwatts, as the
// real part reports).
func (s *INA231) PowerW() float64 { return float64(s.mW) / 1000 }

// ExternalMeter is the wall-plug meter of Sec. 4.2: it samples full-system
// power at a slow (1 s) granularity — too slow for dynamic feedback but
// authoritative for whole-run energy.
type ExternalMeter struct {
	Period   float64 // seconds between samples
	lastTick float64
	lastW    float64
	samples  []float64
	energyJ  float64
}

// NewExternalMeter creates a meter with the given sampling period.
func NewExternalMeter(period float64) (*ExternalMeter, error) {
	if period <= 0 {
		return nil, fmt.Errorf("sensors: meter period %v must be positive", period)
	}
	return &ExternalMeter{Period: period}, nil
}

// Advance tells the meter that the system drew `watts` for `dt` seconds.
// Energy integrates exactly; the sample log records one reading per period.
func (m *ExternalMeter) Advance(watts, dt float64) {
	if dt <= 0 || math.IsNaN(watts) {
		return
	}
	m.energyJ += watts * dt
	m.lastW = watts
	m.lastTick += dt
	for m.lastTick >= m.Period {
		m.samples = append(m.samples, watts)
		m.lastTick -= m.Period
	}
}

// EnergyJ returns total measured energy.
func (m *ExternalMeter) EnergyJ() float64 { return m.energyJ }

// Samples returns the recorded 1 Hz power samples.
func (m *ExternalMeter) Samples() []float64 { return append([]float64(nil), m.samples...) }

// FullSystemReader implements the paper's measurement strategy on the Intel
// platforms: fast on-chip counters cover only the package, so a fixed
// constant (the externally measured non-CPU power) is added (Sec. 4.2:
// "use the on-chip power meters plus a fixed constant for dynamic
// feedback"). The reconstruction is deliberately imperfect, as on real
// hardware: the true non-CPU draw is the fixed component plus a small
// load-correlated leak (voltage regulators, fans) the MSR never sees and
// the fixed adder cannot recover.
type FullSystemReader struct {
	rapl    *RAPL
	prevMSR uint32
	accumJ  float64
	FixedW  float64 // constant adder for non-CPU components
	Leak    float64 // fraction of package power drawn off-package
	clock   float64 // seconds of elapsed time seen so far
}

// NewFullSystemReader builds a reader. fixedW is the constant the paper
// adds for non-CPU components; leak is the fraction of package-correlated
// power invisible to the MSR (0 for a perfect sensor).
func NewFullSystemReader(fixedW, leak float64) (*FullSystemReader, error) {
	if fixedW < 0 {
		return nil, fmt.Errorf("sensors: fixed adder %v negative", fixedW)
	}
	if leak < 0 || leak >= 1 {
		return nil, fmt.Errorf("sensors: leak %v outside [0,1)", leak)
	}
	return &FullSystemReader{rapl: &RAPL{}, FixedW: fixedW, Leak: leak}, nil
}

// Advance feeds the true system power over an interval into the underlying
// RAPL counter: only the package share (true minus fixed, minus the leak)
// lands in the MSR.
func (f *FullSystemReader) Advance(trueWatts, dt float64) {
	if dt <= 0 {
		return
	}
	pkg := (trueWatts - f.FixedW) * (1 - f.Leak)
	if pkg < 0 {
		pkg = 0
	}
	f.rapl.Deposit(pkg * dt)
	f.clock += dt
}

// ReadEnergy returns the reconstructed full-system energy: MSR delta plus
// the fixed adder integrated over elapsed time.
func (f *FullSystemReader) ReadEnergy() float64 {
	cur := f.rapl.Read()
	f.accumJ += EnergyBetween(f.prevMSR, cur)
	f.prevMSR = cur
	return f.accumJ + f.FixedW*f.clock
}

// INAReader reconstructs full-system energy from INA231 rail sensors
// (Mobile): the simulation updates the rail powers, and energy integrates
// rail power over time. The rails cover the SoC and DRAM; a small fixed
// board adder accounts for the rest.
type INAReader struct {
	Rails  []*INA231
	BoardW float64 // constant adder for off-rail board components
	accumJ float64
	clock  float64
}

// NewINAReader builds a reader over the given rails with a board adder.
func NewINAReader(boardW float64, rails ...string) *INAReader {
	r := &INAReader{BoardW: boardW}
	for _, name := range rails {
		r.Rails = append(r.Rails, &INA231{Rail: name})
	}
	return r
}

// Advance distributes the on-rail power across the rails (evenly, which is
// immaterial to the total) and integrates.
func (r *INAReader) Advance(trueWatts, dt float64) {
	if dt <= 0 || len(r.Rails) == 0 {
		return
	}
	onRail := trueWatts - r.BoardW
	if onRail < 0 {
		onRail = 0
	}
	per := onRail / float64(len(r.Rails))
	var sensed float64
	for _, rail := range r.Rails {
		rail.Set(per)
		sensed += rail.PowerW()
	}
	r.accumJ += sensed * dt
	r.clock += dt
}

// ReadEnergy returns cumulative sensed energy plus the board adder.
func (r *INAReader) ReadEnergy() float64 { return r.accumJ + r.BoardW*r.clock }

// Advancer is a sensor that integrates true power over simulated time.
type Advancer interface {
	Advance(trueWatts, dt float64)
	ReadEnergy() float64
}

// ForPlatform returns the paper's measurement setup for a platform name:
// INA231 rails on Mobile, RAPL plus a fixed adder on Tablet and Server
// (Sec. 4.2). The fixed adders match the platform models in
// internal/platform.
func ForPlatform(name string) (Advancer, error) {
	switch name {
	case "Mobile":
		return NewINAReader(0.3, "big", "LITTLE", "DRAM", "GPU"), nil
	case "Tablet":
		// Nearly everything is on-package; small fixed adder, tiny leak.
		return NewFullSystemReader(1.9, 0.02)
	case "Server":
		// The fixed adder covers the 75-90 W of non-CPU components; a 2%
		// load-correlated leak (VRs, fans) stays invisible.
		return NewFullSystemReader(85, 0.02)
	}
	return nil, fmt.Errorf("sensors: unknown platform %q", name)
}
