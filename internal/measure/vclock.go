package measure

import (
	"math"
	"sync"
	"time"

	"jouleguard/internal/guard"
	"jouleguard/internal/telemetry"
)

// VirtualClock is a monotone, hand-advanced time source for
// stimulus-driven simulated measurement. The daemon's sim-meter mode
// runs the whole pipeline — meter accrual, calibration sleeps, service
// sampling — on one of these, advancing it by each settled iteration's
// client-reported duration. Iterations complete at wire speed (far
// faster than the virtual work they represent), so deriving per-sample
// power from wall time would turn every deposit into a megawatt spike;
// on the virtual timeline the same deposit lands at the physical watt
// scale the plausibility gate is calibrated to judge.
type VirtualClock struct {
	mu sync.Mutex
	t  time.Time
}

// NewVirtualClock starts a virtual clock at a fixed epoch; only
// differences ever matter.
func NewVirtualClock() *VirtualClock {
	return &VirtualClock{t: time.Unix(0, 0)}
}

// Now returns the current virtual time (plug into SimConfig.Now,
// CalibrationConfig.Now and ServiceConfig.Now).
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance moves the clock forward by the given seconds. Non-positive,
// NaN and infinite values are ignored, and a single step is capped at a
// virtual year — a corrupt wire duration must not wrap the timeline.
func (c *VirtualClock) Advance(seconds float64) {
	if !(seconds > 0) || math.IsInf(seconds, 0) {
		return
	}
	const maxStepS = 365 * 24 * 3600.0
	if seconds > maxStepS {
		seconds = maxStepS
	}
	c.mu.Lock()
	c.t = c.t.Add(time.Duration(seconds * float64(time.Second)))
	c.mu.Unlock()
}

// Sleep advances the clock by d and returns immediately — calibration's
// trial wait, served in zero wall time (plug into
// CalibrationConfig.Sleep).
func (c *VirtualClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// SimBackend is the simulated measurement backend, assembled in one place
// for every daemon that bills it: a SimMeter and a calibrated Service on
// one VirtualClock that only Stimulus moves. No sampling loop is started,
// so sampling is settle-driven and deterministic.
type SimBackend struct {
	Meter   *SimMeter
	Service *Service
	clock   *VirtualClock
}

// NewSimBackend builds the backend: a meter idling at idleW watts with
// noise drawn from seed, its idle baseline calibrated on the virtual
// clock, and a service whose gate rejects per-sample power above
// maxPowerW. There is no ModelPower: rejected samples are debited at the
// accepted-window median, which tracks the governed operating point,
// where a fixed model would over-debit every rejection once the governors
// have throttled their tenants below full draw. tel may be nil.
func NewSimBackend(idleW float64, seed int64, maxPowerW float64, tel *telemetry.Telemetry) (*SimBackend, error) {
	vc := NewVirtualClock()
	sim := NewSimMeter(SimConfig{IdleW: idleW, Seed: seed, Now: vc.Now})
	cal, err := Calibrate(sim, CalibrationConfig{Sleep: vc.Sleep, Now: vc.Now})
	if err != nil {
		return nil, err
	}
	svc := NewService(ServiceConfig{
		Meter:    sim,
		Gate:     guard.Config{MaxPower: maxPowerW},
		Baseline: cal,
		Now:      vc.Now,
		Tel:      tel,
	})
	return &SimBackend{Meter: sim, Service: svc, clock: vc}, nil
}

// Stimulus is the daemon's MeterStimulus hook: an iteration's reported
// energy becomes physical work in the fake counter, and the virtual clock
// advances by the iteration's reported duration.
func (b *SimBackend) Stimulus(joules, durS float64) {
	b.Meter.Deposit(joules)
	b.clock.Advance(durS)
}
