package measure

import (
	"math/rand"
	"sync"
	"time"

	"jouleguard/internal/faults"
	"jouleguard/internal/sensors"
)

// SimConfig tunes the simulated meter. The zero value selects the
// defaults.
type SimConfig struct {
	IdleW  float64          // idle draw integrated in real time (default 2 W)
	NoiseW float64          // gaussian sigma on the idle power (default 0.02 W)
	Seed   int64            // noise seed; same seed, same readings
	Now    func() time.Time // injectable clock (default time.Now)
}

func (c SimConfig) withDefaults() SimConfig {
	if c.IdleW <= 0 {
		c.IdleW = 2
	}
	if c.NoiseW <= 0 {
		c.NoiseW = 0.02
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// SimMeter is the everywhere-backend: a fake energy counter with the
// same failure surface as the hardware one. Idle power (plus seeded
// gaussian noise) accrues in real time; work energy arrives via Deposit
// from whatever is simulating the load. Energy passes through a 32-bit
// sensors.RAPL register first, so counter wrap-around is exercised on
// every run, and an optional faults.SensorFault chain perturbs the
// cumulative reading — the injected spikes, freezes and dropouts the
// measurement gate exists to catch.
//
// SimMeter is safe for concurrent use: Deposit is called from request
// handlers while ReadJoules runs on the sampling loop.
type SimMeter struct {
	mu      sync.Mutex
	cfg     SimConfig
	rng     *rand.Rand
	ctr     sensors.RAPL
	lastCtr uint32
	cumJ    float64 // wrap-corrected cumulative joules (pre-fault truth)
	trueJ   float64 // ground-truth deposits + idle, never perturbed
	lastT   time.Time
	started bool
	fault   faults.SensorFault
	iter    int
}

// NewSimMeter builds a simulated meter.
func NewSimMeter(cfg SimConfig) *SimMeter {
	cfg = cfg.withDefaults()
	return &SimMeter{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Name implements Meter.
func (m *SimMeter) Name() string { return "sim" }

// SetFault installs a perturbation on the cumulative reading. Pass nil
// to clear. A fault only corrupts what ReadJoules reports — the true
// energy ledger keeps accruing, which is exactly why the gate must
// never debit a perturbed sample.
func (m *SimMeter) SetFault(f faults.SensorFault) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fault = f
}

// Deposit adds work energy to the fake hardware counter — the joules a
// simulated workload "physically" burned.
func (m *SimMeter) Deposit(joules float64) {
	if !(joules > 0) {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ctr.Deposit(joules)
	m.trueJ += joules
}

// ReadJoules implements Meter: accrue idle power for the elapsed real
// time, reconstruct the cumulative total through the 32-bit register,
// then pass it through the fault chain.
func (m *SimMeter) ReadJoules() (float64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.cfg.Now()
	if !m.started {
		m.lastT, m.started = now, true
	}
	dt := now.Sub(m.lastT).Seconds()
	m.lastT = now
	if dt > 0 {
		idle := (m.cfg.IdleW + m.cfg.NoiseW*m.rng.NormFloat64()) * dt
		if idle > 0 {
			m.ctr.Deposit(idle)
			m.trueJ += idle
		}
	}
	cur := m.ctr.Read()
	m.cumJ += sensors.EnergyBetween(m.lastCtr, cur)
	m.lastCtr = cur
	v := m.cumJ
	if m.fault != nil {
		out, ok := m.fault.Reading(m.iter, v)
		m.iter++
		if !ok {
			return 0, ErrReadingDropped
		}
		v = out
	}
	return v, nil
}
