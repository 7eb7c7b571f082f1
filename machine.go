package jouleguard

// Machine is the modeled machine the paper evaluates on (Sec. 4): an
// iteration at (appCfg, sysCfg) takes the application's work divided by
// the platform's rate at sysCfg, and draws the platform's power at sysCfg
// for that long. It keeps a virtual clock and a cumulative joule counter;
// Now and ReadEnergy read them in the shapes NewOnline and the service
// client take, so a governor fed by a Machine sees exactly the modeled
// dynamics. The load generator's tenants and the service's tests all run
// on it.
type Machine struct {
	ClockS  float64 // virtual seconds
	EnergyJ float64 // cumulative joules

	tb *Testbed
}

// Machine returns a machine at 0 s and 0 J on which iteration iter runs
// the application on its own input, App.Step(appCfg, iter).
func (tb *Testbed) Machine() *Machine { return &Machine{tb: tb} }

// Step executes iteration iter at the given configurations, advancing the
// clock and the counter, and returns the iteration's accuracy.
func (m *Machine) Step(appCfg, sysCfg, iter int) float64 {
	work, acc := m.tb.App.Step(appCfg, iter)
	dur := work / m.tb.Platform.Rate(sysCfg, m.tb.Profile)
	m.ClockS += dur
	m.EnergyJ += m.tb.Platform.Power(sysCfg, m.tb.Profile) * dur
	return acc
}

// Now reads the virtual clock, in seconds.
func (m *Machine) Now() float64 { return m.ClockS }

// ReadEnergy reads the cumulative joule counter; it never fails.
func (m *Machine) ReadEnergy() (float64, error) { return m.EnergyJ, nil }
