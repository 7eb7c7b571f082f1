package measure

import (
	"time"

	"jouleguard/internal/sensors"
)

// RAPLMeter is the real-hardware backend: the hardened powercap reader
// (wrap-around-safe multi-zone sampling, transient-read retry, loud
// failure when the zone set changes) fed monotonic timestamps. Go's
// time.Since uses the monotonic clock reading embedded in the anchor,
// so NTP steps cannot tear a sampling window.
type RAPLMeter struct {
	rd    *sensors.LinuxRAPLReader
	start time.Time
}

// NewRAPLMeter opens the powercap interface under root ("" = the live
// /sys/class/powercap). It fails cleanly when the interface is absent —
// callers fall back to the simulator.
func NewRAPLMeter(root string, fixedW float64) (*RAPLMeter, error) {
	rd, err := sensors.NewLinuxRAPLReader(root, fixedW)
	if err != nil {
		return nil, err
	}
	return &RAPLMeter{rd: rd, start: time.Now()}, nil
}

// Name implements Meter.
func (m *RAPLMeter) Name() string { return "rapl" }

// Zones returns the RAPL package-domain count (for startup logging).
func (m *RAPLMeter) Zones() int { return m.rd.Zones() }

// ReadJoules implements Meter.
func (m *RAPLMeter) ReadJoules() (float64, error) {
	return m.rd.ReadEnergyAt(time.Since(m.start).Seconds())
}
