package faults

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// FakePowercap builds and drives a synthetic /sys/class/powercap tree so
// the real file-based RAPL pipeline — sensors.LinuxRAPLReader under the
// measurement service's gate — can be exercised against injected counter
// faults without hardware. The tree has the same shape the kernel
// exposes: intel-rapl:N package zones with energy_uj and
// max_energy_range_uj, plus one subzone per package that a correct
// reader must not double count.
//
// Advance moves true energy forward; the value each zone's energy_uj
// file actually shows is the true cumulative counter passed through an
// optional SensorFault chain (spikes, stuck-at-last-value, drift, ...),
// then wrapped at max_energy_range_uj the way the hardware counter
// wraps. True joules are tracked separately so tests can assert exactly
// how much energy the gate should have admitted.
type FakePowercap struct {
	Root string

	maxRange uint64
	zones    []string  // zone directories, index = zone id
	trueUJ   []float64 // true cumulative microjoules per zone
	fault    SensorFault
	iter     int
}

// NewFakePowercap creates a tree with the given zone count under dir.
// maxRangeUJ is each counter's wrap range (the kernel's
// max_energy_range_uj); choose it small to force wraps mid-test.
func NewFakePowercap(dir string, zones int, maxRangeUJ uint64) (*FakePowercap, error) {
	if zones <= 0 || maxRangeUJ == 0 {
		return nil, fmt.Errorf("faults: powercap needs >=1 zone and a nonzero range")
	}
	f := &FakePowercap{Root: dir, maxRange: maxRangeUJ, trueUJ: make([]float64, zones)}
	for z := 0; z < zones; z++ {
		name := "intel-rapl:" + strconv.Itoa(z)
		zdir := filepath.Join(dir, name)
		if err := os.MkdirAll(zdir, 0o755); err != nil {
			return nil, err
		}
		f.zones = append(f.zones, zdir)
		rangeStr := strconv.FormatUint(maxRangeUJ, 10) + "\n"
		if err := os.WriteFile(filepath.Join(zdir, "max_energy_range_uj"), []byte(rangeStr), 0o644); err != nil {
			return nil, err
		}
		// The decoy subzone: contained in its parent, poisoned with a
		// huge counter so double counting is unmissable.
		sub := filepath.Join(dir, name+":0")
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(sub, "energy_uj"), []byte("999999999\n"), 0o644); err != nil {
			return nil, err
		}
		if err := f.writeZone(z, 0); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// SetFault installs the perturbation applied to every counter write.
// The fault sees cumulative microjoules; a reading it drops (ok=false)
// leaves the file unchanged — a frozen counter, exactly what a wedged
// hwmon shows.
func (f *FakePowercap) SetFault(s SensorFault) { f.fault = s }

// Zones returns the package-zone count.
func (f *FakePowercap) Zones() int { return len(f.zones) }

// TrueJoules returns the unperturbed total energy across all zones — the
// ground truth injected faults must not be allowed to move.
func (f *FakePowercap) TrueJoules() float64 {
	var sum float64
	for _, uj := range f.trueUJ {
		sum += uj
	}
	return sum / 1e6
}

// Advance adds joules of true energy, split evenly across zones, and
// rewrites every energy_uj through the fault model and the wrap range.
func (f *FakePowercap) Advance(joules float64) error {
	perZone := joules * 1e6 / float64(len(f.zones))
	iter := f.iter
	f.iter++
	for z := range f.zones {
		f.trueUJ[z] += perZone
		shown := f.trueUJ[z]
		if f.fault != nil {
			out, ok := f.fault.Reading(iter, shown)
			if !ok {
				continue // dropped write: counter freezes at its last value
			}
			shown = out
		}
		if shown < 0 {
			shown = 0
		}
		if err := f.writeZone(z, uint64(shown)%f.maxRange); err != nil {
			return err
		}
	}
	return nil
}

func (f *FakePowercap) writeZone(z int, uj uint64) error {
	path := filepath.Join(f.zones[z], "energy_uj")
	return os.WriteFile(path, []byte(strconv.FormatUint(uj, 10)+"\n"), 0o644)
}
