// Package linuxsys is the real-machine actuation side of JouleGuard: it
// discovers a Linux host's CPU topology and available frequencies from
// sysfs, enumerates the same (cores x clock speed) configuration space the
// paper controls with process affinity masks and cpufrequtils (Sec. 4.2),
// and actuates a configuration by writing cpufreq files and setting the
// process's CPU affinity.
//
// Discovery and actuation take an explicit sysfs root so tests can point
// at a synthetic tree; pass "" for the live /sys.
// Frequency writes require the userspace governor and root; affinity uses
// sched_setaffinity on the calling process.
package linuxsys

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"jouleguard/internal/backoff"
)

// Topology describes the actuatable CPU resources found on the host.
type Topology struct {
	CPUs  []int // online logical CPU ids, ascending
	Freqs []int // available frequencies in kHz, ascending (from cpu0)
	root  string
}

// Discover reads the topology from sysfs (root = "" means /sys).
func Discover(root string) (*Topology, error) {
	if root == "" {
		root = "/sys"
	}
	cpuDir := filepath.Join(root, "devices", "system", "cpu")
	entries, err := os.ReadDir(cpuDir)
	if err != nil {
		return nil, fmt.Errorf("linuxsys: reading %s: %w", cpuDir, err)
	}
	t := &Topology{root: root}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "cpu") {
			continue
		}
		id, err := strconv.Atoi(strings.TrimPrefix(name, "cpu"))
		if err != nil {
			continue // cpufreq, cpuidle, ...
		}
		t.CPUs = append(t.CPUs, id)
	}
	if len(t.CPUs) == 0 {
		return nil, fmt.Errorf("linuxsys: no CPUs under %s", cpuDir)
	}
	sort.Ints(t.CPUs)
	// Frequencies: prefer scaling_available_frequencies; fall back to the
	// min/max pair many drivers expose.
	freqDir := filepath.Join(cpuDir, "cpu0", "cpufreq")
	if raw, err := os.ReadFile(filepath.Join(freqDir, "scaling_available_frequencies")); err == nil {
		for _, f := range strings.Fields(string(raw)) {
			if v, err := strconv.Atoi(f); err == nil && v > 0 {
				t.Freqs = append(t.Freqs, v)
			}
		}
	}
	if len(t.Freqs) == 0 {
		var lohi []int
		for _, name := range []string{"scaling_min_freq", "scaling_max_freq"} {
			raw, err := os.ReadFile(filepath.Join(freqDir, name))
			if err != nil {
				continue
			}
			if v, err := strconv.Atoi(strings.TrimSpace(string(raw))); err == nil && v > 0 {
				lohi = append(lohi, v)
			}
		}
		if len(lohi) == 2 && lohi[1] > lohi[0] {
			// Synthesise a modest ladder between min and max.
			const steps = 8
			for i := 0; i < steps; i++ {
				t.Freqs = append(t.Freqs, lohi[0]+(lohi[1]-lohi[0])*i/(steps-1))
			}
		}
	}
	if len(t.Freqs) == 0 {
		return nil, fmt.Errorf("linuxsys: no cpufreq information under %s", freqDir)
	}
	sort.Ints(t.Freqs)
	t.Freqs = dedupInts(t.Freqs)
	return t, nil
}

func dedupInts(xs []int) []int {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// Config is one actuatable configuration: the first Cores CPUs at FreqKHz.
type Config struct {
	Cores   int
	FreqKHz int
}

// Configs enumerates the (cores x frequency) space in the paper's Fig. 3
// index convention: the highest index is all cores at the highest clock.
func (t *Topology) Configs() []Config {
	out := make([]Config, 0, len(t.CPUs)*len(t.Freqs))
	for c := 1; c <= len(t.CPUs); c++ {
		for _, f := range t.Freqs {
			out = append(out, Config{Cores: c, FreqKHz: f})
		}
	}
	return out
}

// NumConfigs returns the configuration-space size.
func (t *Topology) NumConfigs() int { return len(t.CPUs) * len(t.Freqs) }

// DefaultConfig is the all-resources index.
func (t *Topology) DefaultConfig() int { return t.NumConfigs() - 1 }

// Affinity is the CPU-mask side of actuation; injected so tests (and
// non-Linux builds) can observe calls without touching the scheduler. Use
// SchedAffinity for the real thing.
type Affinity func(cpus []int) error

// Actuator applies Config choices to the machine.
type Actuator struct {
	topo     *Topology
	affinity Affinity
}

// NewActuator builds an actuator over a topology. With a nil affinity
// function, Apply fails.
func NewActuator(topo *Topology, affinity Affinity) (*Actuator, error) {
	if topo == nil {
		return nil, fmt.Errorf("linuxsys: nil topology")
	}
	return &Actuator{topo: topo, affinity: affinity}, nil
}

// Apply actuates configuration index i: pins the process to the first
// Cores CPUs and writes the frequency setpoint for every online CPU.
func (a *Actuator) Apply(i int) error {
	cfgs := a.topo.Configs()
	if i < 0 || i >= len(cfgs) {
		return fmt.Errorf("linuxsys: config %d out of range [0,%d)", i, len(cfgs))
	}
	cfg := cfgs[i]
	cpus := a.topo.CPUs[:cfg.Cores]
	if a.affinity == nil {
		return fmt.Errorf("linuxsys: no affinity function configured")
	}
	if err := a.affinity(cpus); err != nil {
		return fmt.Errorf("linuxsys: affinity: %w", err)
	}
	for _, cpu := range a.topo.CPUs {
		path := filepath.Join(a.topo.root, "devices", "system", "cpu",
			fmt.Sprintf("cpu%d", cpu), "cpufreq", "scaling_setspeed")
		val := strconv.Itoa(cfg.FreqKHz)
		if err := os.WriteFile(path, []byte(val), 0o644); err != nil {
			return fmt.Errorf("linuxsys: setting %s: %w", path, err)
		}
	}
	return nil
}

// RetryPolicy is the retry loop behind the RAPL counter reads in
// internal/sensors: sysfs reads fail transiently on real hosts, so they
// are retried with capped exponential backoff before giving up. The zero
// value makes 4 attempts, backing off from 10ms to at most 250ms.
type RetryPolicy = backoff.Policy
