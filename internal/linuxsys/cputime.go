package linuxsys

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// CPUTime is one aggregate /proc/stat snapshot: jiffies the CPUs spent
// busy (user+nice+system+irq+softirq+steal) and total jiffies including
// idle and iowait. The attribution layer in internal/measure uses the
// busy fraction between two snapshots to decide how much of a measured
// energy window was actually compute — RAPL counts the whole package,
// so on an idle machine the meter would otherwise charge sessions for
// joules nobody's work consumed.
type CPUTime struct {
	BusyJiffies  uint64
	TotalJiffies uint64
}

// ReadCPUTime parses the aggregate "cpu " line of <root>/stat (root = ""
// means /proc). Tests point root at a synthetic tree.
func ReadCPUTime(root string) (CPUTime, error) {
	if root == "" {
		root = "/proc"
	}
	path := filepath.Join(root, "stat")
	raw, err := os.ReadFile(path)
	if err != nil {
		return CPUTime{}, fmt.Errorf("linuxsys: reading %s: %w", path, err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		fields := strings.Fields(line)
		// The aggregate line is "cpu" (no digit); per-CPU lines are cpuN.
		if len(fields) < 5 || fields[0] != "cpu" {
			continue
		}
		var c CPUTime
		for i, f := range fields[1:] {
			v, err := strconv.ParseUint(f, 10, 64)
			if err != nil {
				return CPUTime{}, fmt.Errorf("linuxsys: %s field %d: %w", path, i+1, err)
			}
			c.TotalJiffies += v
			// Fields: user nice system idle iowait irq softirq steal ...
			// idle (3) and iowait (4) are the not-busy columns.
			if i != 3 && i != 4 {
				c.BusyJiffies += v
			}
		}
		return c, nil
	}
	return CPUTime{}, fmt.Errorf("linuxsys: no aggregate cpu line in %s", path)
}

// BusyFraction returns the fraction of CPU time spent busy between two
// snapshots, clamped to [0,1]. A zero or backwards total (counter reset,
// identical snapshots) returns 0 — the caller should treat the window as
// unattributable rather than divide by nothing.
func BusyFraction(prev, cur CPUTime) float64 {
	if cur.TotalJiffies <= prev.TotalJiffies {
		return 0
	}
	busy := float64(cur.BusyJiffies) - float64(prev.BusyJiffies)
	total := float64(cur.TotalJiffies) - float64(prev.TotalJiffies)
	f := busy / total
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// CPUShare samples the host's busy fraction incrementally: each Sample
// call returns the busy fraction since the previous call (the first call
// primes the baseline and returns 1). Reads that fail — /proc missing in
// a container, a torn read — also return 1, so the attribution layer
// degrades to "charge the whole window" instead of dropping joules on the
// floor.
type CPUShare struct {
	Root string // "" = /proc

	prev CPUTime
	have bool
}

// Sample returns the busy fraction since the last call.
func (s *CPUShare) Sample() float64 {
	const fallback = 1 // no delta: charge the whole window
	cur, err := ReadCPUTime(s.Root)
	if err != nil {
		s.have = false
		return fallback
	}
	if !s.have {
		s.prev, s.have = cur, true
		return fallback
	}
	stale := cur.TotalJiffies <= s.prev.TotalJiffies
	f := BusyFraction(s.prev, cur)
	s.prev = cur
	if stale {
		// No jiffies elapsed (sub-tick sampling) or the counter reset:
		// there is no delta to attribute, so fall back rather than
		// report an artificial 0.
		return fallback
	}
	return f
}
