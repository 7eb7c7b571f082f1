package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// cpuStat is the box's CPU accounting since boot (the first line of
// /proc/stat, in clock ticks): busy is the time its CPUs ran something,
// steal the time they had something to run and the hypervisor ran
// another guest instead. Zero where /proc/stat cannot be read.
type cpuStat struct{ busy, steal float64 }

func readCPUStat() cpuStat {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	defer f.Close()
	buf := make([]byte, 256)
	n, _ := f.Read(buf) // a short or failed read parses as no fields
	line, _, _ := strings.Cut(string(buf[:n]), "\n")
	fld := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(fld) < 9 || fld[0] != "cpu" {
		return cpuStat{}
	}
	var v [9]float64
	for i := 1; i < 9; i++ {
		v[i], _ = strconv.ParseFloat(fld[i], 64) // the kernel writes integers
	}
	return cpuStat{busy: v[1] + v[2] + v[3] + v[6] + v[7], steal: v[8]}
}

// givenShare is the share of the CPU time the box asked for between two
// readings that it was given: 1 where nothing was withheld.
func givenShare(a, b cpuStat) float64 {
	busy, steal := b.busy-a.busy, b.steal-a.steal
	if busy <= 0 || steal <= 0 {
		return 1
	}
	return busy / (busy + steal)
}

// netNS is the nanoseconds from a to b net of the hypervisor's share:
// the wall time scaled by the share of the CPU time asked for that the
// box was given. The reference box is a two-vCPU guest that loses from
// 0% to 30% of its CPU time to other guests, for tens of seconds at a
// time; over eight runs of v1_steady the wall-clock rate ranged over 33%
// of its median and the net rate over 19% (README.md). Rates, phase
// times and set-up time are net; a latency quantile is left as the
// clock read it.
func netNS(a, b instant) float64 {
	return float64(b.ns-a.ns) * givenShare(a.cpu, b.cpu)
}

// procSample is the process-wide cost counters at one instant.
type procSample struct {
	cpuS    float64 // rusage user+sys
	gcCPUS  float64 // estimated from the runtime's GC CPU fraction
	mallocs uint64
	wallNS  int64
	cpu     cpuStat
}

func readProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := procSample{
		cpuS:    tvSeconds(ru.Utime) + tvSeconds(ru.Stime),
		mallocs: ms.Mallocs,
		wallNS:  nowNS(),
		cpu:     readCPUStat(),
	}
	// GCCPUFraction is the share of available CPU (GOMAXPROCS x wall
	// since start) the collector has used so far.
	s.gcCPUS = ms.GCCPUFraction * float64(runtime.GOMAXPROCS(0)) * float64(s.wallNS) / 1e9
	return s
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// procDelta reports the process-wide per-layer metrics over an interval
// that performed ops operations.
func (r *report) procDelta(a, b procSample, ops int) {
	if ops < 1 {
		ops = 1
	}
	cpu := b.cpuS - a.cpuS
	r.proc = []value{
		{name: "proc.cpu_s_per_kiter", unit: "s", v: cpu / float64(ops) * 1e3, n: ops},
		{name: "proc.gc_cpu_frac", unit: "ratio", v: safeDiv(b.gcCPUS-a.gcCPUS, cpu), n: 1},
		{name: "proc.allocs_per_iter", unit: "count", v: float64(b.mallocs-a.mallocs) / float64(ops), n: ops},
		{name: "proc.steal_frac", unit: "ratio", v: 1 - givenShare(a.cpu, b.cpu), n: 1},
	}
	r.note("the hypervisor withheld %.1f%% of the CPU time this part of the run asked for", 100*(1-givenShare(a.cpu, b.cpu)))
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
