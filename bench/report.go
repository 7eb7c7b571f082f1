package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metricDef describes one metric the harness reports: its unit, which
// direction is better, and for an end-to-end metric the bound by which
// it may worsen before -verify (or a later change) calls it a
// regression. abs bounds are absolute differences, the others shares of
// the first value. exact metrics are functions of the seed alone and
// must repeat bit for bit.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
	abs    bool
	exact  bool
}

// endToEnd is the full set of end-to-end metrics; each workload reports
// the ones that mean something on it (see README.md). Every wall-clock
// figure carries the bound of 0.25 the registered metrics carry: ISSUE.md
// asked for 0.10 to 0.20, which the reference box does not repeat
// within (README.md has the measured spreads).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "iters_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "iter_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "iter_p99_us", unit: "us", better: "lower", bound: 0.25},
	{name: "fail_ratio", unit: "ratio", better: "lower", bound: 0, abs: true, exact: true},
	{name: "over_grant_max", unit: "ratio", better: "lower", bound: 0.005, abs: true, exact: true},
	{name: "mean_accuracy", unit: "ratio", better: "higher", bound: 0.005, abs: true, exact: true},
	{name: "heap_mb", unit: "MB", better: "lower", bound: 0.20},
	{name: "sessions_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "register_p99_us", unit: "us", better: "lower", bound: 0.25},
	{name: "snapshot_s", unit: "s", better: "lower", bound: 0.25},
	{name: "restore_s", unit: "s", better: "lower", bound: 0.25},
	{name: "adopt_s", unit: "s", better: "lower", bound: 0.25},
	{name: "sweep_s", unit: "s", better: "lower", bound: 0.25},
	{name: "rel_err_mean_pct", unit: "%", better: "lower", bound: 0.02, abs: true, exact: true},
	{name: "eff_acc_mean", unit: "ratio", better: "higher", bound: 0.002, abs: true, exact: true},
}

func endToEndDef(name string) (metricDef, bool) {
	for _, d := range endToEnd {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// value is one reported number with its true sample count.
type value struct {
	name string
	unit string
	v    float64
	n    int
}

// report is everything one run of one workload produced.
type report struct {
	workload   string
	regime     string
	e2e        []value // the workload's own end-to-end metrics
	layer      []value // per-layer metrics (traced run)
	common     []value // the metrics BENCHMARK.json registers
	proc       []value // process-wide cost of the timed part
	ops        int     // unit operations the timed part completed
	lanes      int     // operations in flight at once (tenants, workers)
	records    int     // logged iterations one recovery cycle rebuilds
	opMid      float64 // latency of the workload's unit operation, us
	opP90      float64
	overGrant  float64 // worst spend/grant seen
	accuracy   float64 // delivered accuracy
	attempted  int
	failed     int
	digest     uint64 // tenant 0's decision digest (0 where there is none)
	violations []string
	notes      []string
}

func (r *report) add(name string, v float64, n int) {
	d, ok := endToEndDef(name)
	if !ok {
		panic("bench: unregistered end-to-end metric " + name)
	}
	r.e2e = append(r.e2e, value{name: name, unit: d.unit, v: v, n: n})
}

func (r *report) addLayer(name, unit string, v float64, n int) {
	r.layer = append(r.layer, value{name: name, unit: unit, v: v, n: n})
}

func (r *report) get(name string) (float64, bool) {
	for _, v := range r.e2e {
		if v.name == name {
			return v.v, true
		}
	}
	return 0, false
}

// commonDefs are the end-to-end metrics BENCHMARK.json registers: the
// ones every workload can report, each derived from the workload's own
// metrics (README.md has the table).
var commonDefs = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "op_mid_us", unit: "us", better: "lower", bound: 0.25},
	{name: "op_p90_us", unit: "us", better: "lower", bound: 0.25},
	{name: "heap_mb", unit: "MB", better: "lower", bound: 0.20},
	{name: "over_grant_max", unit: "ratio", better: "lower", bound: 0.03},
	{name: "accuracy", unit: "ratio", better: "higher", bound: 0.02},
}

// layerDefs are the per-layer metrics a traced run reports, in the order
// it reports them; a metric the run could not measure reads 0.
var layerDefs = []metricDef{
	{name: "apps.step_us", unit: "us", better: "lower"},
	{name: "broker.admit_release_us", unit: "us", better: "lower"},
	{name: "broker.note_spend_ns", unit: "ns", better: "lower"},
	{name: "broker.tenants", unit: "count", better: "lower"},
	{name: "client.done_us", unit: "us", better: "lower"},
	{name: "client.donenext_us", unit: "us", better: "lower"},
	{name: "client.failovers", unit: "count", better: "lower"},
	{name: "client.next_us", unit: "us", better: "lower"},
	{name: "client.open_us", unit: "us", better: "lower"},
	{name: "client.retries", unit: "count", better: "lower"},
	{name: "client.v2_pipe_donenext_us", unit: "us", better: "lower"},
	{name: "cluster.beats", unit: "count", better: "lower"},
	{name: "cluster.extend_us", unit: "us", better: "lower"},
	{name: "cluster.extends", unit: "count", better: "lower"},
	{name: "cluster.heartbeat_iters", unit: "count", better: "lower"},
	{name: "cluster.heartbeat_us", unit: "us", better: "lower"},
	{name: "cluster.place_us", unit: "us", better: "lower"},
	{name: "cluster.replay_wal_ms", unit: "ms", better: "lower"},
	{name: "control.step_ns", unit: "ns", better: "lower"},
	{name: "core.step_ns", unit: "ns", better: "lower"},
	{name: "experiments.sweep_cell_ms", unit: "ms", better: "lower"},
	{name: "guard.observe_ns", unit: "ns", better: "lower"},
	{name: "ladder.cluster_us", unit: "us", better: "lower"},
	{name: "ladder.top_gap_pct", unit: "%", better: "lower"},
	{name: "ladder.v1.client_pipe_us", unit: "us", better: "lower"},
	{name: "ladder.v1.client_us", unit: "us", better: "lower"},
	{name: "ladder.v1.core_us", unit: "us", better: "lower"},
	{name: "ladder.v1.online_us", unit: "us", better: "lower"},
	{name: "ladder.v1.server_http_us", unit: "us", better: "lower"},
	{name: "ladder.v1.server_us", unit: "us", better: "lower"},
	{name: "ladder.v2.client_pipe_us", unit: "us", better: "lower"},
	{name: "ladder.v2.client_us", unit: "us", better: "lower"},
	{name: "ladder.v2.core_us", unit: "us", better: "lower"},
	{name: "ladder.v2.online_us", unit: "us", better: "lower"},
	{name: "ladder.v2.server_us", unit: "us", better: "lower"},
	{name: "ladder.v2.wire_us", unit: "us", better: "lower"},
	{name: "learning.best_arm_ns", unit: "ns", better: "lower"},
	{name: "learning.observe_ns", unit: "ns", better: "lower"},
	{name: "measure.sample_us", unit: "us", better: "lower"},
	{name: "measure.window_ns", unit: "ns", better: "lower"},
	{name: "online.done_ns", unit: "ns", better: "lower"},
	{name: "online.next_ns", unit: "ns", better: "lower"},
	{name: "par.workers", unit: "count", better: "higher"},
	{name: "platform.rate_ns", unit: "ns", better: "lower"},
	{name: "proc.allocs_per_iter", unit: "count", better: "lower"},
	{name: "proc.cpu_s_per_kiter", unit: "s", better: "lower"},
	{name: "proc.gc_cpu_frac", unit: "ratio", better: "lower"},
	{name: "proc.steal_frac", unit: "ratio", better: "lower"},
	{name: "qos.check_next_ns", unit: "ns", better: "lower"},
	{name: "qos.observe_us", unit: "us", better: "lower"},
	{name: "server.adopt_ms", unit: "ms", better: "lower"},
	{name: "server.allocs_per_iter", unit: "count", better: "lower"},
	{name: "server.close_us", unit: "us", better: "lower"},
	{name: "server.done_ns", unit: "ns", better: "lower"},
	{name: "server.done_p99_ns", unit: "ns", better: "lower"},
	{name: "server.export_us", unit: "us", better: "lower"},
	{name: "server.http_done_us", unit: "us", better: "lower"},
	{name: "server.http_next_us", unit: "us", better: "lower"},
	{name: "server.log_bytes_per_iter", unit: "B", better: "lower"},
	{name: "server.next_ns", unit: "ns", better: "lower"},
	{name: "server.next_p99_ns", unit: "ns", better: "lower"},
	{name: "server.register_us", unit: "us", better: "lower"},
	{name: "server.restore_ms", unit: "ms", better: "lower"},
	{name: "server.snapshot_ms", unit: "ms", better: "lower"},
	{name: "sim.run_iter_ns", unit: "ns", better: "lower"},
	{name: "telemetry.record_decision_ns", unit: "ns", better: "lower"},
	{name: "telemetry.scrape_ms", unit: "ms", better: "lower"},
	{name: "telemetry.series", unit: "count", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
	{name: "wire.v1_bytes_per_iter", unit: "B", better: "lower"},
	{name: "wire.v1_json_codec_ns", unit: "ns", better: "lower"},
	{name: "wire.v2_bytes_per_iter", unit: "B", better: "lower"},
	{name: "wire.v2_decode_ns", unit: "ns", better: "lower"},
	{name: "wire.v2_encode_ns", unit: "ns", better: "lower"},
}

// setCommon derives the registered metrics. setups holds every cold
// set-up this run measured; their median is the set-up time.
func (r *report) setCommon(setups []float64) {
	var ops float64
	if v, ok := r.get("iters_per_s"); ok {
		ops = v
	} else if v, ok := r.get("sessions_per_s"); ok {
		ops = v
	} else if v, ok := r.get("sweep_s"); ok && v > 0 {
		ops = float64(r.ops) / v
	} else if snap, ok := r.get("snapshot_s"); ok {
		rest, _ := r.get("restore_s")
		adopt, _ := r.get("adopt_s")
		ops = safeDiv(float64(r.records), snap+rest+adopt)
	}
	// Where the workload has no per-operation latency sample of its own
	// (see README.md), both latency figures are the mean time one
	// operation occupies one of the workload's concurrent lanes.
	mid, p90 := r.opMid, r.opP90
	if mid == 0 || p90 == 0 {
		mean := safeDiv(1e6*float64(max(r.lanes, 1)), ops)
		mid, p90 = mean, mean
	}
	heap, _ := r.get("heap_mb")
	vals := []float64{median(setups), ops, mid, p90, heap, r.overGrant, r.accuracy}
	r.common = r.common[:0]
	for i, d := range commonDefs {
		r.common = append(r.common, value{name: d.name, unit: d.unit, v: vals[i], n: 1})
	}
}

func (r *report) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes the human-readable report: one line per metric, in the
// fixed form "-verify" parses back.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s\n", r.workload)
	fmt.Fprintf(w, "regime %s\n", r.regime)
	for _, v := range r.e2e {
		d, _ := endToEndDef(v.name)
		fmt.Fprintf(w, "metric %-18s %s %s better=%s n=%d bound=%s\n",
			v.name, formatValue(v.v), v.unit, d.better, v.n, boundString(d))
	}
	for _, v := range r.common {
		fmt.Fprintf(w, "common %-18s %s %s\n", v.name, formatValue(v.v), v.unit)
	}
	for _, v := range r.layer {
		fmt.Fprintf(w, "layer %-28s %s %s n=%d\n", v.name, formatValue(v.v), v.unit, v.n)
	}
	if r.digest != 0 {
		fmt.Fprintf(w, "digest %016x\n", r.digest)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	for _, v := range r.violations {
		fmt.Fprintf(w, "VIOLATION %s\n", v)
	}
	fmt.Fprintf(w, "checks %s (%d attempted, %d failed)\n", passFail(len(r.violations) == 0), r.attempted, r.failed)
}

func passFail(ok bool) string {
	if ok {
		return "passed"
	}
	return "FAILED"
}

func boundString(d metricDef) string {
	switch {
	case d.exact && d.abs:
		return fmt.Sprintf("%gabs,exact", d.bound)
	case d.abs:
		return fmt.Sprintf("%gabs", d.bound)
	}
	return fmt.Sprintf("%g", d.bound)
}

// formatValue keeps every digit a float64 carries: the driver refuses a
// time that reads the same on every run, and exact metrics are compared
// bit for bit through this text.
func formatValue(v float64) string {
	if math.IsNaN(v) {
		return "NaN"
	}
	return fmt.Sprintf("%.17g", v)
}

// jsonLine renders the driver's result line.
func (r *report) jsonLine(traced bool) string {
	vals := r.common
	if traced {
		vals = r.layer
	}
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`,
		len(r.violations) == 0 && r.failed == 0, max(r.attempted, 1), r.failed)
	for i, v := range vals {
		if i > 0 {
			b.WriteString(", ")
		}
		x := v.v
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, v.name, formatValue(x), v.unit)
	}
	b.WriteString("}}")
	return b.String()
}

// rankedShares renders "where does the time go": each rung's self time
// as a share of the top span, largest first.
func rankedShares(self map[string]float64, total float64) string {
	type kv struct {
		k string
		v float64
	}
	var rows []kv
	for k, v := range self {
		rows = append(rows, kv{k, v})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].v != rows[j].v {
			return rows[i].v > rows[j].v
		}
		return rows[i].k < rows[j].k
	})
	var parts []string
	for _, r := range rows {
		parts = append(parts, fmt.Sprintf("%s %.2fus (%.1f%%)", r.k, r.v/1e3, 100*r.v/total))
	}
	return strings.Join(parts, ", ")
}
