package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"jouleguard/internal/wire"
)

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.5, 30}, {0.25, 20}, {0.99, 49.6}, {1, 50}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN")
	}
}

// The reported quantile is the median of the segments' own quantiles,
// so a couple of disturbed segments cannot move it; the sample count is
// the true one.
func TestSegmentQuantilesIgnoreDisturbedSegments(t *testing.T) {
	segs := make([][]float64, segments)
	for s := range segs {
		for i := 1; i <= 100; i++ {
			v := float64(i)
			if s == 2 || s == 17 {
				v *= 50 // a stall, a noisy neighbour
			}
			segs[s] = append(segs[s], v)
		}
	}
	q, ok := segmentQuantiles(segs)
	if !ok || q.n != 100*segments {
		t.Fatalf("ok=%v n=%d, want true %d", ok, q.n, 100*segments)
	}
	if math.Abs(q.p50-50.5) > 1e-9 || math.Abs(q.p90-90.1) > 1e-9 || math.Abs(q.p99-99.01) > 1e-9 {
		t.Errorf("p50=%v p90=%v p99=%v, want the undisturbed segments' 50.5, 90.1 and 99.01", q.p50, q.p90, q.p99)
	}
	if want := (25.75 + 75.25) / 2; math.Abs(q.mid-want) > 1e-9 {
		t.Errorf("midhinge=%v, want %v", q.mid, want)
	}
}

func TestNoQuantileBelowHundredSamples(t *testing.T) {
	segs := [][]float64{{1, 2, 3}, {4, 5, 6}}
	q, ok := segmentQuantiles(segs)
	if ok || !math.IsNaN(q.p50) || q.n != 6 {
		t.Errorf("6 samples gave ok=%v p50=%v n=%d; want no quantile and the true count", ok, q.p50, q.n)
	}
	big := make([]float64, 200)
	if _, ok := segmentQuantiles([][]float64{big, nil}); ok {
		t.Error("an empty segment must withhold the quantile")
	}
}

func TestSplitEven(t *testing.T) {
	b := splitEven(103, 5)
	if b[0] != 0 || b[5] != 103 {
		t.Fatalf("bounds %v do not cover 0..103", b)
	}
	for i := 0; i < 5; i++ {
		if n := b[i+1] - b[i]; n < 20 || n > 21 {
			t.Errorf("part %d has %d items, want 20 or 21", i, n)
		}
	}
}

// The tenant model is deterministic: the same seed drives a governor to
// the same decisions, another seed to others.
func TestSameSeedSameDecisionDigest(t *testing.T) {
	m, err := newModel("radar", "Tablet")
	if err != nil {
		t.Fatal(err)
	}
	digest := func(seed int64) uint64 {
		ten := newTenant(m, tenantName(0), tenantSeed(seed, 0), 4000)
		l, err := newOnlineLink(ten)
		if err != nil {
			t.Fatal(err)
		}
		if r := drive(ten, l, 0, 0, timeSegments); r.err != nil {
			t.Fatal(r.err)
		}
		if ten.done != 4000 {
			t.Fatalf("tenant ran %d iterations, want 4000", ten.done)
		}
		return ten.digest
	}
	a, b, c := digest(1), digest(1), digest(7)
	if a != b {
		t.Errorf("seed 1 decided %016x then %016x", a, b)
	}
	if a == c {
		t.Errorf("seeds 1 and 7 decided the same sequence %016x", a)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	var l spanLog
	root := l.add("client", -1, 0, 0, 0, 100)
	pipe := l.add("client.pipe", root, 0, 0, 10, 70)
	l.add("server", pipe, 0, 0, 20, 50)
	l.add("server", pipe, 0, 0, 50, 60) // two children of one parent
	other := l.add("client", -1, 1, 0, 200, 230)
	l.add("client.pipe", other, 1, 0, 205, 225)
	self := selfTimes(l.spans)
	want := map[string]int64{"client": 40 + 10, "client.pipe": 20 + 20, "server": 30 + 10}
	total := int64(0)
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, self[name], w)
		}
		total += self[name]
	}
	if total != 100+30 {
		t.Errorf("self times sum to %d, want the root spans' 130", total)
	}
}

func TestCommonMetricsFallBackToMeanLatency(t *testing.T) {
	r := &report{ops: 1000, lanes: 2}
	r.add("iters_per_s", 500000, 1000)
	r.add("heap_mb", 12, 1)
	r.setCommon([]float64{0.3, 0.1, 0.2})
	got := map[string]float64{}
	for _, v := range r.common {
		got[v.name] = v.v
	}
	if got["setup_s"] != 0.2 || got["ops_per_s"] != 500000 || got["op_mid_us"] != 4 || got["op_p90_us"] != 4 {
		t.Errorf("common metrics %v: want median set-up 0.2, 500000 ops/s, 4us mean latency", got)
	}
	if len(r.common) != len(commonDefs) {
		t.Errorf("%d common metrics, want %d", len(r.common), len(commonDefs))
	}
}

// Every workload at N/1000: nothing is measured, every output check runs.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep := runWorkload(w, runConfig{seed: 3, seconds: refSeconds, smoke: true, outDir: t.TempDir()})
			for _, v := range rep.violations {
				t.Errorf("violation: %s", v)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%d failed of %d attempted", rep.failed, rep.attempted)
			}
			if v, ok := rep.get("fail_ratio"); !ok || v != 0 {
				t.Errorf("fail_ratio = %v (reported %v), want 0", v, ok)
			}
			line := rep.jsonLine(false)
			for _, d := range commonDefs {
				if !strings.Contains(line, `"`+d.name+`"`) {
					t.Errorf("result line lacks %s: %s", d.name, line)
				}
			}
		})
	}
}

// A check that finds something must fail the run.
func TestViolationFailsTheRun(t *testing.T) {
	rep := &report{workload: "x"}
	checkBroker(rep, wire.BrokerInfo{CommittedJ: 60, ConsumedJ: 50, GlobalJ: 100})
	if len(rep.violations) != 1 {
		t.Fatalf("over-committed broker raised %d violations, want 1", len(rep.violations))
	}
	if line := rep.jsonLine(false); !strings.Contains(line, `"correct": false`) {
		t.Errorf("result line %s does not report the violation", line)
	}
}

// BENCHMARK.json registers what the program reports: the same workloads,
// the same end-to-end metrics with the same bounds, the same per-layer
// metrics.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) || len(doc.EndToEnd) != len(commonDefs) || len(doc.PerLayer) != len(layerDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, %d end-to-end and %d per-layer metrics; the program %d, %d and %d",
			len(doc.Workloads), len(doc.EndToEnd), len(doc.PerLayer), len(workloads), len(commonDefs), len(layerDefs))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, doc.Workloads[i].Name, w.name)
		}
	}
	for i, d := range commonDefs {
		if g := doc.EndToEnd[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
			t.Errorf("end-to-end metric %d is %+v in BENCHMARK.json, %+v in the program", i, g, d)
		}
	}
	for i, d := range layerDefs {
		if g := doc.PerLayer[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
			t.Errorf("per-layer metric %d is %+v in BENCHMARK.json, %+v in the program", i, g, d)
		}
	}
}

// A traced run reports exactly the registered per-layer metrics, each
// once, and passes its own checks (the ladder's gap rule needs a sample
// a smoke run is too short for, so it is not exercised here).
func TestSmokeTracedRun(t *testing.T) {
	w, _ := workloadByName("v1_steady")
	rep := runWorkload(w, runConfig{seed: 3, seconds: refSeconds, smoke: true, trace: true, outDir: t.TempDir()})
	for _, v := range rep.violations {
		t.Errorf("violation: %s", v)
	}
	if len(rep.layer) != len(layerDefs) {
		t.Fatalf("%d per-layer metrics reported, %d registered", len(rep.layer), len(layerDefs))
	}
	for i, d := range layerDefs {
		if rep.layer[i].name != d.name {
			t.Errorf("per-layer metric %d is %s, want %s", i, rep.layer[i].name, d.name)
		}
	}
}
