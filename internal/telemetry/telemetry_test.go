package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// exercise drives every Sink method, with decisions carrying every
// flag, so each registered metric carries state.
func exercise(s Sink, iters int) {
	for i := 0; i < iters; i++ {
		s.RecordDecision(Decision{
			Iter: i, AppConfig: i % 3, SysConfig: i % 5, NextApp: i % 3, NextSys: i % 5,
			SEURate: 10, SEUPower: 20, SEUEfficiency: 0.5, EstimatorGain: 0.85,
			BestArm: 1, Explored: i%4 == 0, Epsilon: 0.3,
			SpeedupCmd: 1.5, TargetRate: 12, PIError: 0.5, Pole: 0.1,
			EnergyUsedJ: float64(i), BudgetRemainingJ: float64(100 - i), AllowedJPerIter: 0.9,
			Sane: true, GuardAccepted: i%7 != 0, Estimated: i%7 == 0,
			ActuationMiss: i%9 == 0, Degraded: false, Infeasible: false,
			Stepped: true, Updated: true, UpdatedGain: 0.85, Tripped: i == iters-1,
		})
		s.FaultInjected(uint8(i % 3))
		s.IterationDone(0.01*float64(1+i%5), i%7 != 0, uint8(i%7), 20+float64(i%10))
		s.JobStart(10 - i%10)
		s.JobDone(i%13 == 0)
	}
}

var (
	helpRe = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) .*$`)
	typeRe = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$`)
	// A sample line: name, optional {label="value",...}, then a float.
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})? ((?:[-+]?(?:[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?))|[-+]?Inf|NaN)$`)
)

// TestPrometheusExpositionGrammar asserts the rendered exposition obeys
// the text-format grammar for every registered metric: each family has
// exactly one HELP and one TYPE line, every sample line parses, and
// every histogram's cumulative buckets are monotone and agree with its
// _count.
func TestPrometheusExpositionGrammar(t *testing.T) {
	tel := New(64)
	exercise(tel, 50)
	var buf bytes.Buffer
	if err := tel.Registry.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	typed := map[string]string{}
	helped := map[string]bool{}
	samples := map[string][]float64{} // full sample name -> values
	var lastBucket struct {
		family string
		cum    float64
	}
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			m := helpRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed HELP line %q", ln+1, line)
			}
			if helped[m[1]] {
				t.Fatalf("line %d: duplicate HELP for %q", ln+1, m[1])
			}
			helped[m[1]] = true
		case strings.HasPrefix(line, "# TYPE "):
			m := typeRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed TYPE line %q", ln+1, line)
			}
			if _, dup := typed[m[1]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %q", ln+1, m[1])
			}
			typed[m[1]] = m[2]
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unexpected comment %q", ln+1, line)
		default:
			m := sampleRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed sample line %q", ln+1, line)
			}
			v, err := strconv.ParseFloat(m[3], 64)
			if err != nil && m[3] != "+Inf" && m[3] != "-Inf" && m[3] != "NaN" {
				t.Fatalf("line %d: bad sample value %q", ln+1, m[3])
			}
			samples[m[1]] = append(samples[m[1]], v)
			// Histogram bucket monotonicity, in emission order.
			if strings.HasSuffix(m[1], "_bucket") {
				fam := strings.TrimSuffix(m[1], "_bucket")
				if lastBucket.family == fam+m[2][:strings.Index(m[2], "le=")] {
					// Same child (shared constant-label prefix): cumulative.
					if v < lastBucket.cum {
						t.Fatalf("line %d: bucket counts not cumulative in %q", ln+1, line)
					}
				}
				lastBucket.family = fam + m[2][:strings.Index(m[2], "le=")]
				lastBucket.cum = v
			}
		}
	}
	for _, f := range tel.Registry.families {
		name := f.name
		typ, ok := typed[name]
		if !ok {
			t.Fatalf("metric %q has no TYPE line", name)
		}
		if !helped[name] {
			t.Fatalf("metric %q has no HELP line", name)
		}
		switch typ {
		case "histogram":
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if len(samples[name+suffix]) == 0 {
					t.Fatalf("histogram %q missing %s samples", name, suffix)
				}
			}
			// +Inf bucket must equal _count.
			if got, want := samples[name+"_bucket"][len(samples[name+"_bucket"])-1], samples[name+"_count"][0]; got != want {
				t.Fatalf("histogram %q: +Inf bucket %v != count %v", name, got, want)
			}
		default:
			if len(samples[name]) == 0 {
				t.Fatalf("%s %q has no samples", typ, name)
			}
		}
	}
	// Spot-check values: 50 decisions, 1 watchdog trip.
	if got := samples["jouleguard_decisions_total"]; len(got) != 1 || got[0] != 50 {
		t.Fatalf("decisions_total = %v, want [50]", got)
	}
	if got := samples["jouleguard_watchdog_trips_total"]; len(got) != 1 || got[0] != 1 {
		t.Fatalf("watchdog_trips_total = %v, want [1]", got)
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(2.5)
	c.Add(-4) // ignored: counters only go up
	c.Add(math.NaN())
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	g := r.Gauge("g", "a gauge")
	g.Set(4)
	g.Set(math.Inf(1)) // ignored
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %v, want 4", got)
	}
	h := r.Histogram("h", "a histogram", []float64{1, 10})
	for _, v := range []float64{0.5, 5, 50, math.NaN()} {
		h.Observe(v)
	}
	if h.Count() != 3 || h.Sum() != 55.5 {
		t.Fatalf("histogram count=%d sum=%v, want 3/55.5", h.Count(), h.Sum())
	}
	// Re-registration returns the same instance.
	if r.Counter("c_total", "a counter") != c {
		t.Fatal("re-registration built a second counter")
	}
	// Same family, different labels: distinct children.
	a := r.Counter("lbl_total", "labelled", Label{"k", "a"})
	b := r.Counter("lbl_total", "labelled", Label{"k", "b"})
	if a == b {
		t.Fatal("distinct labelsets share a counter")
	}
}

func TestFlightRecorderWindow(t *testing.T) {
	tel := New(4)
	for i := 0; i < 10; i++ {
		tel.RecordDecision(Decision{Iter: i})
	}
	snap := tel.Decisions("", 0, 0)
	if total := tel.proc.window.total; total != 10 || len(snap) != 4 {
		t.Fatalf("total=%d len=%d, want 10/4", total, len(snap))
	}
	for i, d := range snap {
		if want := 6 + i; d.Iter != want {
			t.Fatalf("snapshot[%d].Iter = %d, want %d (oldest-first window)", i, d.Iter, want)
		}
	}
	var buf bytes.Buffer
	if err := writeJSONL(&buf, snap[len(snap)-2:]); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("JSONL lines = %d, want 2", len(lines))
	}
	var d Decision
	if err := json.Unmarshal([]byte(lines[1]), &d); err != nil {
		t.Fatal(err)
	}
	if d.Iter != 9 {
		t.Fatalf("last JSONL decision iter = %d, want 9", d.Iter)
	}
}

func TestJSONLSanitisesNonFinite(t *testing.T) {
	tel := New(2)
	tel.RecordDecision(Decision{Iter: 1, PIError: math.NaN(), TargetRate: math.Inf(1)})
	var buf bytes.Buffer
	if err := writeJSONL(&buf, tel.Decisions("", 0, 0)); err != nil {
		t.Fatalf("non-finite fields must not break JSONL export: %v", err)
	}
	var d Decision
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if d.PIError != 0 || d.TargetRate != 0 {
		t.Fatalf("non-finite fields not clamped: %+v", d)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	tel := New(32)
	exercise(tel, 10)
	srv := httptest.NewServer(tel.Handler())
	defer srv.Close()

	get := func(path string) (string, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ct := get("/metrics")
	if !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}
	if !strings.Contains(body, "# TYPE jouleguard_decisions_total counter") {
		t.Fatalf("/metrics missing decision counter:\n%s", body)
	}

	body, _ = get("/healthz")
	if !strings.HasPrefix(body, "ok\n") {
		t.Fatalf("/healthz = %q", body)
	}

	body, ct = get("/decisions?n=3")
	if ct != "application/x-ndjson" {
		t.Fatalf("/decisions content type %q", ct)
	}
	sc := bufio.NewScanner(strings.NewReader(body))
	n := 0
	for sc.Scan() {
		var d Decision
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("decision line %d: %v", n, err)
		}
		n++
	}
	if n != 3 {
		t.Fatalf("/decisions?n=3 returned %d lines", n)
	}

	if resp, err := srv.Client().Get(srv.URL + "/decisions?n=bogus"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Fatalf("bad n: status %d, want 400", resp.StatusCode)
		}
	}

	body, _ = get("/debug/pprof/cmdline")
	if body == "" {
		t.Fatal("pprof cmdline endpoint empty")
	}
}

// TestNopSinkZeroAlloc pins the contract the instrumentation relies on:
// calling the disabled sink allocates nothing, so leaving telemetry off
// costs nothing on the control path.
func TestNopSinkZeroAlloc(t *testing.T) {
	var s Sink = Nop{}
	d := Decision{Iter: 1, SEURate: 10, SEUPower: 20}
	allocs := testing.AllocsPerRun(1000, func() {
		s.RecordDecision(d)
		s.FaultInjected(0)
		s.IterationDone(0.01, true, 0, 20)
		s.JobStart(3)
		s.JobDone(false)
	})
	if allocs != 0 {
		t.Fatalf("no-op sink allocates %v per iteration, want 0", allocs)
	}
}

// The live sink must also stay alloc-free per event — the flight
// recorder copies into a pre-allocated ring and the metrics are atomics.
func TestLiveSinkZeroAlloc(t *testing.T) {
	tel := New(64)
	var s Sink = tel
	d := Decision{Iter: 1, SEURate: 10, SEUPower: 20}
	allocs := testing.AllocsPerRun(1000, func() {
		s.RecordDecision(d)
		s.FaultInjected(0)
		s.IterationDone(0.01, true, 0, 20)
	})
	if allocs != 0 {
		t.Fatalf("live sink allocates %v per iteration, want 0", allocs)
	}
}

func TestOrNop(t *testing.T) {
	if OrNop(nil) == nil {
		t.Fatal("OrNop(nil) must return a usable sink")
	}
	tel := New(8)
	if OrNop(tel) != Sink(tel) {
		t.Fatal("OrNop must pass a non-nil sink through")
	}
}
