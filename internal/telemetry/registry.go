package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// The registry implements the subset of the Prometheus data model the
// runtime needs — counters, gauges and fixed-bucket histograms, with
// optional constant labels — and renders the text exposition format
// (version 0.0.4) that any Prometheus-compatible scraper ingests.
// Every metric is one cell (a histogram one row of cells), updated with
// lock-free atomics. The runtime's own events do not write the cells as
// they happen: each sink tallies under its owner's lock, and a read
// folds the tallies into the cells first (the collect hook), so a
// scrape contends with one owner at a time and totals are exact.

// Label is one constant name="value" pair attached to a metric at
// registration time.
type Label struct {
	Name, Value string
}

// cacheLine is the padding unit that keeps two cells off one line:
// a busy tenant's spend counter and burn gauge are written on every
// settle, from whichever core its session runs on, and would otherwise
// share a line with another tenant's.
const cacheLine = 64

// cell is one float64 stored as atomic bits on a cache line of its own.
type cell struct {
	bits atomic.Uint64
	_    [cacheLine - 8]byte
}

// addFloat adds delta to the float64 stored in cell as atomic bits.
func addFloat(cell *atomic.Uint64, delta float64) {
	for {
		old := cell.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if cell.CompareAndSwap(old, next) {
			return
		}
	}
}

// Counter is a monotonically increasing value: one lock-free cell.
type Counter struct{ c cell }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta; negative or non-finite deltas are ignored (a counter
// only goes up).
func (c *Counter) Add(delta float64) {
	if !(delta > 0) || math.IsInf(delta, 0) {
		return
	}
	addFloat(&c.c.bits, delta)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.c.bits.Load()) }

// Gauge is a value that can go up and down.
type Gauge struct{ c cell }

// Set replaces the gauge value; non-finite values are ignored so a NaN
// from a degenerate iteration cannot corrupt the exposition.
func (g *Gauge) Set(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	g.c.bits.Store(math.Float64bits(v))
}

// SetBool sets the gauge to 1 or 0.
func (g *Gauge) SetBool(b bool) {
	if b {
		g.Set(1)
	} else {
		g.Set(0)
	}
}

// Value returns the current value (NaN while unset).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.c.bits.Load()) }

// unset returns the gauge to the state of one never set: the exposition
// carries its family's HELP and TYPE lines but no sample, so a reading
// nothing wrote is not taken for a zero. Set never stores a NaN, so the
// marker cannot collide with a value.
func (g *Gauge) unset() { g.c.bits.Store(math.Float64bits(math.NaN())) }

// Histogram counts observations into fixed cumulative buckets. Bounds
// are the inclusive upper edges in ascending order; the +Inf bucket is
// implicit. Observations are lock-free: cells holds the sum (float64
// bits) followed by the len(bounds)+1 bucket counts. The observation
// count is not stored; it is the buckets' total.
type Histogram struct {
	bounds []float64
	cells  []atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, cells: make([]atomic.Uint64, 2+len(bounds))}
}

// Observe records one sample; non-finite samples are dropped.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	h.cells[1+sort.SearchFloat64s(h.bounds, v)].Add(1)
	addFloat(&h.cells[0], v)
}

// merge adds a batch of observations: counts holds how many fell in
// each bucket (+Inf last; entries past it are ignored) and sum their
// total.
func (h *Histogram) merge(counts []uint64, sum float64) {
	for i := range h.cells[1:] {
		if counts[i] > 0 {
			h.cells[1+i].Add(counts[i])
		}
	}
	if sum != 0 {
		addFloat(&h.cells[0], sum)
	}
}

// bucketCounts returns the per-bucket (not cumulative) counts, +Inf last.
func (h *Histogram) bucketCounts() []uint64 {
	out := make([]uint64, len(h.bounds)+1)
	for i := range out {
		out[i] = h.cells[1+i].Load()
	}
	return out
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for _, c := range h.bucketCounts() {
		n += c
	}
	return n
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.cells[0].Load()) }

// ExpBuckets returns n exponential bucket bounds starting at start and
// growing by factor — the fixed schema used for duration and power
// histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n <= 0 {
		return []float64{1}
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// MicroDurationBuckets is the duration schema for decision and iteration
// histograms, spanning 1µs to ~3s in half-decade steps: fine enough to
// resolve the ~1.5µs in-process and ~99µs v2 decision distributions.
func MicroDurationBuckets() []float64 { return ExpBuckets(1e-6, math.Sqrt(10), 14) }

// PowerBuckets is the fixed schema for power samples, spanning 0.25W to
// ~256W.
func PowerBuckets() []float64 { return ExpBuckets(0.25, 2, 11) }

// metricKind is the exposition TYPE of a family.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// child is one labelled instance within a family.
type child struct {
	labels    []Label
	counter   *Counter
	gauge     *Gauge
	histogram *Histogram
}

// family groups all children sharing a metric name.
type family struct {
	name     string
	help     string
	kind     metricKind
	children []*child
}

// Registry holds metric families and renders them. Metric handles
// returned by Counter/Gauge/Histogram are stable and lock-free to
// update; registration takes the registry lock.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
	// collect, when set, brings the metric cells up to date before a
	// render: Telemetry installs its fold of the session tallies.
	collect func()
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// Counter registers (or returns the existing) counter with the given
// name and constant labels.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.register(name, help, kindCounter, labels, nil).counter
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.register(name, help, kindGauge, labels, nil).gauge
}

// Histogram registers (or returns the existing) histogram with the given
// fixed bucket bounds (ascending upper edges; +Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	return r.register(name, help, kindHistogram, labels, bounds).histogram
}

// register finds or creates the (family, labelset) child, complete with
// its metric, under the registry lock — a scrape may be walking the
// family while a new labelled series is registered. Invalid names and
// mismatched kinds panic: metric registration happens at construction
// time with static names, so a violation is a programming error, not a
// runtime condition. bounds is read for a new histogram only.
func (r *Registry) register(name, help string, kind metricKind, labels []Label, bounds []float64) *child {
	if !validMetricName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validLabelName(l.Name) {
			panic(fmt.Sprintf("telemetry: invalid label name %q on %q", l.Name, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.byName[name] = f
		r.families = append(r.families, f)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %s (was %s)", name, kind, f.kind))
	}
	for _, c := range f.children {
		if sameLabels(c.labels, labels) {
			return c
		}
	}
	c := &child{labels: append([]Label(nil), labels...)}
	switch kind {
	case kindCounter:
		c.counter = &Counter{}
	case kindGauge:
		c.gauge = &Gauge{}
	case kindHistogram:
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		c.histogram = newHistogram(b)
	}
	f.children = append(f.children, c)
	return c
}

func sameLabels(a, b []Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i, r := range s {
		ok := r == '_' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): one HELP and TYPE line per family followed by
// its samples; histograms expand into cumulative _bucket series plus
// _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r.collect != nil {
		r.collect()
	}
	// Families and their children are append-only, so the slice headers
	// copied under the lock are a stable view of everything registered so
	// far; the values are read lock-free.
	type view struct {
		fam      *family
		children []*child
	}
	r.mu.Lock()
	views := make([]view, len(r.families))
	for i, f := range r.families {
		views[i] = view{f, f.children}
	}
	r.mu.Unlock()
	var b strings.Builder
	for _, v := range views {
		f := v.fam
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, c := range v.children {
			switch f.kind {
			case kindCounter:
				writeSample(&b, f.name, c.labels, nil, c.counter.Value())
			case kindGauge:
				if v := c.gauge.Value(); !math.IsNaN(v) {
					writeSample(&b, f.name, c.labels, nil, v)
				}
			case kindHistogram:
				h := c.histogram
				counts := h.bucketCounts()
				var cum uint64
				for i, bound := range h.bounds {
					cum += counts[i]
					writeSample(&b, f.name+"_bucket", c.labels,
						&Label{"le", formatFloat(bound)}, float64(cum))
				}
				cum += counts[len(h.bounds)]
				writeSample(&b, f.name+"_bucket", c.labels, &Label{"le", "+Inf"}, float64(cum))
				writeSample(&b, f.name+"_sum", c.labels, nil, h.Sum())
				writeSample(&b, f.name+"_count", c.labels, nil, float64(cum))
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeSample emits one `name{labels} value` line. extra is an
// additional label (the histogram `le`) appended after the constant
// labels.
func writeSample(b *strings.Builder, name string, labels []Label, extra *Label, v float64) {
	b.WriteString(name)
	if len(labels) > 0 || extra != nil {
		b.WriteByte('{')
		first := true
		for _, l := range labels {
			if !first {
				b.WriteByte(',')
			}
			first = false
			fmt.Fprintf(b, "%s=%q", l.Name, escapeLabelValue(l.Value))
		}
		if extra != nil {
			if !first {
				b.WriteByte(',')
			}
			fmt.Fprintf(b, "%s=%q", extra.Name, escapeLabelValue(extra.Value))
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

// formatFloat renders a sample value; the exposition format uses Go's
// shortest-representation float syntax.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes backslashes and newlines per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabelValue escapes backslashes and newlines; %q adds the quote
// escaping.
func escapeLabelValue(s string) string {
	return strings.ReplaceAll(s, "\n", `\n`)
}
