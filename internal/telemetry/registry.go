package telemetry

import (
	"fmt"
	"hash/fnv"
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
// Metric updates are lock-free atomics so the hot control path never
// contends with a scrape.

// Label is one constant name="value" pair attached to a metric at
// registration time.
type Label struct {
	Name, Value string
}

// numStripes is how many cells a Counter or a Histogram spreads its
// writes over. Every session of the governor daemon writes the same
// couple of dozen process-wide counters on every iteration; with one
// cell each, two sessions on two cores spend more time handing those
// cache lines back and forth than deciding. A writer bound to a stripe
// (WithSession) touches only that stripe's line, and readers sum the
// stripes, so totals are what one cell would hold. It is a constant, not
// a knob: more stripes than cores that run sessions buy nothing, fewer
// collide, and 8 lines per counter is small next to one session's state.
const numStripes = 8

// cacheLine is the padding unit that keeps two stripes off one line.
const cacheLine = 64

// Stripe selects one of a striped metric's cells. Any value is valid;
// only its low bits count.
type Stripe uint8

// StripeOf maps a session id to its stripe (FNV-1a over the id), so the
// session's sink and anything else that reports on its behalf agree
// without passing the stripe around.
func StripeOf(session string) Stripe {
	h := fnv.New32a()
	_, _ = h.Write([]byte(session)) // a hash.Hash never fails a Write
	return Stripe(h.Sum32() % numStripes)
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

// Counter is a monotonically increasing value, striped: each stripe is a
// float64 stored as atomic bits on a cache line of its own, so Add is
// lock-free and writers on different stripes do not contend.
type Counter struct {
	stripes [numStripes]struct {
		bits atomic.Uint64
		_    [cacheLine - 8]byte
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.AddOn(0, 1) }

// Add adds delta; negative or non-finite deltas are ignored (a counter
// only goes up).
func (c *Counter) Add(delta float64) { c.AddOn(0, delta) }

// AddOn is Add on the given stripe.
func (c *Counter) AddOn(s Stripe, delta float64) {
	if !(delta > 0) || math.IsInf(delta, 0) {
		return
	}
	addFloat(&c.stripes[s%numStripes].bits, delta)
}

// Value returns the current count: the sum of the stripes.
func (c *Counter) Value() float64 {
	var v float64
	for i := range c.stripes {
		v += math.Float64frombits(c.stripes[i].bits.Load())
	}
	return v
}

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value; non-finite values are ignored so a NaN
// from a degenerate iteration cannot corrupt the exposition.
func (g *Gauge) Set(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	g.bits.Store(math.Float64bits(v))
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
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// unset returns the gauge to the state of one never set: the exposition
// carries its family's HELP and TYPE lines but no sample, so a reading
// nothing wrote is not taken for a zero. Set never stores a NaN, so the
// marker cannot collide with a value.
func (g *Gauge) unset() { g.bits.Store(math.Float64bits(math.NaN())) }

// Histogram counts observations into fixed cumulative buckets. Bounds
// are the inclusive upper edges in ascending order; the +Inf bucket is
// implicit. Observations are lock-free and striped like a Counter's: a
// stripe is a run of whole cache lines in cells holding the stripe's sum
// (float64 bits) followed by its len(bounds)+1 bucket counts. The
// observation count is not stored; it is the buckets' total.
type Histogram struct {
	bounds []float64
	stride int // cells per stripe
	cells  []atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	const perLine = cacheLine / 8
	stride := (1 + len(bounds) + 1 + perLine - 1) / perLine * perLine
	return &Histogram{bounds: bounds, stride: stride, cells: make([]atomic.Uint64, numStripes*stride)}
}

// stripe returns stripe s's cells: the sum, then the buckets.
func (h *Histogram) stripe(s int) (sum *atomic.Uint64, buckets []atomic.Uint64) {
	cells := h.cells[s*h.stride:]
	return &cells[0], cells[1 : 2+len(h.bounds)]
}

// Observe records one sample; non-finite samples are dropped.
func (h *Histogram) Observe(v float64) { h.ObserveOn(0, v) }

// ObserveOn is Observe on the given stripe.
func (h *Histogram) ObserveOn(s Stripe, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	sum, buckets := h.stripe(int(s % numStripes))
	buckets[sort.SearchFloat64s(h.bounds, v)].Add(1)
	addFloat(sum, v)
}

// bucketCounts returns the per-bucket (not cumulative) counts, +Inf last,
// summed over the stripes.
func (h *Histogram) bucketCounts() []uint64 {
	out := make([]uint64, len(h.bounds)+1)
	for s := 0; s < numStripes; s++ {
		_, buckets := h.stripe(s)
		for i := range buckets {
			out[i] += buckets[i].Load()
		}
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
func (h *Histogram) Sum() float64 {
	var v float64
	for s := 0; s < numStripes; s++ {
		sum, _ := h.stripe(s)
		v += math.Float64frombits(sum.Load())
	}
	return v
}

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

// DurationBuckets is the fixed schema for iteration durations, spanning
// 100µs to ~100s.
func DurationBuckets() []float64 { return ExpBuckets(1e-4, math.Sqrt(10), 13) }

// MicroDurationBuckets is the duration schema for the v2-era hot path,
// spanning 1µs to ~3s in half-decade steps. The original
// DurationBuckets start at 100µs — chosen for millisecond-scale v1 JSON
// round trips — which collapses the entire ~1.5µs in-process / ~99µs v2
// decision distribution into the first bucket; decision and iteration
// histograms use this schema instead.
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

// MetricNames returns the registered family names, in registration
// order. Tests use it to assert every metric appears in the exposition.
func (r *Registry) MetricNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.families))
	for i, f := range r.families {
		out[i] = f.name
	}
	return out
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): one HELP and TYPE line per family followed by
// its samples; histograms expand into cumulative _bucket series plus
// _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
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
