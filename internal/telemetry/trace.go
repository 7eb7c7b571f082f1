package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"sync"
	"sync/atomic"
)

// Distributed iteration tracing. A trace is a 64-bit id minted by the
// client (head-based sampling: most iterations mint nothing and the
// whole layer is an untaken branch); every hop the traced iteration
// crosses — client send, daemon decode, bandit decision, guard verdict,
// broker debit, coordinator lease mutation — records one Span into its
// process's bounded SpanBuffer. Buffers are joined across processes by
// trace id: each node serves its window at /traces, and a cross-node
// query is just the union of the per-node answers.
//
// The recording discipline mirrors the flight recorder: Span is a value
// struct copied into a pre-allocated ring slot under a mutex, and span
// names are package-level constants, so recording allocates nothing and
// the 0 allocs/op decision path survives with tracing compiled in.

// DefaultSpanCapacity is the span window kept when no capacity is given.
const DefaultSpanCapacity = 4096

// Span names recorded by the stack, one per hop. Constants so recording
// a span never builds a string.
const (
	SpanClientSend  = "client.send"     // client issues the iteration round-trip
	SpanDecode      = "daemon.decode"   // daemon decodes the wire request (v1 or v2)
	SpanDecision    = "bandit.decision" // SEO/AAO pick the next configuration
	SpanGuard       = "guard.verdict"   // sensing guard rules on the sample
	SpanBrokerDebit = "broker.debit"    // session ledger debited for the spend
	SpanCoordLease  = "coord.lease"     // coordinator books the spend against the lease
)

// Span is one hop of one traced iteration. IDs render as fixed-width
// hex in JSON (the join key a human greps across nodes); times are
// seconds on the recording process's clock — clocks are not assumed
// synchronized across nodes, so cross-node ordering comes from the
// parent links, not the timestamps.
type Span struct {
	Trace  uint64
	ID     uint64
	Parent uint64

	Name    string
	Node    string // recording process identity ("" until SetNode)
	Session string // daemon session id ("" for client-side spans)

	StartS float64
	EndS   float64

	// Optional attributes: joules moved at this hop, and the iteration
	// index it belongs to (-1 = not an iteration-scoped span).
	AttrJ    float64
	AttrIter int
}

// spanJSON is the export form: ids as 16-hex-digit strings.
type spanJSON struct {
	Trace   string  `json:"trace"`
	ID      string  `json:"id"`
	Parent  string  `json:"parent,omitempty"`
	Name    string  `json:"name"`
	Node    string  `json:"node,omitempty"`
	Session string  `json:"session,omitempty"`
	StartS  float64 `json:"start_s"`
	EndS    float64 `json:"end_s"`
	AttrJ   float64 `json:"joules,omitempty"`
	Iter    int     `json:"iter"`
}

// FormatID renders a trace or span id the way /traces exports it.
func FormatID(id uint64) string {
	const hexdig = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdig[id&0xf]
		id >>= 4
	}
	return string(b[:])
}

// ParseID parses a 1..16-hex-digit id (the /traces query format).
func ParseID(s string) (uint64, bool) {
	if s == "" || len(s) > 16 {
		return 0, false
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 | uint64(c-'a'+10)
		case c >= 'A' && c <= 'F':
			v = v<<4 | uint64(c-'A'+10)
		default:
			return 0, false
		}
	}
	return v, true
}

// mix64 is the splitmix64 finalizer: a cheap bijective scramble that
// turns a counter into ids with well-spread bits.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// MintTraceID derives trace id n of a stream seeded with seed; ids are
// nonzero (0 on the wire means "untraced").
func MintTraceID(seed, n uint64) uint64 {
	id := mix64(seed ^ mix64(n+0x9e3779b97f4a7c15))
	if id == 0 {
		id = 1
	}
	return id
}

// SpanBuffer is a bounded ring of spans — the flight recorder's shape,
// applied to trace hops. One SpanBuffer serves a process.
type SpanBuffer struct {
	mu    sync.Mutex
	buf   []Span
	total uint64
	node  string
	next  atomic.Uint64 // span-id counter, scrambled through mix64
	seed  uint64
}

// NewSpanBuffer builds a buffer holding the last capacity spans
// (DefaultSpanCapacity if <= 0).
func NewSpanBuffer(capacity int) *SpanBuffer {
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	return &SpanBuffer{buf: make([]Span, capacity)}
}

// SetNode stamps the process identity onto every span recorded from now
// on (and the seed that keeps span ids distinct across processes).
func (b *SpanBuffer) SetNode(node string) {
	b.mu.Lock()
	b.node = node
	seed := uint64(14695981039346656037)
	for i := 0; i < len(node); i++ {
		seed ^= uint64(node[i])
		seed *= 1099511628211
	}
	b.seed = seed
	b.mu.Unlock()
}

// Node returns the process identity set by SetNode ("" before it).
func (b *SpanBuffer) Node() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.node
}

// NextID mints a fresh span id, unique within this process and
// well-spread across processes that called SetNode with distinct names.
func (b *SpanBuffer) NextID() uint64 {
	id := mix64(b.seed ^ b.next.Add(1))
	if id == 0 {
		id = 1
	}
	return id
}

// Record appends one span, overwriting the oldest once full. A zero
// trace id is ignored so callers can record unconditionally.
func (b *SpanBuffer) Record(s Span) {
	if s.Trace == 0 {
		return
	}
	b.mu.Lock()
	if s.Node == "" {
		s.Node = b.node
	}
	b.buf[b.total%uint64(len(b.buf))] = s
	b.total++
	b.mu.Unlock()
}

// Snapshot returns the recorded window oldest-first, optionally
// filtered to one trace id (0 = everything).
func (b *SpanBuffer) Snapshot(trace uint64) []Span {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := int(b.total)
	if n > len(b.buf) {
		n = len(b.buf)
	}
	out := make([]Span, 0, n)
	start := b.total - uint64(n)
	for i := 0; i < n; i++ {
		s := b.buf[(start+uint64(i))%uint64(len(b.buf))]
		if trace == 0 || s.Trace == trace {
			out = append(out, s)
		}
	}
	return out
}

// WriteJSONL writes spans oldest-first, one JSON object per line,
// optionally filtered to one trace — the /traces exposition format.
func (b *SpanBuffer) WriteJSONL(w io.Writer, trace uint64) error {
	snap := b.Snapshot(trace)
	enc := json.NewEncoder(w)
	for i := range snap {
		s := snap[i]
		fin := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return v
		}
		j := spanJSON{
			Trace:   FormatID(s.Trace),
			ID:      FormatID(s.ID),
			Name:    s.Name,
			Node:    s.Node,
			Session: s.Session,
			StartS:  fin(s.StartS),
			EndS:    fin(s.EndS),
			AttrJ:   fin(s.AttrJ),
			Iter:    s.AttrIter,
		}
		if s.Parent != 0 {
			j.Parent = FormatID(s.Parent)
		}
		if err := enc.Encode(j); err != nil {
			return err
		}
	}
	return nil
}
