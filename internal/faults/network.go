// Network fault injection: the transport-layer sibling of the
// sensor/clock/actuator models. A Fabric stands between every HTTP hop
// of a test cluster — client to node, member to coordinator, standby to
// primary — and perturbs requests the way real networks do: messages
// dropped, duplicated, and whole pairs of endpoints partitioned from
// each other. Like every model in this package, the stochastic behaviour
// is a pure function of the seed, so a chaos run that found a hole is
// replayed exactly by naming its seed.
package faults

import (
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"jouleguard/internal/telemetry"
)

// NetRules are one endpoint pair's (or the fabric-wide default's)
// stochastic perturbations. Zero values inject nothing.
type NetRules struct {
	// DropP loses each request independently with this probability; the
	// sender sees a transport error, the receiver sees nothing.
	DropP float64
	// DupP delivers each request twice with this probability — the
	// retransmission double-delivery every at-least-once transport
	// exhibits. The caller sees the second response, so idempotency
	// holes surface as state corruption, not test flakes.
	DupP float64
}

// Fabric is a seeded network-fault plane for an in-process cluster.
// Endpoints register under stable names; every component then talks
// through Transport(name), and the fabric decides per request — from
// the seed and nothing else — whether it is dropped, duplicated, or
// blocked by a partition.
type Fabric struct {
	mu    sync.Mutex
	rng   *rand.Rand
	names map[string]string // host:port -> endpoint name
	rules map[string]NetRules
	def   NetRules
	parts map[string]bool // "a|b" with a < b
	sink  telemetry.Sink

	drops, dups, blocked int
}

// NewFabric builds a fault plane; all stochastic decisions flow from
// seed.
func NewFabric(seed int64) *Fabric {
	return &Fabric{
		rng:   rand.New(rand.NewSource(seed)),
		names: map[string]string{},
		rules: map[string]NetRules{},
		parts: map[string]bool{},
	}
}

// SetSink attaches a telemetry sink; every perturbed request is
// reported on the network fault channel.
func (f *Fabric) SetSink(s telemetry.Sink) {
	f.mu.Lock()
	f.sink = s
	f.mu.Unlock()
}

// Register names an endpoint by its host:port so destination addresses
// resolve to fabric identities.
func (f *Fabric) Register(name, hostport string) {
	f.mu.Lock()
	f.names[hostport] = name
	f.mu.Unlock()
}

// SetDefault applies rules to every hop without a pair-specific rule.
func (f *Fabric) SetDefault(r NetRules) {
	f.mu.Lock()
	f.def = r
	f.mu.Unlock()
}

// SetRules applies rules to the src->dst hop (directional).
func (f *Fabric) SetRules(src, dst string, r NetRules) {
	f.mu.Lock()
	f.rules[src+">"+dst] = r
	f.mu.Unlock()
}

func pairKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}

// Partition blocks all traffic between a and b (both directions) until
// Heal.
func (f *Fabric) Partition(a, b string) {
	f.mu.Lock()
	f.parts[pairKey(a, b)] = true
	f.mu.Unlock()
}

// Heal removes the a-b partition.
func (f *Fabric) Heal(a, b string) {
	f.mu.Lock()
	delete(f.parts, pairKey(a, b))
	f.mu.Unlock()
}

// Stats reports how many requests the fabric perturbed, by kind.
func (f *Fabric) Stats() (drops, dups, blocked int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.drops, f.dups, f.blocked
}

// verdict is one request's fate, decided under the fabric lock so the
// rng consumption order — and therefore the whole schedule — is
// deterministic for a serialized request sequence under a fixed seed.
type verdict struct {
	blocked bool
	drop    bool
	dup     bool
	dst     string
}

func (f *Fabric) decide(src, hostport string) verdict {
	f.mu.Lock()
	defer f.mu.Unlock()
	dst, known := f.names[hostport]
	if !known {
		return verdict{dst: hostport}
	}
	if f.parts[pairKey(src, dst)] {
		f.blocked++
		f.reportLocked()
		return verdict{blocked: true, dst: dst}
	}
	r, ok := f.rules[src+">"+dst]
	if !ok {
		r = f.def
	}
	if r.DropP == 0 && r.DupP == 0 {
		return verdict{dst: dst}
	}
	v := verdict{dst: dst}
	if f.rng.Float64() < r.DropP {
		v.drop = true
		f.drops++
		f.reportLocked()
		return v
	}
	if f.rng.Float64() < r.DupP {
		v.dup = true
		f.dups++
		f.reportLocked()
	}
	return v
}

func (f *Fabric) reportLocked() {
	if f.sink != nil {
		f.sink.FaultInjected(telemetry.FaultNetwork)
	}
}

// netTransport is the http.RoundTripper the fabric hands each endpoint.
type netTransport struct {
	fabric *Fabric
	src    string
	next   http.RoundTripper
}

// Transport returns the RoundTripper endpoint src must send through.
// next nil uses http.DefaultTransport.
func (f *Fabric) Transport(src string, next http.RoundTripper) http.RoundTripper {
	if next == nil {
		next = http.DefaultTransport
	}
	return &netTransport{fabric: f, src: src, next: next}
}

// Client returns an http.Client sending through the fabric.
func (f *Fabric) Client(src string, timeout time.Duration) *http.Client {
	return &http.Client{Transport: f.Transport(src, nil), Timeout: timeout}
}

// RoundTrip implements http.RoundTripper.
func (t *netTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	v := t.fabric.decide(t.src, req.URL.Host)
	switch {
	case v.blocked:
		return nil, fmt.Errorf("faults: %s -> %s partitioned", t.src, v.dst)
	case v.drop:
		// The receiver never sees the request; consume the body so the
		// sender's connection bookkeeping stays sane.
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, fmt.Errorf("faults: %s -> %s request dropped", t.src, v.dst)
	}
	if v.dup {
		// Deliver twice: the first response is discarded, the caller sees
		// the second — exactly what a retransmitted-but-also-delivered
		// request does to a non-idempotent endpoint. Requests whose body
		// cannot be replayed (no GetBody) pass through singly.
		switch {
		case req.Body == nil:
			first := req.Clone(req.Context())
			if resp, err := t.next.RoundTrip(first); err == nil {
				resp.Body.Close()
			}
		case req.GetBody != nil:
			first := req.Clone(req.Context())
			if body, err := req.GetBody(); err == nil {
				first.Body = body
				if resp, err := t.next.RoundTrip(first); err == nil {
					resp.Body.Close()
				}
				if body2, err := req.GetBody(); err == nil {
					orig := req.Body
					second := req.Clone(req.Context())
					second.Body = body2
					req = second
					orig.Close()
				}
			}
		}
	}
	return t.next.RoundTrip(req)
}
