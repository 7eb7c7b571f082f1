// Package client is the governor daemon's client library: it mirrors
// the in-process OnlineController contract — bracket each unit of work
// with Next/Done — over the wire protocol of internal/wire, so an
// application ports from local to remote governance in a handful of
// lines:
//
//	sess, _ := client.Open(ctx, client.Options{
//		BaseURL: "http://localhost:7077", Tenant: "encoder",
//		App: "x264", Platform: "Server", Iterations: 500, Factor: 2,
//	}, readEnergyJ, nowSeconds)
//	defer sess.Close(ctx)
//	for i := 0; i < frames; i++ {
//		appCfg, sysCfg, _ := sess.Next(ctx)
//		applyConfigs(appCfg, sysCfg)
//		encodeFrame(i)
//		sess.Done(ctx, measuredAccuracy)
//	}
//
// Every call takes a context: cancellation aborts in-flight v1 requests
// and the retry/backoff loop alike, so a caller bounds a v1 call (every
// attempt and backoff sleep in it) with its ctx. A round on the v2 frame
// stream does not watch ctx: it ends when the daemon answers or the
// connection fails.
//
// Transient transport failures and daemon restarts are absorbed by
// capped exponential backoff (internal/backoff, the same loop sysfs
// actuation runs): connection errors, a 5xx that carries no protocol
// code, and the refusals wire's error table classes Retry (draining,
// throttled, ...) are retried against the same node; every other
// refusal returns at once. A daemon restart that loses the
// in-flight iteration is re-bracketed transparently: the server's
// sequencing contract (wire.CodeBadSequence) tells the client exactly
// which side of the bracket was lost, and the cumulative energy meter
// lets the restored governor's sensing guard reconcile the gap.
//
// In a fleet (Options.CoordinatorURL + Options.Key), the client also
// rides through node death: when the owning daemon becomes unreachable
// or refuses its lease, the client asks the coordinator where the
// session lives now, re-registers there (attaching by key to the
// failed-over session), and catches the restored state up by replaying
// its own record of completed iterations that the coordinator had not
// yet acked — so the migrated governor resumes from exactly the
// decision history the application experienced.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"jouleguard/internal/backoff"
	"jouleguard/internal/telemetry"
	"jouleguard/internal/wire"
)

// RetryPolicy controls how wire calls survive transient failures, with
// capped exponential backoff between attempts. Unset fields default to
// 8 attempts, 25ms before the first retry and a 1s cap; a nil Sleep
// waits on a timer that cancelling the call's context cuts short.
type RetryPolicy = backoff.Policy

var defaultRetry = RetryPolicy{MaxAttempts: 8, BaseDelay: 25 * time.Millisecond, MaxDelay: time.Second}

// Options configures a remote session; the registration fields mirror
// wire.RegisterRequest.
type Options struct {
	BaseURL string // daemon address, e.g. "http://localhost:7077"

	// CoordinatorURL points at the fleet coordinator. When set (with
	// Key), Open asks the coordinator which node owns the session and
	// registers there, and session calls fail over to the session's new
	// owner when the current node dies. BaseURL may then be empty.
	CoordinatorURL string
	// CoordinatorURLs is the ordered failover list tried after
	// CoordinatorURL: when the active coordinator is unreachable, still a
	// standby (not_primary), or deposed (stale_epoch), placement rotates
	// to the next entry. Placements carry a fencing epoch; the client
	// keeps the highest one seen and discards answers from older reigns.
	CoordinatorURLs []string
	// Key is the stable cross-node session identity (required for
	// coordinator placement and failover).
	Key string

	Tenant      string
	Tier        string // QoS tier claim: guaranteed | standard | best-effort ("" = standard)
	Weight      float64
	App         string
	Platform    string
	Iterations  int
	Factor      float64 // energy-reduction factor; or
	BudgetJ     float64 // absolute joule request; both zero = weighted share
	MinAccuracy float64
	Seed        int64
	IdleTimeout time.Duration // server-side idle expiry override

	// DisableV2 pins the session to v1 JSON/HTTP even when the daemon
	// offers the v2 frame stream (diagnostics; v1 is always available).
	DisableV2 bool

	// TraceEvery head-samples distributed traces: every TraceEvery-th
	// governed round-trip (and always the first) mints a 64-bit trace
	// context that rides the wire and is recorded at every hop. 0 means
	// the default 1/256; negative disables tracing entirely.
	TraceEvery int
	// Tracer records the client-side root spans of sampled rounds (nil:
	// contexts are still minted and propagated, but nothing is recorded
	// locally).
	Tracer *telemetry.SpanBuffer

	HTTPClient *http.Client // default: a tuned keep-alive pool (defaultHTTPClient)
	Retry      RetryPolicy
}

// defaultHTTPClient is the v1 transport used when Options.HTTPClient is
// nil. http.DefaultClient caps idle conns per host at 2, which
// serializes a many-session process onto a trickle of connections and
// pays a TCP handshake per call beyond them; the hot path lives or dies
// on connection reuse, so the pool is sized explicitly.
var defaultHTTPClient = &http.Client{
	Transport: &http.Transport{
		Proxy:               http.ProxyFromEnvironment,
		ForceAttemptHTTP2:   true,
		MaxIdleConns:        1024,
		MaxIdleConnsPerHost: 256,
		IdleConnTimeout:     90 * time.Second,
	},
}

// Error is a protocol-level failure carrying the daemon's stable code.
type Error struct {
	Code    string
	Message string
	Status  int
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("client: %s (%s, HTTP %d)", e.Message, e.Code, e.Status)
}

// iterHist is the client's own record of one completed iteration — the
// raw observations it reported. It is what failover catch-up replays,
// which is why the restored governor's state is bit-identical: the new
// node sees exactly the samples the old one did.
type iterHist struct {
	nextNow   float64
	doneNow   float64
	energyJ   float64
	energyErr bool
	accuracy  float64
}

// Session is a remote-governed control loop. Not safe for concurrent
// use — like the OnlineController it mirrors, one Session belongs to
// one control loop.
type Session struct {
	id         string
	base       string
	coords     []string // ordered coordinator list; empty outside a fleet
	coordIdx   int      // index of the coordinator currently believed primary
	fence      int64    // highest coordinator fencing epoch seen
	reg        wire.RegisterRequest
	httpc      *http.Client
	retry      RetryPolicy
	readEnergy func() (float64, error)
	now        func() float64

	grantJ     float64
	iterations int
	appConfigs int
	sysConfigs int

	armed    bool
	armedNow float64
	lastDone wire.DoneResponse
	closed   bool

	num        uint32    // numeric session id for v2 frame headers (0 = v1 only)
	v2         *v2Stream // the stream this session owns, nil until Open takes one
	v2Off      bool      // v2 off for the current node (dial failed / closed)
	v2Disabled bool      // v2 off for the session's lifetime (Options.DisableV2)

	hist     []iterHist // ring of completed iterations [histBase, histBase+len)
	histBase int
	histHead int // ring slot holding iteration histBase

	traceEvery int // sampled round-trips per trace (0 = disabled)
	tracer     *telemetry.SpanBuffer
	traceSeed  uint64
	rounds     uint64 // governed round-trips issued (sampling counter)
	curTrace   uint64 // context of the iteration currently armed
	curSpan    uint64
	lastTrace  uint64 // most recent minted trace id (introspection)

	failovers      int
	coordFailovers int
}

// Open registers a session with the daemon: over a v2 stream it takes
// from the idle pool (or dials) when the daemon offers one, else over v1.
// readEnergy returns the application's cumulative joule counter; now
// returns seconds on a monotone clock — the same instruments NewOnline
// takes, measured client-side so network latency never pollutes the
// intervals.
func Open(ctx context.Context, opts Options, readEnergy func() (float64, error), now func() float64) (*Session, error) {
	coords := make([]string, 0, 1+len(opts.CoordinatorURLs))
	if opts.CoordinatorURL != "" {
		coords = append(coords, strings.TrimRight(opts.CoordinatorURL, "/"))
	}
	for _, u := range opts.CoordinatorURLs {
		coords = append(coords, strings.TrimRight(u, "/"))
	}
	if opts.BaseURL == "" && len(coords) == 0 {
		return nil, fmt.Errorf("client: need BaseURL or CoordinatorURL")
	}
	if len(coords) > 0 && opts.Key == "" {
		return nil, fmt.Errorf("client: coordinator placement requires a session Key")
	}
	if readEnergy == nil || now == nil {
		return nil, fmt.Errorf("client: nil energy reader or clock")
	}
	httpc := opts.HTTPClient
	if httpc == nil {
		httpc = defaultHTTPClient
	}
	traceEvery := opts.TraceEvery
	if traceEvery == 0 {
		traceEvery = 256
	} else if traceEvery < 0 {
		traceEvery = 0
	}
	s := &Session{
		base:       strings.TrimRight(opts.BaseURL, "/"),
		coords:     coords,
		httpc:      httpc,
		retry:      opts.Retry.Or(defaultRetry),
		readEnergy: readEnergy,
		now:        now,
		v2Disabled: opts.DisableV2,
		traceEvery: traceEvery,
		tracer:     opts.Tracer,
	}
	seed := uint64(14695981039346656037)
	for _, b := range []byte(opts.Tenant + "\x00" + opts.Key) {
		seed = (seed ^ uint64(b)) * 1099511628211
	}
	s.traceSeed = seed ^ uint64(opts.Seed)
	s.reg = wire.RegisterRequest{
		Tenant:       opts.Tenant,
		Tier:         opts.Tier,
		Key:          opts.Key,
		Weight:       opts.Weight,
		App:          opts.App,
		Platform:     opts.Platform,
		Iterations:   opts.Iterations,
		Factor:       opts.Factor,
		BudgetJ:      opts.BudgetJ,
		MinAccuracy:  opts.MinAccuracy,
		Seed:         opts.Seed,
		IdleTimeoutS: opts.IdleTimeout.Seconds(),
	}
	if len(s.coords) > 0 {
		place, err := s.place(ctx)
		if err != nil {
			return nil, err
		}
		s.base = place.Addr
	}
	resp, ok := s.v2Register()
	if !ok {
		if err := s.call(ctx, "POST", wire.BasePath, s.reg, &resp); err != nil {
			s.v2Release()
			return nil, err
		}
	}
	s.id = resp.SessionID
	s.num = resp.SessionNum
	s.grantJ = resp.GrantJ
	s.iterations = resp.Iterations
	s.appConfigs = resp.AppConfigs
	s.sysConfigs = resp.SysConfigs
	return s, nil
}

// ID returns the daemon-assigned session id.
func (s *Session) ID() string { return s.id }

// GrantJ returns the joule budget the broker committed to this session.
func (s *Session) GrantJ() float64 { return s.grantJ }

// Iterations returns the registered workload length.
func (s *Session) Iterations() int { return s.iterations }

// Configs returns the sizes of the application and system configuration
// spaces the daemon decides over.
func (s *Session) Configs() (app, sys int) { return s.appConfigs, s.sysConfigs }

// LastStatus returns the ledger view from the most recent Done.
func (s *Session) LastStatus() wire.DoneResponse { return s.lastDone }

// Failovers reports how many times this session migrated to a new node.
func (s *Session) Failovers() int { return s.failovers }

// CoordFailovers reports how many times placement switched to a
// different coordinator in the ordered list.
func (s *Session) CoordFailovers() int { return s.coordFailovers }

// Fence reports the highest coordinator fencing epoch this session has
// seen.
func (s *Session) Fence() int64 { return s.fence }

// LastTraceID reports the most recently minted trace id (0 until the
// first sampled round) — the handle tests and harnesses use to join the
// trace across nodes.
func (s *Session) LastTraceID() uint64 { return s.lastTrace }

// mintTrace head-samples the upcoming governed round-trip: every
// traceEvery-th round (and always the first, so even short sessions
// leave one trace) mints a trace context; every other round returns
// zeros and tracing is an untaken branch the rest of the way down.
func (s *Session) mintTrace() (trace, span uint64) {
	if s.traceEvery == 0 {
		return 0, 0
	}
	n := s.rounds
	s.rounds++
	if n%uint64(s.traceEvery) != 0 {
		return 0, 0
	}
	trace = telemetry.MintTraceID(s.traceSeed, n)
	if s.tracer != nil {
		span = s.tracer.NextID()
	} else {
		span = telemetry.MintTraceID(trace, n)
	}
	s.lastTrace = trace
	return trace, span
}

// recordClientSpan records the client-side root span of a sampled
// round-trip (the hop every server-side span parents to).
func (s *Session) recordClientSpan(trace, span uint64, startS, endS float64, iter int) {
	if s.tracer == nil || trace == 0 {
		return
	}
	s.tracer.Record(telemetry.Span{
		Trace: trace, ID: span,
		Name: telemetry.SpanClientSend, Session: s.id,
		StartS: startS, EndS: endS, AttrIter: iter,
	})
}

// Next fetches the configurations for the upcoming iteration and starts
// its interval on the local clock. If the previous iteration's Done was
// lost to a daemon restart, Next transparently re-brackets: the daemon's
// bad-sequence reply is resolved by reporting the lost iteration as an
// estimated observation first.
func (s *Session) Next(ctx context.Context) (appCfg, sysCfg int, err error) {
	if s.closed {
		return 0, 0, fmt.Errorf("client: session %s is closed", s.id)
	}
	nowS := s.now()
	trace, span := s.mintTrace()
	req := wire.NextRequest{NowS: nowS, TraceID: trace, SpanID: span}
	if s.v2Ok() {
		if resp, ok := s.v2Next(req); ok {
			s.armed = true
			s.armedNow = nowS
			s.curTrace, s.curSpan = trace, span
			s.recordClientSpan(trace, span, nowS, s.now(), resp.Iter)
			return resp.AppConfig, resp.SysConfig, nil
		}
		// Any v2 failure — stream death or a server-reported error —
		// falls through to v1, whose machinery owns error recovery.
	}
	var resp wire.NextResponse
	err = s.call(ctx, "POST", s.path("next"), req, &resp)
	if s.shouldFailover(err) {
		if ferr := s.failover(ctx); ferr != nil {
			return 0, 0, errors.Join(err, ferr)
		}
		err = s.call(ctx, "POST", s.path("next"), req, &resp)
	}
	if IsCode(err, wire.CodeBadSequence) && !s.armed {
		// The daemon believes an iteration is armed but we never issued
		// one it remembers — a retried Next whose first reply was lost.
		// Settle the phantom bracket with an estimated sample, then ask
		// again.
		if derr := s.reportDone(ctx, 1, true); derr != nil {
			return 0, 0, fmt.Errorf("client: recovering lost Next reply: %w", derr)
		}
		nowS = s.now()
		req.NowS = nowS
		err = s.call(ctx, "POST", s.path("next"), req, &resp)
	}
	if err != nil {
		return 0, 0, err
	}
	s.armed = true
	s.armedNow = nowS
	s.curTrace, s.curSpan = trace, span
	s.recordClientSpan(trace, span, nowS, s.now(), resp.Iter)
	return resp.AppConfig, resp.SysConfig, nil
}

// Done reports the completed iteration: the local clock, the cumulative
// energy reading and the application's accuracy measure. If the daemon
// restarted and lost the bracket, Done re-brackets the iteration
// (Next then Done) so the work — and its energy, reconciled through the
// cumulative counter — is still accounted.
func (s *Session) Done(ctx context.Context, accuracy float64) error {
	if s.closed {
		return fmt.Errorf("client: session %s is closed", s.id)
	}
	err := s.reportDone(ctx, accuracy, false)
	if s.shouldFailover(err) {
		if ferr := s.failover(ctx); ferr != nil {
			return errors.Join(err, ferr)
		}
		err = s.reportDone(ctx, accuracy, false)
	}
	if IsCode(err, wire.CodeBadSequence) {
		// The daemon lost our Next to a restart or migration: its
		// restored state sits at the last completed iteration.
		// Re-bracket: issue Next (we discard the decision — the work
		// already ran) and report again.
		var nresp wire.NextResponse
		nowS := s.now()
		if nerr := s.call(ctx, "POST", s.path("next"), wire.NextRequest{NowS: nowS}, &nresp); nerr != nil {
			return fmt.Errorf("client: re-bracketing after daemon restart: %w", nerr)
		}
		s.armedNow = nowS
		err = s.reportDone(ctx, accuracy, false)
	}
	if err != nil {
		return err
	}
	s.armed = false
	return nil
}

// reportDone sends one Done sample. estimated forces the energy-error
// flag so the daemon treats the sample as a model-based estimate (used
// when settling a phantom bracket whose work we cannot attribute).
func (s *Session) reportDone(ctx context.Context, accuracy float64, estimated bool) error {
	energy, eerr := s.readEnergy()
	req := wire.DoneRequest{
		NowS:      s.now(),
		EnergyJ:   energy,
		EnergyErr: eerr != nil || estimated,
		Accuracy:  accuracy,
		// The settle rides the trace minted when this iteration was armed.
		TraceID: s.curTrace,
		SpanID:  s.curSpan,
	}
	if s.v2Ok() {
		if resp, ok := s.v2Done(req); ok {
			s.settleDone(req, resp)
			return nil
		}
	}
	var resp wire.DoneResponse
	if err := s.call(ctx, "POST", s.path("done"), req, &resp); err != nil {
		return err
	}
	s.settleDone(req, resp)
	return nil
}

// historyCap bounds the completed-iteration record kept for failover
// catch-up; iterations past the window are replayed as estimated
// observations instead of exact ones.
const historyCap = 4096

// record appends one completed iteration to the failover history. Once
// the window is full it overwrites the oldest ring slot — record runs
// once per governed iteration, and sliding a 4096-entry window down by
// one per call was the client hot loop's largest single cost.
func (s *Session) record(h iterHist) {
	if len(s.hist) < historyCap {
		s.hist = append(s.hist, h)
		return
	}
	s.hist[s.histHead] = h
	s.histHead = (s.histHead + 1) % len(s.hist)
	s.histBase++
}

// histAt returns the record for absolute iteration i; the caller must
// keep histBase <= i < histBase+len(hist).
func (s *Session) histAt(i int) iterHist {
	return s.hist[(s.histHead+(i-s.histBase))%len(s.hist)]
}

// Info fetches the daemon's introspection view of this session,
// including the governor's learned per-arm estimates.
func (s *Session) Info(ctx context.Context) (wire.SessionInfo, error) {
	var info wire.SessionInfo
	err := s.call(ctx, "GET", s.path(""), nil, &info)
	return info, err
}

// Close tears the session down, releasing its budget grant to the
// broker and its v2 stream to the idle pool. Closing an already closed
// session does nothing and reports no error; every other call on it
// fails.
func (s *Session) Close(ctx context.Context) error {
	if s.closed {
		return nil
	}
	resp, ok := s.v2Close()
	if !ok {
		if err := s.call(ctx, "DELETE", s.path(""), nil, &resp); err != nil {
			// The session stays open, on v1: a daemon that cannot be asked
			// to close is no daemon to keep streams to.
			s.v2Teardown(false)
			return err
		}
	}
	s.v2Release()
	s.closed = true
	s.lastDone.SpentJ = resp.SpentJ
	return nil
}

func (s *Session) path(op string) string {
	p := wire.BasePath + "/" + s.id
	if op != "" {
		p += "/" + op
	}
	return p
}

// ---------------------------------------------------------------------
// Fleet failover.

// shouldFailover decides whether an error means "this node no longer
// serves the session" rather than "this call failed": the call burned
// its whole retry budget, or the node refused it with a Failover-class
// code (a shed session, for one, is gone from this node; re-placing
// gives the tenant its one legitimate recovery path, and fleet policy
// decides whether the new owner will actually have it back).
func (s *Session) shouldFailover(err error) bool {
	if err == nil || len(s.coords) == 0 || s.reg.Key == "" {
		return false
	}
	return errors.Is(err, backoff.ErrExhausted) || classOf(err) == wire.Failover
}

// classOf is the recovery class of the refusal err carries (Final when
// it carries none).
func classOf(err error) wire.Class {
	var e *Error
	if errors.As(err, &e) {
		return wire.ClassOf(e.Code)
	}
	return wire.Final
}

// place asks the coordinators, in order from the one last known to
// serve, where the session lives. An unreachable coordinator and a
// Rotate-class refusal (a standby answering not_primary, a deposed
// primary answering stale_epoch) both move on to the next entry, the
// refusal without a single retry; a placement carrying a fence older
// than the highest one seen is discarded the same way — grants and
// placements from a deposed reign must never be acted on. The per-entry
// call retries through the no_nodes window while a failover is still
// restoring the session on its new owner.
func (s *Session) place(ctx context.Context) (wire.PlacementResponse, error) {
	var lastErr error
	for i := 0; i < len(s.coords); i++ {
		idx := (s.coordIdx + i) % len(s.coords)
		var place wire.PlacementResponse
		err := s.callTo(ctx, s.coords[idx], "GET", wire.ClusterBasePath+"/sessions/"+s.reg.Key, nil, &place)
		if err == nil {
			if place.Fence < s.fence {
				lastErr = &Error{Code: wire.CodeStaleEpoch, Status: wire.Status(wire.CodeStaleEpoch),
					Message: fmt.Sprintf("placement from fence %d, have seen %d; dropped", place.Fence, s.fence)}
				continue
			}
			if idx != s.coordIdx {
				s.coordIdx = idx
				s.coordFailovers++
			}
			s.fence = place.Fence
			return place, nil
		}
		lastErr = err
		if errors.Is(err, backoff.ErrExhausted) || classOf(err) == wire.Rotate {
			continue
		}
		return wire.PlacementResponse{}, err
	}
	return wire.PlacementResponse{}, lastErr
}

// failover migrates the client to the session's new owner: re-place via
// the coordinator, re-register there (attaching by key to the restored
// session), then replay from local history whatever completed
// iterations the restored state is missing. After it returns, the new
// node's governor has seen every sample the application produced, in
// order — the same state an uninterrupted run would hold.
//
// The coordinator only expires a dead owner after its lease TTL, so the
// first placements may still point at the corpse (or answer no_nodes
// while the reassignment is in flight); the loop re-places with backoff
// until a live owner takes the session.
//
// Only a Final refusal ends the loop early: every other failure —
// an exhausted call, no_nodes, a coordinator list still waiting for its
// standby to promote, tenant enforcement on the re-register path (it
// lifts once the tenant's ladder de-escalates) — resolves with time.
func (s *Session) failover(ctx context.Context) error {
	_, err := s.retry.DoContext(ctx, func() error {
		err := s.failoverOnce(ctx)
		if err != nil && classOf(err) == wire.Final && !errors.Is(err, backoff.ErrExhausted) {
			return backoff.Permanent(err)
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("client: failover of %q: %w", s.reg.Key, err)
	}
	s.failovers++
	return nil
}

func (s *Session) failoverOnce(ctx context.Context) error {
	place, err := s.place(ctx)
	if err != nil {
		return fmt.Errorf("client: failover placement for %q: %w", s.reg.Key, err)
	}
	s.base = strings.TrimRight(place.Addr, "/")
	// The old stream points at the dead node; the new owner assigns a
	// fresh numeric id, so v2 re-dials lazily after re-registration.
	s.v2Teardown(true)
	var resp wire.RegisterResponse
	if err := s.call(ctx, "POST", wire.BasePath, s.reg, &resp); err != nil {
		return fmt.Errorf("client: failover re-register on %s: %w", place.Node, err)
	}
	s.id = resp.SessionID
	s.num = resp.SessionNum

	// Catch up: the restored session sits at resp.IterationsDone; we
	// completed histBase+len(hist). Replay the gap from our own record —
	// exact samples where the window still holds them, estimated
	// observations beyond it.
	completed := s.histBase + len(s.hist)
	for i := resp.IterationsDone; i < completed; i++ {
		var req wire.DoneRequest
		nextNow := s.now()
		if i >= s.histBase {
			h := s.histAt(i)
			nextNow = h.nextNow
			req = wire.DoneRequest{NowS: h.doneNow, EnergyJ: h.energyJ, EnergyErr: h.energyErr, Accuracy: h.accuracy}
		} else {
			energy, eerr := s.readEnergy()
			req = wire.DoneRequest{NowS: s.now(), EnergyJ: energy, EnergyErr: eerr != nil, Accuracy: 1}
			req.EnergyErr = true
		}
		var nresp wire.NextResponse
		if err := s.call(ctx, "POST", s.path("next"), wire.NextRequest{NowS: nextNow}, &nresp); err != nil {
			// bad_sequence: an earlier, interrupted catch-up round already
			// armed this bracket — proceed straight to its Done.
			if !IsCode(err, wire.CodeBadSequence) {
				return fmt.Errorf("client: catch-up next %d: %w", i, err)
			}
		}
		var dresp wire.DoneResponse
		if err := s.call(ctx, "POST", s.path("done"), req, &dresp); err != nil {
			return fmt.Errorf("client: catch-up done %d: %w", i, err)
		}
		s.lastDone = dresp
	}
	s.armed = false
	return nil
}

// IsCode reports whether err is (or wraps) a protocol Error with the
// given wire code.
func IsCode(err error, code string) bool {
	if err == nil {
		return false
	}
	var e *Error
	return errors.As(err, &e) && e.Code == code
}

// call performs one wire call against the session's current node.
func (s *Session) call(ctx context.Context, method, path string, body, out any) error {
	return s.callTo(ctx, s.base, method, path, body, out)
}

// callTo performs one wire call with retry/backoff. Transport
// failures, 5xx replies carrying no protocol code, and Retry-class
// refusals are retried with capped exponential backoff; every other
// refusal returns immediately as *Error. Cancelling ctx aborts both
// in-flight requests and the backoff sleeps.
func (s *Session) callTo(ctx context.Context, base, method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		var err error
		payload, err = json.Marshal(body)
		if err != nil {
			return err
		}
	}
	_, err := s.retry.DoContext(ctx, func() error {
		status, raw, err := s.do(ctx, base, method, path, payload)
		if err != nil {
			if ctx.Err() != nil {
				return backoff.Permanent(ctx.Err()) // cancelled mid-request: stop, do not retry
			}
			return err // connection refused mid-restart, reset, timeout, ...
		}
		if status >= 200 && status < 300 {
			if out == nil {
				return nil
			}
			if err := json.Unmarshal(raw, out); err != nil {
				return backoff.Permanent(err)
			}
			return nil
		}
		werr := wire.DecodeError(status, raw)
		perr := &Error{Code: werr.Code, Message: werr.Msg, Status: status}
		if werr.Code == "" {
			// Not a daemon's refusal: a proxy or a daemon dying mid-reply.
			if perr.Code = wire.CodeBadRequest; status >= 500 {
				return perr
			}
		} else if wire.ClassOf(werr.Code) == wire.Retry {
			return perr // restarting, unwell, or paced by the qos ladder: back off and retry
		}
		return backoff.Permanent(perr)
	})
	if errors.Is(err, backoff.ErrExhausted) {
		return fmt.Errorf("client: %s %s: %w", method, base+path, err)
	}
	return err
}

// do performs a single HTTP attempt.
func (s *Session) do(ctx context.Context, base, method, path string, payload []byte) (int, []byte, error) {
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.httpc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, raw, nil
}
