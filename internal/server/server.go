// Package server is the governor daemon's core: a multi-tenant energy
// budget service that manages many concurrent sessions — each wrapping
// its own JouleGuard runtime behind an OnlineController — over the
// versioned JSON-over-HTTP protocol defined in internal/wire. The
// daemon moves the paper's compiled-into-the-application runtime
// (Sec. 3.5) out of process: applications bracket their iterations with
// wire calls instead of function calls, and one machine-wide energy
// budget is partitioned across them by the budget broker.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"jouleguard"
	"jouleguard/internal/measure"
	"jouleguard/internal/qos"
	"jouleguard/internal/telemetry"
	"jouleguard/internal/wire"
)

// Config tunes a Server. GlobalBudgetJ is required.
type Config struct {
	// GlobalBudgetJ is the machine-wide energy budget the broker
	// partitions across tenants.
	GlobalBudgetJ float64
	// Reserve is the broker's commitment multiplier (<= 1 selects
	// DefaultReserve).
	Reserve float64
	// IdleTimeout expires sessions with no wire activity (default 2m).
	IdleTimeout time.Duration
	// SweepInterval paces the expiry watchdog (default 1s; < 0 disables
	// the background goroutine — tests call ExpireIdle directly).
	SweepInterval time.Duration
	// Telemetry is the live observability sink shared by every session
	// (nil builds a private one).
	Telemetry *telemetry.Telemetry
	// Clock is injectable for tests (nil = time.Now). It paces idle
	// expiry and the QoS gate's throttle; iteration intervals always use
	// client clocks, and decision latency and span bounds real time.
	Clock func() time.Time
	// Meter switches the daemon to measured-energy mode: every session
	// iteration is bracketed by an attribution window on this
	// measurement service, and the joules the pipeline attributes to the
	// window — gate-cleaned, baseline-subtracted, weight-shared across
	// concurrent sessions — are what the ledger debits. Client-reported
	// readings are never billed directly. Nil (the default) keeps the
	// wire contract as-is: clients report their own meters.
	Meter *measure.Service
	// MeterStimulus, for a simulated Meter backend, feeds each settled
	// iteration's client-reported energy delta and duration into the
	// simulator as physical stimulus (e.g. SimMeter.Deposit plus a
	// VirtualClock advance). Nil for hardware backends, which burn real
	// joules on their own.
	MeterStimulus func(joules, durS float64)
	// QoS tunes the tenant-protection engine. The zero value keeps the
	// local ladder dormant (QoS.Enabled=false): fleet-shipped policy is
	// still enforced, but this node never escalates tenants on its own.
	QoS qos.Config
}

// Server is the governor daemon: session registry, budget broker, expiry
// watchdog and the wire-protocol surfaces (v1 JSON/HTTP, v2 binary
// frames). The session registry is striped (see shards.go) and the
// drain/fence bits are atomics, so the per-iteration decision path
// never takes a server-wide lock.
type Server struct {
	cfg    Config
	broker *Broker
	qos    *qos.Engine
	tel    *telemetry.Telemetry
	clock  func() time.Time

	sessions *sessionMap
	nextID   atomic.Uint64
	draining atomic.Bool
	fenced   atomic.Bool

	// meter is the shared measurement hook in meter mode (nil otherwise);
	// see Config.Meter.
	meter *meterHook

	assistMu sync.Mutex
	assist   func(needJ float64) bool

	v2Mu     sync.Mutex
	v2Conns  map[net.Conn]struct{}
	v2Closed bool

	// Terminal (closed/expired) sessions stay introspectable for a
	// while, but not forever: a churn-heavy daemon would otherwise grow
	// the registry without bound. retired is the FIFO eviction queue: a
	// ring whose slot retiredHead holds the oldest once it is full.
	retiredMu   sync.Mutex
	retired     []*session
	retiredHead int

	stopSweep chan struct{}
	sweepDone chan struct{}

	// traced queues the trace contexts of sampled settles for the next
	// heartbeat (spans.go).
	traced traceRefs

	mOpened    *telemetry.Counter
	mClosed    *telemetry.Counter
	mExpired   *telemetry.Counter
	mAdopted   *telemetry.Counter
	mShed      *telemetry.Counter
	mDecisionS *telemetry.Histogram

	// Conservation-auditor drift gauges, one per custody layer
	// (provenance.go).
	mDriftPool  *telemetry.Gauge
	mDriftGrant *telemetry.Gauge
	mDriftIters *telemetry.Gauge
}

// New builds a Server and starts its expiry watchdog (unless disabled).
func New(cfg Config) (*Server, error) {
	broker, err := NewBroker(cfg.GlobalBudgetJ, cfg.Reserve)
	if err != nil {
		return nil, err
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 2 * time.Minute
	}
	if cfg.SweepInterval == 0 {
		cfg.SweepInterval = time.Second
	}
	tel := cfg.Telemetry
	if tel == nil {
		tel = telemetry.New(0)
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	s := &Server{
		cfg:      cfg,
		broker:   broker,
		tel:      tel,
		clock:    clock,
		sessions: newSessionMap(),

		mOpened:  tel.Registry.Counter("jouleguardd_sessions_opened_total", "Sessions admitted."),
		mClosed:  tel.Registry.Counter("jouleguardd_sessions_closed_total", "Sessions closed by their clients."),
		mExpired: tel.Registry.Counter("jouleguardd_sessions_expired_total", "Sessions expired by the idle watchdog."),
		mAdopted: tel.Registry.Counter("jouleguardd_sessions_adopted_total", "Sessions adopted from a failed fleet node."),
		mShed:    tel.Registry.Counter("jouleguardd_sessions_shed_total", "Sessions killed by tenant shedding (qos ladder or overload)."),
		mDecisionS: tel.Registry.Histogram("jouleguardd_decision_seconds",
			"Server-side latency of Next decisions.", telemetry.MicroDurationBuckets()),

		mDriftPool: tel.Registry.Gauge("jouleguard_provenance_drift_joules",
			"Conservation drift per custody layer (0 when the books balance).",
			telemetry.Label{Name: "layer", Value: "pool"}),
		mDriftGrant: tel.Registry.Gauge("jouleguard_provenance_drift_joules",
			"Conservation drift per custody layer (0 when the books balance).",
			telemetry.Label{Name: "layer", Value: "grant"}),
		mDriftIters: tel.Registry.Gauge("jouleguard_provenance_drift_joules",
			"Conservation drift per custody layer (0 when the books balance).",
			telemetry.Label{Name: "layer", Value: "iterations"}),
	}
	if cfg.Meter != nil {
		s.meter = &meterHook{svc: cfg.Meter, stim: cfg.MeterStimulus}
	}
	s.qos = qos.New(cfg.QoS)
	s.qos.Instrument(tel.Registry)
	tel.SetQoS(s.qosHealth)
	broker.Instrument(tel.Registry)
	if cfg.SweepInterval > 0 {
		s.stopSweep = make(chan struct{})
		s.sweepDone = make(chan struct{})
		go s.sweepLoop()
	}
	return s, nil
}

// Telemetry returns the live sink the server reports into.
func (s *Server) Telemetry() *telemetry.Telemetry { return s.tel }

// MetricSummary snapshots the daemon's cumulative telemetry counters —
// what a cluster member ships on each heartbeat for the coordinator's
// fleet rollup.
func (s *Server) MetricSummary() wire.MetricSummary {
	dec, iters, rej, trips, faults := s.tel.CounterSummary()
	return wire.MetricSummary{
		Decisions:          dec,
		Iterations:         iters,
		GuardRejected:      rej,
		WatchdogTrips:      trips,
		FaultsInjected:     faults,
		DecisionSecondsSum: s.mDecisionS.Sum(),
		DecisionCount:      float64(s.mDecisionS.Count()),
	}
}

// Broker returns the budget broker (introspection and tests).
func (s *Server) Broker() *Broker { return s.broker }

// QoS returns the tenant-protection engine (cluster policy plumbing,
// introspection and tests).
func (s *Server) QoS() *qos.Engine { return s.qos }

// qosHealth renders the engine's tenant standings for /healthz.
func (s *Server) qosHealth() telemetry.QoSInfo {
	info := telemetry.QoSInfo{Enabled: s.cfg.QoS.Enabled}
	for _, st := range s.qos.Standings() {
		info.Tenants = append(info.Tenants, telemetry.QoSTenant{
			Tenant: st.Tenant, Tier: st.Tier.String(), State: st.State.String(),
		})
	}
	return info
}

// QoSTick runs one tenant-protection round: fold the broker's
// per-tenant books into ladder observations (footprint over the
// tier-weighted fair share — session weights are client-claimed and
// never trusted for enforcement), let the engine climb, descend and
// shed, then kill the sessions of tenants the verdict names. The sweep
// loop calls it every SweepInterval; tests call it directly.
func (s *Server) QoSTick() {
	views, pressure := s.broker.ObserveAll()
	if len(views) == 0 {
		return
	}
	var fairTotal float64
	for _, v := range views {
		fairTotal += s.qos.TierOf(v.Tenant).Spec().FairWeight
	}
	global := s.broker.Global()
	obs := make([]qos.Observation, 0, len(views))
	for _, v := range views {
		o := qos.Observation{Tenant: v.Tenant, BurnW: v.BurnW, Sessions: v.Sessions}
		if fair := global * s.qos.TierOf(v.Tenant).Spec().FairWeight / fairTotal; fair > 0 {
			o.Overrun = v.FootprintJ / fair
		}
		obs = append(obs, o)
	}
	for _, tenant := range s.qos.Observe(obs, pressure).Kill {
		s.shedTenant(tenant)
	}
}

// shedTenant kills every live session the tenant holds on this node,
// releasing their grants back to the pool. Shed sessions stay
// introspectable (state "killed"); their clients get tenant_shed on
// the next wire call.
func (s *Server) shedTenant(tenant string) int {
	shed := 0
	for _, sess := range s.sessions.all() {
		if sess.reg.Tenant != tenant {
			continue
		}
		if spent, release := sess.shed(); release {
			s.broker.Release(sess.grant, spent)
			s.retire(sess)
			s.mShed.Inc()
			shed++
		}
	}
	return shed
}

// Mount registers the wire-protocol routes on mux. The telemetry
// endpoints are mounted separately (telemetry.Telemetry.Mount) so both
// daemons share that wiring.
func (s *Server) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST "+wire.BasePath, wire.Handle(http.StatusCreated,
		func(_ string, req wire.RegisterRequest) (wire.RegisterResponse, error) { return s.Register(req) }))
	mux.HandleFunc("GET "+wire.BasePath, s.handleList)
	mux.HandleFunc("GET "+wire.BasePath+"/{id}", s.handleInfo)
	mux.HandleFunc("POST "+wire.BasePath+"/{id}/next", wire.Handle(http.StatusOK, s.Next))
	mux.HandleFunc("POST "+wire.BasePath+"/{id}/done", wire.Handle(http.StatusOK, s.Done))
	mux.HandleFunc("DELETE "+wire.BasePath+"/{id}", s.handleClose)
	mux.HandleFunc("POST "+wire.V2Path, s.handleV2Stream)
	mux.HandleFunc("GET "+wire.ProvenancePath, s.handleProvenance)
}

// Handler returns the daemon's full surface: the wire protocol plus the
// shared telemetry exposition (/metrics, /healthz, /decisions, pprof).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.tel.Mount(mux)
	s.Mount(mux)
	return mux
}

// ---------------------------------------------------------------------
// Session lifecycle.

// Register admits a new session (the wire POST /v1/sessions).
func (s *Server) Register(req wire.RegisterRequest) (wire.RegisterResponse, error) {
	if req.Iterations <= 0 {
		return wire.RegisterResponse{}, &wire.Error{Code: wire.CodeBadRequest,
			Msg: fmt.Sprintf("iterations %d must be positive", req.Iterations)}
	}
	if req.Factor < 0 || req.BudgetJ < 0 {
		return wire.RegisterResponse{}, &wire.Error{Code: wire.CodeBadRequest,
			Msg: "factor and budget_j must be non-negative"}
	}
	if req.Factor > 0 && req.BudgetJ > 0 {
		return wire.RegisterResponse{}, &wire.Error{Code: wire.CodeBadRequest,
			Msg: "set at most one of factor and budget_j"}
	}
	if s.draining.Load() {
		return wire.RegisterResponse{}, &wire.Error{Code: wire.CodeDraining, Msg: "daemon is draining"}
	}
	if s.fenced.Load() {
		return wire.RegisterResponse{}, errLeaseExpired()
	}

	// A register carrying the key of a live session attaches to it: the
	// fleet failover path, where a client re-registers against the node
	// that restored its session.
	if req.Key != "" {
		if resp, werr, ok := s.attach(req); ok {
			if werr != nil {
				return wire.RegisterResponse{}, werr
			}
			return resp, nil
		}
	}

	// Resolve the testbed first: it validates app/platform and prices a
	// factor-based request in joules.
	tb, err := jouleguard.NewTestbed(req.App, req.Platform)
	if err != nil {
		return wire.RegisterResponse{}, &wire.Error{Code: wire.CodeBadRequest, Msg: err.Error()}
	}
	request := req.BudgetJ
	if req.Factor > 0 {
		request, err = tb.Budget(req.Factor, req.Iterations)
		if err != nil {
			return wire.RegisterResponse{}, &wire.Error{Code: wire.CodeBadRequest, Msg: err.Error()}
		}
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = "default"
		req.Tenant = tenant
	}
	if d := s.qos.CheckRegister(tenant); d != nil {
		return wire.RegisterResponse{}, d
	}
	s.qos.SetTier(tenant, qos.ParseTier(req.Tier))
	grant, err := s.admitWithAssist(tenant, req.Weight, request)
	if err != nil {
		if errors.Is(err, ErrBudgetExhausted) {
			return wire.RegisterResponse{}, &wire.Error{Code: wire.CodeBudgetExhausted, Msg: err.Error()}
		}
		return wire.RegisterResponse{}, &wire.Error{Code: wire.CodeBadRequest, Msg: err.Error()}
	}

	id := s.newID()
	sess, err := newSession(id, req, grant, s.meter, s.clock())
	if err != nil {
		s.broker.Release(grant, 0)
		return wire.RegisterResponse{}, &wire.Error{Code: wire.CodeBadRequest, Msg: err.Error()}
	}
	sess.installLiveSink(s.tel, s.mDecisionS)
	sess.spend = s.broker.spendCell(tenant)
	s.sessions.put(sess)
	if s.draining.Load() {
		// Shutdown flipped the drain bit while we were inserting: back the
		// session out so the snapshot never sees a post-drain admission.
		s.sessions.remove(sess)
		sess.closeWindow()
		s.broker.Release(grant, 0)
		return wire.RegisterResponse{}, &wire.Error{Code: wire.CodeDraining, Msg: "daemon is draining"}
	}
	if req.Key != "" {
		s.sessions.setKey(req.Key, id)
	}
	s.mOpened.Inc()
	return wire.RegisterResponse{
		SessionID:  id,
		SessionNum: sess.num,
		GrantJ:     grant.GrantJ,
		Iterations: req.Iterations,
		AppConfigs: tb.App.NumConfigs(),
		SysConfigs: tb.Platform.NumConfigs(),
	}, nil
}

// newID mints the next session id. The numeric form rides in v2 frame
// headers; the string form is the v1 wire id (zero-padded so
// lexicographic order is creation order).
func (s *Server) newID() string {
	return fmt.Sprintf("s-%06d", s.nextID.Add(1))
}

// attach resolves a register-by-key against an existing live session.
// ok=false means no live session holds the key and registration should
// proceed fresh; a non-nil werr reports an attach that cannot be honored
// (the key is held by a session with a different shape).
func (s *Server) attach(req wire.RegisterRequest) (wire.RegisterResponse, *wire.Error, bool) {
	sess := s.sessions.byKey(req.Key)
	if sess == nil {
		return wire.RegisterResponse{}, nil, false
	}
	resp, reg, live := sess.attachView()
	if !live {
		return wire.RegisterResponse{}, nil, false
	}
	if reg.App != req.App || reg.Platform != req.Platform || reg.Iterations != req.Iterations {
		return wire.RegisterResponse{}, &wire.Error{Code: wire.CodeBadRequest,
			Msg: fmt.Sprintf("key %q is held by a live session with a different workload (%s/%s x%d)",
				req.Key, reg.App, reg.Platform, reg.Iterations)}, true
	}
	return resp, nil, true
}

// admitWithAssist runs broker admission, giving the admission-assist
// hook (a cluster member asking its coordinator for a lease extension)
// one chance to grow the pool before an absolute request is rejected.
func (s *Server) admitWithAssist(tenant string, weight, requestJ float64) (Grant, error) {
	grant, err := s.broker.Admit(tenant, weight, requestJ)
	if err == nil || !errors.Is(err, ErrBudgetExhausted) || requestJ <= 0 {
		return grant, err
	}
	s.assistMu.Lock()
	assist := s.assist
	s.assistMu.Unlock()
	if assist == nil {
		return grant, err
	}
	// Concurrent admissions race for the same extension (each computes
	// its shortfall before the others consume the pool), so recompute and
	// re-ask until admission sticks or the coordinator stops granting.
	// The ask overshoots the exact shortfall by 1% of the request: an
	// exact grant lands available == commit to within a ulp, turning the
	// retried admission into a coin flip.
	for attempt := 0; attempt < 6; attempt++ {
		need := requestJ*s.broker.ReserveFactor() - s.broker.Available() + requestJ*0.01
		// A refused assist still retries admission and stays in the loop:
		// concurrent heartbeats, extensions by competing admissions, and
		// out-of-order extension replies all grow the pool underneath us.
		assist(need)
		grant, retryErr := s.broker.Admit(tenant, weight, requestJ)
		if retryErr == nil || !errors.Is(retryErr, ErrBudgetExhausted) {
			return grant, retryErr
		}
	}
	return grant, err
}

// SetAdmitAssist installs the hook called when broker admission fails
// for lack of pool: in a fleet the member uses it to request an
// on-demand lease extension from the coordinator, then admission is
// retried. The hook returns whether the pool grew.
func (s *Server) SetAdmitAssist(f func(needJ float64) bool) {
	s.assistMu.Lock()
	s.assist = f
	s.assistMu.Unlock()
}

// SetFenced flips the node's self-fence. A fenced daemon refuses to arm
// new iterations or admit registrations (retryable lease_expired), so a
// node cut off from its coordinator stops drawing down a lease the
// coordinator may already have reclaimed. Done is still accepted: the
// energy of an in-flight iteration is spent either way, and accounting
// it keeps the ledger truthful.
func (s *Server) SetFenced(fenced bool) { s.fenced.Store(fenced) }

// Adopt rebuilds a migrated session from its registration and its log
// (checkpoint + iteration tail) — the cross-node analogue of snapshot
// restore, through the same session.replay: the governor stack is
// rebuilt, the checkpoint restored and the tail stepped (bit-identical
// state, same as a local restore), then the remaining grant is admitted
// into this node's broker with the pre-spend marked imported. Re-pushing
// an adoption the node already holds returns the existing session id.
func (s *Server) Adopt(a wire.AdoptSession) (string, error) {
	if a.Key == "" {
		return "", &wire.Error{Code: wire.CodeBadRequest, Msg: "adoption requires a session key"}
	}
	if a.Reg.Iterations <= 0 {
		return "", &wire.Error{Code: wire.CodeBadRequest, Msg: "adoption with non-positive iterations"}
	}
	if s.draining.Load() {
		return "", &wire.Error{Code: wire.CodeDraining, Msg: "daemon is draining"}
	}
	if prev := s.sessions.byKey(a.Key); prev != nil {
		if _, _, live := prev.attachView(); live {
			return prev.id, nil
		}
	}
	id := s.newID()

	a.Reg.Key = a.Key
	if a.Reg.Tenant == "" {
		a.Reg.Tenant = "default"
	}
	sess, err := newSession(id, a.Reg, Grant{Tenant: a.Reg.Tenant, Weight: a.Reg.Weight, GrantJ: a.GrantJ}, s.meter, s.clock())
	if err != nil {
		return "", &wire.Error{Code: wire.CodeBadRequest, Msg: err.Error()}
	}
	for _, rec := range a.Log {
		if err := sess.replay(rec); err != nil {
			return "", err
		}
	}
	imported := sess.spent()
	grant, err := s.adoptAdmit(a.Reg.Tenant, a.Reg.Weight, a.GrantJ, imported)
	if err != nil {
		if errors.Is(err, ErrBudgetExhausted) {
			return "", &wire.Error{Code: wire.CodeBudgetExhausted, Msg: err.Error()}
		}
		return "", err
	}
	s.qos.SetTier(a.Reg.Tenant, qos.ParseTier(a.Reg.Tier))
	sess.setGrant(grant)
	sess.spend = s.broker.spendCell(a.Reg.Tenant)
	sess.installLiveSink(s.tel, s.mDecisionS)
	s.sessions.put(sess)
	s.sessions.setKey(a.Key, id)
	s.mAdopted.Inc()
	return id, nil
}

// adoptAdmit is AdoptGrant with one admission-assist retry, mirroring
// admitWithAssist for the failover path.
func (s *Server) adoptAdmit(tenant string, weight, grantJ, importedJ float64) (Grant, error) {
	grant, err := s.broker.AdoptGrant(tenant, weight, grantJ, importedJ)
	if err == nil || !errors.Is(err, ErrBudgetExhausted) {
		return grant, err
	}
	s.assistMu.Lock()
	assist := s.assist
	s.assistMu.Unlock()
	if assist == nil {
		return grant, err
	}
	for attempt := 0; attempt < 6; attempt++ {
		need := (grantJ-importedJ)*s.broker.ReserveFactor() - s.broker.Available() + grantJ*0.01
		assist(need)
		grant, retryErr := s.broker.AdoptGrant(tenant, weight, grantJ, importedJ)
		if retryErr == nil || !errors.Is(retryErr, ErrBudgetExhausted) {
			return grant, retryErr
		}
	}
	return grant, err
}

// TotalSpentJ is the node's cumulative energy spend against its own
// budget pool: released sessions' consumption plus live sessions'
// accounted spend, net of imported pre-spend (energy adopted sessions
// already drew from another node's lease). It is monotone while the
// daemon lives; cluster members report it in every heartbeat.
func (s *Server) TotalSpentJ() float64 {
	total := s.broker.Consumed()
	for _, sess := range s.sessions.all() {
		if sess.live() {
			total += sess.localSpent()
		}
	}
	return total
}

// Export copies every session's reportable state, with each iteration
// log trimmed to what the caller has not yet acked (from[id], an absolute
// iteration index; missing = everything the session retains, checkpoint
// first). The cluster member builds heartbeat session reports from it;
// ordering is stable (creation order) for deterministic wire bodies.
func (s *Server) Export(from map[string]int) []SessionExport {
	sessions := s.sessions.allSorted()
	out := make([]SessionExport, 0, len(sessions))
	for _, sess := range sessions {
		out = append(out, sess.export(from[sess.id]))
	}
	return out
}

// lookup finds a session by id.
func (s *Server) lookup(id string) (*session, *wire.Error) {
	sess := s.sessions.get(id)
	if sess == nil {
		return nil, &wire.Error{Code: wire.CodeUnknownSession, Msg: fmt.Sprintf("unknown session %q", id)}
	}
	return sess, nil
}

// Close tears down a session and reclaims its budget.
func (s *Server) Close(id string) (wire.CloseResponse, error) {
	sess, werr := s.lookup(id)
	if werr != nil {
		return wire.CloseResponse{}, werr
	}
	return s.closeSession(sess)
}

// closeSession is Close on a session already looked up — by string id on
// v1, by numeric id on the v2 stream.
func (s *Server) closeSession(sess *session) (wire.CloseResponse, error) {
	spent, release := sess.teardown(stateClosed)
	if !release {
		return wire.CloseResponse{}, errSessionClosed("session already closed")
	}
	s.broker.Release(sess.grant, spent)
	s.retire(sess)
	s.mClosed.Inc()
	return wire.CloseResponse{
		SessionID:  sess.id,
		SpentJ:     spent,
		ReclaimedJ: sess.grant.GrantJ - spent,
	}, nil
}

// terminalRetainCap bounds how many closed/expired sessions stay in the
// registry for introspection. Beyond it the oldest terminal session is
// evicted — under sustained churn the registry stays O(live + cap)
// instead of growing with every session ever served.
const terminalRetainCap = 1024

// terminalWindows is how many of the newest terminal sessions keep their
// decision window for a post-mortem (/decisions?session=, the provenance
// iterations layer). A window holds at most 64 decisions, so terminal
// windows hold at most 4,096 in all: the size of the process ring that
// used to carry every session's decisions. Less than terminalRetainCap,
// so a session has released its window before it is evicted.
const terminalWindows = 64

// retire queues a terminal session for bounded retention, releasing the
// decision window of the session that retired terminalWindows
// retirements earlier and evicting the oldest terminal session once the
// cap is exceeded. Never called with a shard or session lock held.
func (s *Server) retire(sess *session) {
	s.retiredMu.Lock()
	var evict, expire *session
	if n := len(s.retired); n < terminalRetainCap {
		s.retired = append(s.retired, sess)
		if n >= terminalWindows {
			expire = s.retired[n-terminalWindows]
		}
	} else {
		evict = s.retired[s.retiredHead]
		s.retired[s.retiredHead] = sess
		expire = s.retired[(s.retiredHead+terminalRetainCap-terminalWindows)%terminalRetainCap]
		s.retiredHead = (s.retiredHead + 1) % terminalRetainCap
	}
	s.retiredMu.Unlock()
	if expire != nil {
		expire.closeWindow()
	}
	if evict != nil {
		s.sessions.remove(evict)
	}
}

// ExpireIdle expires every live session whose last wire activity is
// older than its timeout, releasing the grants. It returns how many
// sessions it expired; the sweep loop calls it on SweepInterval.
func (s *Server) ExpireIdle() int {
	now := s.clock()
	expired := 0
	for _, sess := range s.sessions.all() {
		last, live := sess.idleSince(now)
		if !live {
			continue
		}
		timeout := s.cfg.IdleTimeout
		if sess.reg.IdleTimeoutS > 0 {
			timeout = time.Duration(sess.reg.IdleTimeoutS * float64(time.Second))
		}
		if now.Sub(last) <= timeout {
			continue
		}
		if spent, release := sess.teardown(stateExpired); release {
			s.broker.Release(sess.grant, spent)
			s.retire(sess)
			s.mExpired.Inc()
			expired++
		}
	}
	return expired
}

// sweepLoop is the expiry watchdog.
func (s *Server) sweepLoop() {
	defer close(s.sweepDone)
	t := time.NewTicker(s.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.ExpireIdle()
			s.QoSTick()
			s.auditProvenance()
		case <-s.stopSweep:
			return
		}
	}
}

// Shutdown drains the daemon: new registrations and Next calls are
// refused with a retryable "draining" error, in-flight iterations get
// until ctx's deadline to report Done, and the expiry watchdog stops.
// After Shutdown returns, Snapshot captures a clean state (armed
// sessions that never reported are snapshotted at their last completed
// iteration; their clients re-bracket the lost iteration on restore).
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	// Hijacked v2 streams outlive the HTTP listener; sever them once the
	// drain settles so no stream serves a daemon that no longer exists.
	defer s.CloseV2Streams()
	if s.stopSweep != nil {
		close(s.stopSweep)
		<-s.sweepDone
		s.stopSweep = nil
	}
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if !s.anyInFlight() {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("server: drain incomplete: %w", ctx.Err())
		case <-tick.C:
		}
	}
}

func (s *Server) anyInFlight() bool {
	for _, sess := range s.sessions.all() {
		if sess.inFlight() {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------
// HTTP surface.

// Next arms the session's upcoming iteration and returns its decision.
// This is the whole per-iteration decision path — shared verbatim by the
// v1 JSON handler, the v2 frame loop and the in-process benchmark — and
// it takes no server-wide lock: one shard map read, then the session's
// own mutex.
func (s *Server) Next(id string, req wire.NextRequest) (wire.NextResponse, error) {
	if werr := s.gate(); werr != nil {
		return wire.NextResponse{}, werr
	}
	sess, werr := s.lookup(id)
	if werr != nil {
		return wire.NextResponse{}, werr
	}
	return s.sessionNext(sess, req)
}

// gate is the draining/fencing admission check Next passes on every
// transport (Done deliberately bypasses it).
func (s *Server) gate() *wire.Error {
	if s.draining.Load() {
		return &wire.Error{Code: wire.CodeDraining, Msg: "daemon is draining; retry against the restarted daemon"}
	}
	if s.fenced.Load() {
		return errLeaseExpired()
	}
	return nil
}

// monoEpoch anchors monoNS, so a reading is one monotonic clock read and
// no wall clock.
var monoEpoch = time.Now()

// monoNS is a monotonic reading in nanoseconds, what decision latency is
// measured on.
func monoNS() int64 { return int64(time.Since(monoEpoch)) }

// sessionNext decides one iteration for a looked-up session. An untraced
// Next reads no wall clock: its latency sample is two monotonic readings,
// from here to the end of session.next; the QoS gate reads the clock only
// while a tenant is enforced (throttle pacing); the idle stamp comes from
// the expiry sweep, as Done's does (session.idleSince).
func (s *Server) sessionNext(sess *session, req wire.NextRequest) (wire.NextResponse, error) {
	start := monoNS()
	var wall time.Time // a traced call's span start: real time, whatever Config.Clock is
	if req.TraceID != 0 {
		wall = time.Now()
	}
	// Tenant-protection gate, shared by v1 and v2 so neither transport
	// escapes enforcement. reg is immutable post-construction, so the
	// tenant read needs no lock; while no tenant is enforced the check
	// is one atomic load.
	if s.qos.Enforcing() {
		if d := s.qos.CheckNext(sess.reg.Tenant, s.clock().UnixNano()); d != nil {
			return wire.NextResponse{}, d
		}
	}
	resp, werr := sess.next(req, start)
	if werr != nil {
		return wire.NextResponse{}, werr
	}
	if req.TraceID != 0 {
		s.traceNext(sess.id, req, wall, resp.Iter)
	}
	return resp, nil
}

// Done settles a completed iteration. Accepted even while draining or
// fenced: the energy of an in-flight iteration is spent either way, and
// accounting it keeps the ledger truthful.
func (s *Server) Done(id string, req wire.DoneRequest) (wire.DoneResponse, error) {
	sess, werr := s.lookup(id)
	if werr != nil {
		return wire.DoneResponse{}, werr
	}
	return s.sessionDone(sess, req)
}

// sessionDone settles one iteration against its session — the single
// Done path shared by the v1 handler and the v2 frame loop, so both
// record identical spans and the traced/untraced settle mutates session
// state identically (the golden replay test pins this).
//
// An untraced Done reads no clock: its only use of one would be the idle
// stamp, which the expiry sweep supplies instead (session.idleSince).
func (s *Server) sessionDone(sess *session, req wire.DoneRequest) (wire.DoneResponse, error) {
	var wall time.Time // a traced call's span start: real time, whatever Config.Clock is
	if req.TraceID != 0 {
		wall = time.Now()
	}
	resp, werr := sess.done(req)
	if werr != nil {
		return wire.DoneResponse{}, werr
	}
	if req.TraceID != 0 {
		s.traceDone(sess.id, req, wall, resp)
	}
	return resp, nil
}

func (s *Server) handleClose(w http.ResponseWriter, r *http.Request) {
	resp, err := s.Close(r.PathValue("id"))
	if err != nil {
		wire.WriteError(w, err)
		return
	}
	wire.WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	sess, werr := s.lookup(r.PathValue("id"))
	if werr != nil {
		wire.WriteError(w, werr)
		return
	}
	wire.WriteJSON(w, http.StatusOK, s.sessionInfo(sess, true))
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	resp := wire.ListResponse{Broker: s.broker.Info()}
	// Stable order for scripts and eyeballs: ids are zero-padded
	// counters, so lexicographic order is creation order.
	for _, sess := range s.sessions.allSorted() {
		resp.Sessions = append(resp.Sessions, s.sessionInfo(sess, false))
	}
	wire.WriteJSON(w, http.StatusOK, resp)
}

// sessionInfo decorates a session's introspection view with its
// tenant's QoS standing — the session itself never sees the engine.
func (s *Server) sessionInfo(sess *session, includeEstimates bool) wire.SessionInfo {
	si := sess.info(includeEstimates)
	si.Tier = s.qos.TierOf(si.Tenant).String()
	if st := s.qos.StateOf(si.Tenant); st != qos.StateOK {
		si.QoSState = st.String()
	}
	return si
}
