package cluster

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"jouleguard/internal/backoff"
	"jouleguard/internal/server"
	"jouleguard/internal/telemetry"
	"jouleguard/internal/wire"
)

// MemberSeedBudgetJ seeds a fleet member daemon's broker before its
// first lease arrives: effectively zero (the broker requires a positive
// pool), so the coordinator's lease is the only real budget source and
// nothing can be admitted against a local -budget flag the fleet never
// granted.
const MemberSeedBudgetJ = 1e-9

// MemberConfig wires a governor daemon into a fleet.
type MemberConfig struct {
	// CoordinatorURL is the coordinator's base URL (e.g. http://host:port).
	CoordinatorURL string
	// CoordinatorURLs is the ordered failover list tried after
	// CoordinatorURL: a standby that answers not_primary (or a deposed
	// primary answering stale_epoch, or one that is simply unreachable)
	// rotates the member to the next entry.
	CoordinatorURLs []string
	// Node is this daemon's stable fleet identity.
	Node string
	// Advertise is the base URL clients and the coordinator reach this
	// daemon's wire API at.
	Advertise string
	// Server is the local governor daemon the lease feeds.
	Server *server.Server
	// HTTPClient performs coordinator calls (nil builds one).
	HTTPClient *http.Client
	// Clock is injectable for tests (nil = time.Now).
	Clock func() time.Time
}

// Member runs the node side of the lease protocol: join, heartbeat,
// self-fence when the lease runs out, and adopt sessions pushed over
// from dead nodes. The safety half lives here: the member never lets
// its daemon admit or advance work past the lease deadline, which is
// exactly the window the coordinator waits before escrowing the unspent
// lease — so node and coordinator can never both spend the same joules.
type Member struct {
	cfg    MemberConfig
	srv    *server.Server
	httpc  *http.Client
	clock  func() time.Time
	coords []string // ordered coordinator list; immutable after New

	mu        sync.Mutex
	cur       int // index into coords of the coordinator we believe serves
	fence     int64
	joined    bool
	epoch     int64
	leaseJ    float64
	deadline  time.Time
	beatEvery time.Duration
	acked     map[string]int // session id -> iteration count the coordinator's log copy reaches

	stop chan struct{}
	done chan struct{}
}

// NewMember wires srv into the fleet (the first Join happens on Run or
// an explicit Join call).
func NewMember(cfg MemberConfig) (*Member, error) {
	coords := make([]string, 0, 1+len(cfg.CoordinatorURLs))
	if cfg.CoordinatorURL != "" {
		coords = append(coords, cfg.CoordinatorURL)
	}
	coords = append(coords, cfg.CoordinatorURLs...)
	if len(coords) == 0 || cfg.Node == "" || cfg.Advertise == "" || cfg.Server == nil {
		return nil, fmt.Errorf("cluster: member needs coordinator URL(s), node name, advertise address and a server")
	}
	httpc := cfg.HTTPClient
	if httpc == nil {
		httpc = &http.Client{Timeout: 5 * time.Second}
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	m := &Member{
		cfg:    cfg,
		srv:    cfg.Server,
		httpc:  httpc,
		clock:  clock,
		coords: coords,
		acked:  map[string]int{},
	}
	// When local admission runs out of lease, ask the coordinator for an
	// on-demand extension before rejecting the tenant.
	m.srv.SetAdmitAssist(m.assist)
	// Observability identity: spans this daemon records carry the fleet
	// node name, and /healthz reports the member role with the highest
	// fence it has seen.
	tel := m.srv.Telemetry()
	tel.Spans.SetNode(cfg.Node)
	tel.SetHealth(func() telemetry.HealthInfo {
		return telemetry.HealthInfo{Role: "member", Fence: m.Fence()}
	})
	return m, nil
}

// Server returns the governor daemon this member feeds.
func (m *Member) Server() *server.Server { return m.srv }

// Mount registers the member's cluster routes (the adoption endpoint)
// alongside the daemon's own wire routes.
func (m *Member) Mount(mux *http.ServeMux) {
	m.srv.Mount(mux)
	mux.HandleFunc("POST "+wire.ClusterBasePath+"/adopt", wire.Handle(http.StatusOK, m.adopt))
}

// Handler returns the node's full surface: wire protocol, adoption
// endpoint, and the shared telemetry exposition.
func (m *Member) Handler() http.Handler {
	mux := http.NewServeMux()
	m.srv.Telemetry().Mount(mux)
	m.Mount(mux)
	return mux
}

// Join enrolls with the coordinator and applies the resulting lease. A
// rejoin after a partition reconciles: the reported cumulative spend
// lets the coordinator refund the escrow it booked pessimistically.
func (m *Member) Join() error {
	held := []string{}
	for _, ex := range m.srv.Export(nil) {
		if ex.Live && ex.Key != "" {
			held = append(held, ex.Key)
		}
	}
	var resp wire.JoinResponse
	err := m.post("/join", wire.JoinRequest{
		Node:      m.cfg.Node,
		Addr:      m.cfg.Advertise,
		ConsumedJ: m.srv.TotalSpentJ(),
		HeldKeys:  held,
		Fence:     m.Fence(),
	}, &resp)
	if err != nil {
		return err
	}
	if !m.acceptFence(resp.Fence) {
		return &wire.Error{Code: wire.CodeStaleEpoch, Msg: "join answered by a deposed coordinator; grant dropped"}
	}
	// Sessions that failed over while we were away: their budget was
	// escrowed and their state restored elsewhere, so the local copies
	// must go before we resume serving.
	if len(resp.Drop) > 0 {
		drop := map[string]bool{}
		for _, key := range resp.Drop {
			drop[key] = true
		}
		for _, ex := range m.srv.Export(nil) {
			if drop[ex.Key] {
				_, _ = m.srv.Close(ex.ID)
			}
		}
	}

	m.mu.Lock()
	m.joined = true
	m.epoch = resp.Epoch
	m.beatEvery = time.Duration(resp.HeartbeatMS) * time.Millisecond
	m.mu.Unlock()
	m.applyLease(resp.LeaseJ, resp.TTLMS, true)
	return nil
}

// Beat renews the lease: report cumulative spend and per-session
// iteration logs, receive the topped-up lease and acked log cursors.
// An unknown_node answer means our lease expired while we were silent —
// rejoin, which reconciles the books.
func (m *Member) Beat() error {
	m.mu.Lock()
	joined, epoch := m.joined, m.epoch
	acked := make(map[string]int, len(m.acked))
	for id, n := range m.acked {
		acked[id] = n
	}
	m.mu.Unlock()
	if !joined {
		return m.Join()
	}

	exports := m.srv.Export(acked)
	summary := m.srv.MetricSummary()
	// Sampled trace contexts ride the beat so the coordinator can close
	// each trace with its lease span; a beat that fails requeues them for
	// the next one (a coordinator failover would otherwise swallow every
	// ref drained into beats against the dead primary).
	traces := m.srv.DrainTraceRefs()
	req := wire.HeartbeatRequest{
		Node:      m.cfg.Node,
		Epoch:     epoch,
		ConsumedJ: m.srv.TotalSpentJ(),
		Fence:     m.Fence(),
		Traces:    traces,
		Metrics:   &summary,
		// Only this node's own ladder verdicts ship — never the merged
		// effective state, or the coordinator's merge would echo back as
		// our "local" opinion and ratchet the fleet to max forever.
		Tenants: m.srv.QoS().LocalPolicies(),
	}
	seen := map[string]bool{}
	for _, ex := range exports {
		seen[ex.ID] = true
		if !ex.Live {
			req.Closed = append(req.Closed, ex.ID)
			continue
		}
		if ex.Key == "" {
			continue // keyless sessions are node-local; nothing to restore
		}
		req.Sessions = append(req.Sessions, wire.SessionReport{
			ID:        ex.ID,
			Key:       ex.Key,
			Reg:       ex.Reg,
			GrantJ:    ex.GrantJ,
			ImportedJ: ex.ImportedJ,
			SpentJ:    ex.SpentJ,
			Done:      ex.Done,
			Complete:  ex.Complete,
			From:      ex.Done - len(ex.NewIters),
			NewIters:  ex.NewIters,
		})
	}

	var resp wire.HeartbeatResponse
	if err := m.post("/heartbeat", req, &resp); err != nil {
		m.srv.RequeueTraceRefs(traces)
		if werr, ok := err.(*wire.Error); ok && werr.Code == wire.CodeUnknownNode {
			m.mu.Lock()
			m.joined = false
			m.mu.Unlock()
			return m.Join()
		}
		return err
	}
	if !m.acceptFence(resp.Fence) {
		m.srv.RequeueTraceRefs(traces)
		return &wire.Error{Code: wire.CodeStaleEpoch,
			Msg: "heartbeat answered by a deposed coordinator; grant dropped"}
	}

	m.mu.Lock()
	for id, n := range resp.Acked {
		m.acked[id] = n
	}
	for id := range m.acked {
		if !seen[id] {
			delete(m.acked, id) // session record gone server-side
		}
	}
	m.mu.Unlock()
	m.applyLease(resp.LeaseJ, resp.TTLMS, false)
	// Fleet-wide tenant policy: the coordinator's max-merge across live
	// nodes becomes this node's remote overlay (an empty list clears it),
	// so a tenant escalated anywhere is enforced everywhere and cannot
	// escape its ladder by re-placing sessions.
	m.srv.QoS().ApplyRemote(resp.Policies)
	return nil
}

// applyLease feeds the renewed lease into the local broker and pushes
// the fence deadline out.
//
// A heartbeat renewal (reconcile=false) applies the lease monotonically:
// the cumulative lease never shrinks within an epoch, but a heartbeat
// reply that raced an on-demand extension can arrive carrying the older,
// smaller value — applying it would claw back budget admissions already
// rely on.
//
// A (re)join (reconcile=true) must instead reconcile *downward*: the
// coordinator has just reset our lease to the reported cumulative spend
// (plus a fresh top-up) and refunded the unspent escrow to the pool.
// Keeping the old, larger pool here would let the refunded joules be
// spent twice — locally, and again by whichever node the pool re-leases
// them to. The lease is the budget; it is floored only at what is
// already committed+consumed locally (grants cannot be clawed back),
// and the coordinator is asked to fund that shortfall.
func (m *Member) applyLease(leaseJ float64, ttlMS int64, reconcile bool) {
	b := m.srv.Broker()
	if reconcile {
		if floor := b.Global() - b.Available(); leaseJ < floor {
			if extended, ok := m.requestExtend(floor - leaseJ); ok && extended > leaseJ {
				leaseJ = extended
			}
			if leaseJ < floor {
				leaseJ = floor
			}
		}
	} else if cur := b.Global(); leaseJ < cur {
		leaseJ = cur
	}
	if err := b.SetGlobal(leaseJ); err != nil {
		// A concurrent admission grew committed past our floor snapshot;
		// ask for the shortfall before giving up.
		if need := (b.Global() - b.Available()) - leaseJ; need > 0 {
			if extended, ok := m.requestExtend(need); ok {
				_ = b.SetGlobal(extended)
			}
		}
	}
	m.mu.Lock()
	m.leaseJ = b.Global()
	m.deadline = m.clock().Add(time.Duration(ttlMS) * time.Millisecond)
	m.mu.Unlock()
	m.srv.SetFenced(false)
}

// CheckFence trips the local fence once the lease deadline passes: the
// daemon stops admitting and advancing work until a heartbeat gets
// through again. This is the node's half of the no-double-spend
// bargain — the coordinator escrows the unspent lease only after the
// same TTL, by which point we have provably stopped drawing on it.
func (m *Member) CheckFence() bool {
	m.mu.Lock()
	fence := m.joined && m.clock().After(m.deadline)
	m.mu.Unlock()
	if fence {
		m.srv.SetFenced(true)
	}
	return fence
}

// assist is the broker's admission escape hatch: a tenant that does not
// fit the current lease triggers an on-demand extension request. The
// pool also grows when the coordinator granted nothing new but reports
// a cumulative lease we have not applied yet (e.g. failover pre-funding
// pushed ahead of our next heartbeat).
func (m *Member) assist(needJ float64) bool {
	extended, ok := m.requestExtend(needJ)
	if !ok || extended <= m.srv.Broker().Global() {
		return false
	}
	if err := m.srv.Broker().SetGlobal(extended); err != nil {
		return false
	}
	m.mu.Lock()
	m.leaseJ = extended
	m.mu.Unlock()
	return true
}

func (m *Member) requestExtend(needJ float64) (float64, bool) {
	m.mu.Lock()
	joined, epoch := m.joined, m.epoch
	m.mu.Unlock()
	if !joined {
		return 0, false
	}
	var resp wire.ExtendResponse
	if err := m.post("/lease", wire.ExtendRequest{Node: m.cfg.Node, Epoch: epoch, NeedJ: needJ, Fence: m.Fence()}, &resp); err != nil {
		return 0, false
	}
	if !m.acceptFence(resp.Fence) {
		return 0, false // extension granted by a deposed coordinator
	}
	return resp.LeaseJ, true
}

// Fence reports the highest coordinator fencing epoch this member has
// seen.
func (m *Member) Fence() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fence
}

// acceptFence records a response's fencing epoch and reports whether
// the grant it came with may be applied: a fence below the highest one
// we have seen identifies a deposed primary whose grants are no longer
// backed by the fleet ledger (the promoted coordinator escrowed them) —
// applying one would let the same joules be spent under both reigns.
func (m *Member) acceptFence(fence int64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if fence < m.fence {
		return false
	}
	m.fence = fence
	return true
}

// adopt restores sessions the coordinator reassigned to this node after
// their previous owner died (POST /v1/cluster/adopt): rebuild from the
// acked log, import the prior spend, resume under the local broker. No
// ack cursor is seeded: the first heartbeat re-ships the retained log
// once and the coordinator's reply sets it.
func (m *Member) adopt(_ string, req wire.AdoptRequest) (wire.AdoptResponse, error) {
	// A deposed primary must not seed sessions: its placement decisions
	// are no longer backed by the ledger the promoted coordinator owns.
	if !m.acceptFence(req.Fence) {
		return wire.AdoptResponse{}, &wire.Error{Code: wire.CodeStaleEpoch,
			Msg: fmt.Sprintf("adopt push carries fence %d, node has seen %d", req.Fence, m.Fence())}
	}
	ids := make(map[string]string, len(req.Sessions))
	for _, a := range req.Sessions {
		id, err := m.srv.Adopt(a)
		if err != nil {
			return wire.AdoptResponse{}, err
		}
		ids[a.Key] = id
	}
	return wire.AdoptResponse{IDs: ids}, nil
}

// Run joins and then heartbeats until Stop; heartbeat failures are
// tolerated (the fence keeps the books safe) and retried with jittered
// capped-exponential backoff. The jitter is seeded from the node name:
// deterministic per node, but different across the fleet, so a
// restarting coordinator sees the herd of rejoins spread over the
// backoff window instead of arriving in one synchronized thundering
// wave.
func (m *Member) Run() error {
	if err := m.Join(); err != nil {
		return err
	}
	m.mu.Lock()
	every := m.beatEvery
	if every <= 0 {
		every = 500 * time.Millisecond
	}
	m.stop = make(chan struct{})
	m.done = make(chan struct{})
	stop, done := m.stop, m.done
	m.mu.Unlock()
	rng := beatRand(m.cfg.Node)
	go func() {
		defer close(done)
		fails := 0
		for {
			t := time.NewTimer(beatDelay(every, fails, rng))
			select {
			case <-t.C:
				if err := m.Beat(); err != nil {
					fails++
				} else {
					fails = 0
				}
				m.CheckFence()
			case <-stop:
				t.Stop()
				return
			}
		}
	}()
	return nil
}

// beatRand seeds a node's heartbeat jitter from its name: deterministic
// per node, different across the fleet.
func beatRand(node string) *rand.Rand {
	seed := fnv.New64a()
	seed.Write([]byte(node))
	return rand.New(rand.NewSource(int64(seed.Sum64())))
}

// beatDelay is the wait before the next heartbeat after fails
// consecutive failures: the cadence itself while healthy, else the
// back-off doubling per failure up to 8 beats, scaled by a uniform
// [0.5, 1.5) jitter factor drawn from rng.
func beatDelay(every time.Duration, fails int, rng *rand.Rand) time.Duration {
	if fails == 0 {
		return every
	}
	d := backoff.Policy{BaseDelay: every, MaxDelay: 8 * every}.Delay(fails)
	return d/2 + time.Duration(rng.Int63n(int64(d)))
}

// Stop halts the heartbeat loop (the lease is left to expire).
func (m *Member) Stop() {
	m.mu.Lock()
	stop, done := m.stop, m.done
	m.stop, m.done = nil, nil
	m.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// LeaseJ reports the current cumulative lease (introspection/tests).
func (m *Member) LeaseJ() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.leaseJ
}

// post sends one coordinator call, moving down the ordered coordinator
// list past an unreachable coordinator, a reply carrying no protocol
// code, and a Rotate-class refusal (not_primary, stale_epoch). Any other
// answer comes from the serving primary, which becomes the member's
// active coordinator, and is returned to the caller.
func (m *Member) post(path string, in, out any) error {
	m.mu.Lock()
	start, coords := m.cur, m.coords
	m.mu.Unlock()
	var lastErr error
	for i := 0; i < len(coords); i++ {
		idx := (start + i) % len(coords)
		err := postJSON(m.httpc, coords[idx]+wire.ClusterBasePath+path, in, out)
		var werr *wire.Error
		if err == nil || errors.As(err, &werr) && werr.Code != "" && wire.ClassOf(werr.Code) != wire.Rotate {
			m.mu.Lock()
			m.cur = idx
			m.mu.Unlock()
			return err
		}
		lastErr = err
	}
	return lastErr
}
