// Package cluster is the fleet coordinator and the node-side member
// agent: JouleGuard's energy guarantee (Sec. 3, Eq. 6) lifted from one
// machine to a fleet of governor daemons sharing one global budget.
//
// The coordinator owns the fleet budget and delegates it through
// expiring leases: each member daemon joins, receives a cumulative
// budget lease that feeds its local broker, and renews the lease by
// heartbeat, reporting its cumulative consumption. A node that stops
// heartbeating is expired: its unspent lease is booked as consumed
// (pessimistically — the partitioned node may still be spending it, up
// to exactly that amount, before its own fence trips), and its sessions
// are restored on surviving nodes from the checkpoints and iteration
// tails the dead node shipped in its heartbeats. A node that rejoins
// reconciles:
// it reports its true cumulative spend and the coordinator refunds the
// over-booked escrow. The safety invariant, re-checked after every
// ledger mutation and pinned by the lease-safety tests:
//
//	sum(live nodes' unspent leases) + consumed (incl. escrow) <= fleet budget
//
// Because a node can spend at most its unspent lease before fencing,
// the fleet's physical energy draw can never exceed the budget — under
// crashes, partitions, rejoins and failover alike.
package cluster

import (
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"sync"
	"time"

	"jouleguard/internal/qos"
	"jouleguard/internal/telemetry"
	"jouleguard/internal/wire"
)

// Config tunes a Coordinator. FleetBudgetJ is required.
type Config struct {
	// FleetBudgetJ is the fleet-wide energy budget delegated via leases.
	FleetBudgetJ float64
	// ReserveFrac is the slice of the pool withheld from steady-state
	// leasing so failover adoptions can always be funded (default 0.10).
	ReserveFrac float64
	// LeaseTTL is the lease term: a node that has not heartbeat within
	// it is expired (default 3s).
	LeaseTTL time.Duration
	// HeartbeatEvery is the renewal cadence suggested to nodes
	// (default LeaseTTL/4).
	HeartbeatEvery time.Duration
	// InitialLeaseJ seeds a joining node's lease (default a 1/8 share of
	// the leasable pool).
	InitialLeaseJ float64
	// SweepInterval paces the expiry watchdog (default LeaseTTL/4; < 0
	// disables the goroutine — tests call Sweep directly).
	SweepInterval time.Duration
	// Telemetry is the shared observability sink (nil builds a private
	// one).
	Telemetry *telemetry.Telemetry
	// Clock is injectable for tests (nil = time.Now).
	Clock func() time.Time
	// HTTPClient performs the coordinator->node adoption pushes.
	HTTPClient *http.Client
	// WALPath, when non-empty, mirrors the ledger write-ahead log to an
	// append-only JSONL file. An existing file is replayed by New, so a
	// restarted coordinator resumes with a bit-identical ledger; the
	// in-memory log (and the /v1/cluster/wal tail it serves to standbys)
	// exists regardless of whether a file is configured.
	WALPath string
	// Follower starts the coordinator as a non-serving standby: it
	// rejects control-plane calls with not_primary and shadows the
	// primary's ledger by applying tailed WAL records until Promote.
	Follower bool
}

// node is the coordinator's ledger record for one member.
type node struct {
	id    string
	addr  string
	epoch int64
	// leaseJ is the cumulative budget granted; ackedJ the cumulative
	// consumption acknowledged. unspent = leaseJ - ackedJ is what the
	// node may still spend.
	leaseJ  float64
	ackedJ  float64
	targetJ float64 // unspent level heartbeat top-ups restore
	// escrowJ is the unspent lease booked as consumed when the lease
	// expired, awaiting reconciliation if the node rejoins.
	escrowJ  float64
	lastBeat time.Time
	live     bool
	// policies is the node's latest local qos ladder report (escalated
	// tenants only); the fleet-wide policy is the max-merge across live
	// nodes' reports, recomputed every heartbeat.
	policies []wire.TenantPolicy
}

func (n *node) unspent() float64 {
	if !n.live {
		return 0
	}
	return n.leaseJ - n.ackedJ
}

// sessRec is the coordinator's copy of one session: the registration
// and the acked log — the owner's latest checkpoint record and the
// iterations since, starting at absolute index base — are exactly what
// failover needs to rebuild it on a surviving node.
type sessRec struct {
	key    string
	id     string // owner-local session id
	node   string // owner node id ("" while awaiting a node)
	placed bool   // a node has reported it (reg/grant are authoritative)
	moving bool   // an adopt push is in flight; ownership is in transit
	// walGhost marks a placement learned from WAL replay: ownership is
	// known but the registration and log are not (heartbeats re-ship
	// them). Reassign must not act on a ghost until the owner has had a
	// lease term to rejoin and report, or it would push empty state over
	// a live session.
	walGhost bool
	reg      wire.RegisterRequest
	grantJ   float64
	spentJ   float64
	done     int
	comp     bool
	base     int
	log      []wire.IterRec
}

// reach is the absolute iteration count the stored log extends to.
func (r *sessRec) reach() int { return r.base + len(r.log) }

// Coordinator owns the fleet energy budget and the session placement
// map. All state is in memory; nodes are the durable replicas (their
// heartbeats rebuild placement, and node-local snapshots survive node
// restarts).
type Coordinator struct {
	cfg   Config
	tel   *telemetry.Telemetry
	clock func() time.Time
	httpc *http.Client

	mu         sync.Mutex
	nodes      map[string]*node
	sessions   map[string]*sessRec // by key
	byID       map[string]*sessRec // by owner-local id
	consumedJ  float64             // booked consumption incl. escrow
	epochCtr   int64
	violations int
	reassigned int
	// fence is the fencing epoch: bumped on every promotion, carried in
	// every response, and the proof of who the serving primary is — any
	// peer presenting a higher fence deposes us on the spot.
	fence    int64
	follower bool // standby shadow: serves nothing until Promote
	deposed  bool // out-fenced primary: serves nothing ever again
	walSeq   uint64
	// graceUntil holds Reassign back from acting on WAL-ghost placements
	// after a promotion or restart, giving owners one lease term to
	// rejoin and re-report their sessions.
	graceUntil time.Time
	wal        *ledgerWAL

	stopSweep chan struct{}
	sweepDone chan struct{}

	// roll aggregates member metric summaries into the fleet-level
	// exposition at /v1/cluster/metrics (rollup.go). Mutated only under
	// c.mu, from Heartbeat.
	roll *rollup

	gNodes, gUnspent, gConsumed, gPool           *telemetry.Gauge
	cBeats, cExpiries, cReassign, cPlaced, cViol *telemetry.Counter
	gDriftFleet, gDriftNodes                     *telemetry.Gauge
	fidelity                                     map[string]*telemetry.Gauge
}

// New builds a Coordinator and starts its expiry watchdog (unless
// disabled).
func New(cfg Config) (*Coordinator, error) {
	if cfg.FleetBudgetJ <= 0 {
		return nil, fmt.Errorf("cluster: fleet budget %v must be positive", cfg.FleetBudgetJ)
	}
	if cfg.ReserveFrac <= 0 || cfg.ReserveFrac >= 1 {
		cfg.ReserveFrac = 0.10
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 3 * time.Second
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = cfg.LeaseTTL / 4
	}
	if cfg.InitialLeaseJ <= 0 {
		cfg.InitialLeaseJ = cfg.FleetBudgetJ * (1 - cfg.ReserveFrac) / 8
	}
	if cfg.SweepInterval == 0 {
		cfg.SweepInterval = cfg.LeaseTTL / 4
	}
	tel := cfg.Telemetry
	if tel == nil {
		tel = telemetry.New(0)
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	httpc := cfg.HTTPClient
	if httpc == nil {
		httpc = &http.Client{Timeout: 5 * time.Second}
	}
	c := &Coordinator{
		cfg:      cfg,
		tel:      tel,
		clock:    clock,
		httpc:    httpc,
		nodes:    map[string]*node{},
		sessions: map[string]*sessRec{},
		byID:     map[string]*sessRec{},
		fidelity: map[string]*telemetry.Gauge{},
		roll:     newRollup(),

		gNodes:    tel.Registry.Gauge("jouleguard_cluster_nodes_live", "Member daemons holding a live lease."),
		gUnspent:  tel.Registry.Gauge("jouleguard_cluster_leases_unspent_joules", "Sum of live nodes' unspent budget leases."),
		gConsumed: tel.Registry.Gauge("jouleguard_cluster_consumed_joules", "Booked fleet consumption, incl. pessimistic escrow."),
		gPool:     tel.Registry.Gauge("jouleguard_cluster_pool_joules", "Unleased remainder of the fleet budget."),
		cBeats:    tel.Registry.Counter("jouleguard_cluster_heartbeats_total", "Lease renewals processed."),
		cExpiries: tel.Registry.Counter("jouleguard_cluster_lease_expiries_total", "Leases reclaimed from silent nodes."),
		cReassign: tel.Registry.Counter("jouleguard_cluster_reassignments_total", "Sessions moved to a new owner node."),
		cPlaced:   tel.Registry.Counter("jouleguard_cluster_sessions_placed_total", "Sessions placed onto nodes."),
		cViol:     tel.Registry.Counter("jouleguard_cluster_invariant_violations_total", "Failed fleet-ledger self-checks (should stay 0)."),

		gDriftFleet: tel.Registry.Gauge("jouleguard_provenance_drift_joules",
			"Conservation drift per custody layer (0 when the books balance).",
			telemetry.Label{Name: "layer", Value: "fleet"}),
		gDriftNodes: tel.Registry.Gauge("jouleguard_provenance_drift_joules",
			"Conservation drift per custody layer (0 when the books balance).",
			telemetry.Label{Name: "layer", Value: "nodes"}),
	}
	tel.Registry.Gauge("jouleguard_cluster_fleet_joules", "Fleet-wide energy budget.").Set(cfg.FleetBudgetJ)
	c.follower = cfg.Follower
	// /healthz answers with the coordinator's role and fence so a load
	// balancer (or jgtop) can tell the primary from a standby without
	// probing the control plane for a 503. The span-buffer identity stays
	// whatever the host process set (a member daemon's node name) unless
	// nothing claimed it yet.
	tel.SetHealth(func() telemetry.HealthInfo {
		c.mu.Lock()
		defer c.mu.Unlock()
		role := "primary"
		switch {
		case c.follower:
			role = "standby"
		case c.deposed:
			role = "deposed"
		}
		return telemetry.HealthInfo{Role: role, Fence: c.fence}
	})
	if tel.Spans.Node() == "" {
		tel.Spans.SetNode("coordinator")
	}
	// Replay an existing WAL before opening it for append: the restarted
	// coordinator resumes the old reign's ledger (and fence) exactly, and
	// the fresh header this run appends records the continuation.
	if cfg.WALPath != "" {
		if _, err := c.ReplayWALFile(cfg.WALPath); err != nil {
			return nil, err
		}
	}
	w, err := newLedgerWAL(cfg.WALPath, cfg.FleetBudgetJ, c.fence)
	if err != nil {
		return nil, err
	}
	w.seq = c.walSeq
	c.wal = w
	if cfg.SweepInterval > 0 && !c.follower {
		c.stopSweep = make(chan struct{})
		c.sweepDone = make(chan struct{})
		go c.sweepLoop()
	}
	return c, nil
}

// Telemetry returns the sink the coordinator reports into.
func (c *Coordinator) Telemetry() *telemetry.Telemetry { return c.tel }

// Stop halts the expiry watchdog and closes the WAL file mirror.
func (c *Coordinator) Stop() {
	if c.stopSweep != nil {
		close(c.stopSweep)
		<-c.sweepDone
		c.stopSweep = nil
	}
	if c.wal != nil {
		c.wal.Close()
	}
}

// Fence reports the coordinator's fencing epoch.
func (c *Coordinator) Fence() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fence
}

// gateLocked enforces the control-plane serving rules: a follower
// (standby not yet promoted) serves nothing, a deposed primary serves
// nothing, and a peer carrying a higher fence than ours is proof a
// standby promoted over us — we step down on the spot rather than issue
// one more grant the fleet would have to double-count.
func (c *Coordinator) gateLocked(peerFence int64) error {
	if c.follower {
		return &wire.Error{Code: wire.CodeNotPrimary, Msg: "standby coordinator; retry against the primary"}
	}
	if peerFence > c.fence {
		c.fence = peerFence
		c.deposed = true
	}
	if c.deposed {
		return &wire.Error{Code: wire.CodeStaleEpoch,
			Msg: fmt.Sprintf("coordinator deposed at fence %d; rejoin the promoted primary", c.fence)}
	}
	return nil
}

// Promote turns a standby (or a recovered coordinator) into the serving
// primary. The fencing epoch is bumped past the highest fence ever
// seen — every response now carries it, so members and clients treat
// the old primary's grants as stale — and every live node's unspent
// lease is escrowed exactly as if its lease had expired: the new
// primary cannot know how much of those grants members have spent under
// the old reign, so it books all of it pessimistically and lets each
// member rejoin-reconcile the truth back. The safety invariant
// therefore holds from the first instant of the new reign, and a joule
// promised by both coordinators is impossible by construction.
func (c *Coordinator) Promote() int64 {
	c.mu.Lock()
	c.follower = false
	c.deposed = false
	c.fence++
	c.logFenceLocked("promote")
	ids := make([]string, 0, len(c.nodes))
	for id := range c.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		n := c.nodes[id]
		if !n.live {
			continue
		}
		escrow := n.leaseJ - n.ackedJ
		if escrow < 0 {
			escrow = 0
		}
		n.escrowJ += escrow
		c.consumedJ += escrow
		n.live = false
		c.cExpiries.Inc()
		c.logNodeLocked("promote-escrow", n)
		c.checkLocked("promote-escrow")
	}
	c.graceUntil = c.clock().Add(c.cfg.LeaseTTL)
	fence := c.fence
	startSweep := c.cfg.SweepInterval > 0 && c.stopSweep == nil
	if startSweep {
		c.stopSweep = make(chan struct{})
		c.sweepDone = make(chan struct{})
	}
	c.mu.Unlock()
	if startSweep {
		go c.sweepLoop()
	}
	return fence
}

func (c *Coordinator) sweepLoop() {
	defer close(c.sweepDone)
	t := time.NewTicker(c.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			c.Sweep()
		case <-c.stopSweep:
			return
		}
	}
}

// ---------------------------------------------------------------------
// Ledger arithmetic. Callers hold c.mu.

func (c *Coordinator) unspentLocked() float64 {
	total := 0.0
	for _, n := range c.nodes {
		total += n.unspent()
	}
	return total
}

// poolLocked is the unleased remainder of the fleet budget.
func (c *Coordinator) poolLocked() float64 {
	return c.cfg.FleetBudgetJ - c.consumedJ - c.unspentLocked()
}

// reserveJ is the failover reserve withheld from steady-state leasing.
func (c *Coordinator) reserveJ() float64 {
	return c.cfg.FleetBudgetJ * c.cfg.ReserveFrac
}

// checkLocked asserts the safety invariant after a ledger mutation.
func (c *Coordinator) checkLocked(op string) {
	const eps = 1e-6
	if c.unspentLocked()+c.consumedJ > c.cfg.FleetBudgetJ+eps || c.consumedJ < -eps {
		c.violations++
		c.cViol.Inc()
	}
	c.publishLocked()
	_ = op
}

func (c *Coordinator) publishLocked() {
	live := 0
	for _, n := range c.nodes {
		if n.live {
			live++
			if g := c.fidelity[n.id]; g != nil && n.leaseJ > 0 {
				g.Set(n.ackedJ / n.leaseJ)
			}
		}
	}
	c.gNodes.Set(float64(live))
	c.gUnspent.Set(c.unspentLocked())
	c.gConsumed.Set(c.consumedJ)
	c.gPool.Set(c.poolLocked())
	// Fleet-layer conservation, re-audited after every ledger mutation:
	// pool + unspent leases + booked consumption must re-compose the
	// budget (poolLocked is budget-minus-the-rest, so a drift here means a
	// NaN or sign error crept into one of the terms).
	c.gDriftFleet.Set(c.cfg.FleetBudgetJ - (c.poolLocked() + c.unspentLocked() + c.consumedJ))
}

// grantLocked moves up to wantJ from the pool onto n's lease; reserved
// budget is withheld unless dipReserve (failover adoptions may use it).
func (c *Coordinator) grantLocked(n *node, wantJ float64, dipReserve bool) float64 {
	if wantJ <= 0 || !n.live {
		return 0
	}
	avail := c.poolLocked()
	if !dipReserve {
		avail -= c.reserveJ()
	}
	if avail <= 0 {
		return 0
	}
	g := wantJ
	if g > avail {
		g = avail
	}
	n.leaseJ += g
	return g
}

// bookLocked acknowledges a node's cumulative consumption and returns
// how many joules it booked.
func (c *Coordinator) bookLocked(n *node, consumedJ float64) float64 {
	delta := consumedJ - n.ackedJ
	if delta <= 0 {
		return 0
	}
	// Never book beyond the lease: a correct node cannot spend more than
	// it was granted, so the excess is clamped (and would indicate a
	// node-side accounting bug, not fleet overdraft).
	if max := n.leaseJ - n.ackedJ; delta > max {
		delta = max
	}
	n.ackedJ += delta
	c.consumedJ += delta
	return delta
}

// ---------------------------------------------------------------------
// Membership.

// Join enrolls (or re-enrolls) a node. A rejoin reconciles the
// pessimistic escrow booked when the node's lease expired: the node
// reports its true cumulative spend, the coordinator books the part of
// the escrow that was actually spent and refunds the rest to the pool.
func (c *Coordinator) Join(req wire.JoinRequest) (wire.JoinResponse, error) {
	if req.Node == "" || req.Addr == "" {
		return wire.JoinResponse{}, &wire.Error{Code: wire.CodeBadRequest, Msg: "join requires node name and address"}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.gateLocked(req.Fence); err != nil {
		return wire.JoinResponse{}, err
	}
	n := c.nodes[req.Node]
	switch {
	case n == nil:
		n = &node{id: req.Node, addr: req.Addr}
		c.nodes[req.Node] = n
		c.fidelity[req.Node] = c.tel.Registry.Gauge(
			"jouleguard_cluster_node_fidelity", "Acked spend over cumulative lease, per node.",
			telemetry.Label{Name: "node", Value: req.Node})
	case req.ConsumedJ >= n.ackedJ:
		// A continuing incarnation (kept its meter): reconcile. The
		// unacked spend d replaces the pessimistic escrow e in the books
		// (d <= e when the lease expired, because the node's broker caps
		// spend at the lease and its fence stopped it; d is booked fresh
		// when the node never expired, e = 0). The lease is reset to the
		// reported spend — zero unspent — so the e - d refund returns
		// only to the pool, never double-counted as leased budget; the
		// top-up below re-grants working room from that same pool.
		d := req.ConsumedJ - n.ackedJ
		c.consumedJ += d - n.escrowJ
		n.ackedJ = req.ConsumedJ
		n.leaseJ = n.ackedJ
		n.escrowJ = 0
	default:
		// A fresh incarnation (meter reset): the old incarnation's acked
		// spend and escrow stay booked — whatever it actually drew is
		// covered by them — and the lease restarts from zero. The escrow
		// is never refunded (no way to learn the true final spend), which
		// errs on the safe side of the fleet guarantee.
		n.leaseJ, n.ackedJ, n.escrowJ = 0, 0, 0
	}
	n.addr = req.Addr
	c.epochCtr++
	n.epoch = c.epochCtr
	n.live = true
	n.lastBeat = c.clock()
	n.targetJ = c.cfg.InitialLeaseJ
	c.grantLocked(n, n.targetJ-n.unspent(), false)
	c.logNodeLocked("join", n)
	c.checkLocked("join")

	// Tell a returning node which of its sessions moved on while it was
	// away; it must discard them (their budget was escrowed and their
	// state restored elsewhere). A key the coordinator has no record of
	// is claimed, not dropped: a coordinator that lost its placement map
	// (restart without a WAL, or a promotion racing the first report)
	// must treat the holding node as authoritative rather than order a
	// running session discarded.
	var drop []string
	for _, key := range req.HeldKeys {
		rec := c.sessions[key]
		switch {
		case rec == nil:
			c.sessions[key] = &sessRec{key: key, node: req.Node, walGhost: true}
			c.logSessLocked("place", key, req.Node)
		case rec.node != req.Node:
			drop = append(drop, key)
		}
	}
	sort.Strings(drop)
	return wire.JoinResponse{
		Epoch:       n.epoch,
		LeaseJ:      n.leaseJ,
		TTLMS:       c.cfg.LeaseTTL.Milliseconds(),
		HeartbeatMS: c.cfg.HeartbeatEvery.Milliseconds(),
		Drop:        drop,
		Fence:       c.fence,
	}, nil
}

// Heartbeat renews a lease: consumption is booked, the lease is topped
// back up to the node's target, and the session reports are folded into
// the coordinator's placement map and logs.
func (c *Coordinator) Heartbeat(req wire.HeartbeatRequest) (wire.HeartbeatResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.gateLocked(req.Fence); err != nil {
		return wire.HeartbeatResponse{}, err
	}
	n := c.nodes[req.Node]
	if n == nil || !n.live || n.epoch != req.Epoch {
		return wire.HeartbeatResponse{}, &wire.Error{Code: wire.CodeUnknownNode,
			Msg: fmt.Sprintf("node %q has no live lease at epoch %d; rejoin", req.Node, req.Epoch)}
	}
	now := c.clock()
	// dt since the node's previous beat feeds the burn-rate EWMA; captured
	// before the stamp below overwrites it.
	dt := now.Sub(n.lastBeat).Seconds()
	n.lastBeat = now
	booked := c.bookLocked(n, req.ConsumedJ)
	// Nodes-layer conservation: after booking, the acked total should
	// match the node's reported cumulative spend exactly; a residue means
	// the clamp fired — the node claims spend beyond its lease.
	c.gDriftNodes.Set(req.ConsumedJ - n.ackedJ)
	// A node that reported no new spend does not need its historical peak
	// headroom restored: decay the ratcheted top-up target toward the
	// initial share so one busy-then-idle node cannot hoard the leasable
	// pool forever. Grants already made are never clawed back — the decay
	// only stops future top-ups; a new burst of demand re-raises the
	// target through the on-demand extension path.
	if booked <= 0 && n.targetJ > c.cfg.InitialLeaseJ {
		n.targetJ -= (n.targetJ - c.cfg.InitialLeaseJ) * targetDecay
	}
	c.grantLocked(n, n.targetJ-n.unspent(), false)
	c.cBeats.Inc()

	// Fleet rollup: fold the node's cumulative counter summary and burn,
	// and close each forwarded trace with this coordinator's lease span —
	// the final hop of the distributed iteration trace.
	c.roll.foldNode(req.Node, req.Metrics)
	c.roll.observeBurn(booked, dt)
	nowS := unixS(now)
	for _, ref := range req.Traces {
		c.tel.Spans.Record(telemetry.Span{
			Trace: ref.Trace, ID: c.tel.Spans.NextID(), Parent: ref.Span,
			Name: telemetry.SpanCoordLease, Session: ref.Session,
			StartS: nowS, EndS: nowS, AttrJ: booked, AttrIter: ref.Iter,
		})
	}

	// Tenant protection: adopt the node's latest local ladder report and
	// recompute the fleet-wide merge (max escalation across live nodes).
	// The merge rides back on this very response, so a tenant escalated
	// on any node is enforced fleet-wide within one heartbeat interval —
	// re-placing sessions onto a quieter node buys it nothing.
	n.policies = req.Tenants
	policies := c.mergePoliciesLocked()
	states := make(map[string]string, len(policies))
	for _, p := range policies {
		states[p.Tenant] = p.State
		c.roll.observeTenantQoS(p.Tenant, p.Tier, p.State)
	}

	acked := make(map[string]int, len(req.Sessions))
	for i := range req.Sessions {
		rep := &req.Sessions[i]
		var prevSpent float64
		if rec := c.sessions[rep.Key]; rec != nil {
			prevSpent = rec.spentJ
		}
		acked[rep.ID] = c.foldReportLocked(req.Node, rep)
		c.roll.observeTenant(rep.Reg.Tenant, rep.SpentJ-prevSpent, dt)
		if _, escalated := states[rep.Reg.Tenant]; !escalated {
			c.roll.observeTenantQoS(rep.Reg.Tenant, rep.Reg.Tier, "ok")
		}
	}
	for _, id := range req.Closed {
		if rec := c.byID[id]; rec != nil && rec.node == req.Node {
			delete(c.sessions, rec.key)
			delete(c.byID, id)
			c.logSessLocked("close", rec.key, "")
		}
	}
	c.logNodeLocked("heartbeat", n)
	c.checkLocked("heartbeat")
	return wire.HeartbeatResponse{
		LeaseJ:   n.leaseJ,
		TTLMS:    c.cfg.LeaseTTL.Milliseconds(),
		Acked:    acked,
		Fence:    c.fence,
		Policies: policies,
	}, nil
}

// mergePoliciesLocked folds every live node's latest local ladder
// report into the fleet-wide tenant policy: per tenant, the maximum
// escalation wins. De-escalation propagates for free — the merge is
// recomputed from the latest reports, so once the escalating node's
// ladder cools the tenant drops out of the merge and every member's
// remote overlay clears on its next beat. Callers hold c.mu.
func (c *Coordinator) mergePoliciesLocked() []wire.TenantPolicy {
	merged := map[string]wire.TenantPolicy{}
	for _, n := range c.nodes {
		if !n.live {
			continue
		}
		for _, p := range n.policies {
			if cur, ok := merged[p.Tenant]; !ok || qos.ParseState(p.State) > qos.ParseState(cur.State) {
				merged[p.Tenant] = p
			}
		}
	}
	out := make([]wire.TenantPolicy, 0, len(merged))
	for _, p := range merged {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// foldReportLocked merges one session report and returns the iteration
// count the coordinator's stored log reaches (the node's next From
// index).
func (c *Coordinator) foldReportLocked(nodeID string, rep *wire.SessionReport) int {
	if rep.Key == "" {
		return 0
	}
	rec := c.sessions[rep.Key]
	if rec == nil {
		rec = &sessRec{key: rep.Key}
		c.sessions[rep.Key] = rec
	}
	if rec.id != rep.ID {
		delete(c.byID, rec.id)
		rec.id = rep.ID
		c.byID[rep.ID] = rec
	}
	if rec.node != nodeID || !rec.placed {
		c.logSessLocked("place", rep.Key, nodeID)
	}
	rec.node = nodeID
	rec.placed = true
	rec.walGhost = false
	rec.reg = rep.Reg
	rec.grantJ = rep.GrantJ
	rec.spentJ = rep.SpentJ
	rec.done = rep.Done
	rec.comp = rep.Complete
	// Fold in entries that extend our copy: a report that opens with a
	// checkpoint stands alone and replaces it (which is what keeps the
	// copy bounded), a plain tail is appended where it joins contiguously.
	// Otherwise keep ours and let the ack re-sync the node's cursor.
	if n := len(rep.NewIters); n > 0 && rep.From+n > rec.reach() {
		switch {
		case rep.NewIters[0].State != nil:
			rec.base, rec.log = rep.From, append(rec.log[:0], rep.NewIters...)
		case rep.From >= rec.base && rep.From <= rec.reach():
			rec.log = append(rec.log[:rep.From-rec.base], rep.NewIters...)
		}
	}
	return rec.reach()
}

// targetDecay is the fraction of the gap between a node's ratcheted
// top-up target and the initial lease share reclaimed per idle
// heartbeat (one that books no new spend).
const targetDecay = 0.1

// Extend grants an on-demand lease extension (admission assists).
func (c *Coordinator) Extend(req wire.ExtendRequest) (wire.ExtendResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.gateLocked(req.Fence); err != nil {
		return wire.ExtendResponse{}, err
	}
	n := c.nodes[req.Node]
	if n == nil || !n.live || n.epoch != req.Epoch {
		return wire.ExtendResponse{}, &wire.Error{Code: wire.CodeUnknownNode,
			Msg: fmt.Sprintf("node %q has no live lease at epoch %d; rejoin", req.Node, req.Epoch)}
	}
	if req.NeedJ <= 0 {
		return wire.ExtendResponse{}, &wire.Error{Code: wire.CodeBadRequest, Msg: "extension must be positive"}
	}
	g := c.grantLocked(n, req.NeedJ, false)
	n.targetJ += g
	c.logNodeLocked("extend", n)
	c.checkLocked("extend")
	return wire.ExtendResponse{LeaseJ: n.leaseJ, GrantedJ: g, Fence: c.fence}, nil
}

// ---------------------------------------------------------------------
// Placement.

// mix64 is the murmur3 finalizer: raw FNV-1a over short, similar
// strings is nearly order-preserving (a "node0"/"node1"/"node2" prefix
// can win for every key), so the rendezvous score needs a full-avalanche
// pass to spread placement evenly.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// rendezvous picks the live node with the highest hash(node, key) — the
// classic highest-random-weight placement: stable under membership
// change, no ring state to maintain.
func (c *Coordinator) rendezvousLocked(key string) *node {
	var best *node
	var bestScore uint64
	for _, n := range c.nodes {
		if !n.live {
			continue
		}
		h := fnv.New64a()
		h.Write([]byte(n.id))
		h.Write([]byte{0})
		h.Write([]byte(key))
		if score := mix64(h.Sum64()); best == nil || score > bestScore || (score == bestScore && n.id < best.id) {
			best, bestScore = n, score
		}
	}
	return best
}

// Place resolves (or decides) the owner of a session key. It backs the
// coordinator's register redirect and the placement lookup.
func (c *Coordinator) Place(key string) (wire.PlacementResponse, error) {
	if key == "" {
		return wire.PlacementResponse{}, &wire.Error{Code: wire.CodeBadRequest,
			Msg: "placement requires a session key"}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.gateLocked(0); err != nil {
		return wire.PlacementResponse{}, err
	}
	if rec := c.sessions[key]; rec != nil {
		owner := c.nodes[rec.node]
		if owner == nil || !owner.live {
			return wire.PlacementResponse{}, &wire.Error{Code: wire.CodeNoNodes,
				Msg: fmt.Sprintf("session %q is between nodes (owner down, failover pending); retry", key)}
		}
		return wire.PlacementResponse{Key: key, Node: owner.id, Addr: owner.addr, SessionID: rec.id, Fence: c.fence}, nil
	}
	owner := c.rendezvousLocked(key)
	if owner == nil {
		return wire.PlacementResponse{}, &wire.Error{Code: wire.CodeNoNodes, Msg: "no live nodes in the fleet; retry"}
	}
	c.sessions[key] = &sessRec{key: key, node: owner.id}
	c.logSessLocked("place", key, owner.id)
	c.cPlaced.Inc()
	return wire.PlacementResponse{Key: key, Node: owner.id, Addr: owner.addr, Fence: c.fence}, nil
}

// ---------------------------------------------------------------------
// Failure handling.

// Sweep expires leases whose nodes went silent and reassigns their
// sessions to survivors. It returns how many leases it expired; the
// sweep loop calls it on SweepInterval.
func (c *Coordinator) Sweep() int {
	now := c.clock()
	c.mu.Lock()
	if c.follower || c.deposed {
		c.mu.Unlock()
		return 0
	}
	expired := 0
	for _, n := range c.nodes {
		if !n.live || now.Sub(n.lastBeat) <= c.cfg.LeaseTTL {
			continue
		}
		// Pessimistic escrow: book the whole unspent lease as consumed.
		// The node can spend at most that much before its own fence
		// trips, so the fleet total stays safe even if it is partitioned
		// rather than dead; a rejoin refunds whatever was not spent.
		// ackedJ is left alone — it must keep meaning "genuinely acked"
		// so the rejoin reconcile can tell continuing incarnations
		// (reported >= acked) from fresh ones.
		escrow := n.leaseJ - n.ackedJ
		if escrow < 0 {
			escrow = 0
		}
		n.escrowJ += escrow
		c.consumedJ += escrow
		n.live = false
		expired++
		c.cExpiries.Inc()
		c.logNodeLocked("expire", n)
		c.checkLocked("expire")
	}
	c.mu.Unlock()
	// Reassign runs on every sweep, not just fresh expiries: an adopt
	// push that failed (new owner briefly unreachable, lease applying on
	// its next heartbeat) leaves sessions stranded on a dead node until
	// some later round lands them.
	c.Reassign()
	return expired
}

// Reassign finds sessions stranded on dead nodes and restores each on a
// survivor: pick the new owner by rendezvous hashing, extend its lease
// to cover the session's remaining grant, and push the registration +
// acked log (checkpoint and tail) to rebuild from. Sessions the dead
// node never reported (no authoritative record yet) are unplaced — a
// re-registration places them fresh.
func (c *Coordinator) Reassign() {
	// Everything the push needs (owner id and address included) is copied
	// while c.mu is held: the node record may be rewritten by a
	// concurrent Join the moment the lock drops.
	type move struct {
		rec   *sessRec
		adopt wire.AdoptSession
		node  string
		addr  string
	}
	now := c.clock()
	c.mu.Lock()
	if c.follower || c.deposed {
		c.mu.Unlock()
		return
	}
	fence := c.fence
	var moves []move
	var keys []string
	for key := range c.sessions {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		rec := c.sessions[key]
		if rec.moving {
			continue // an adopt push from an overlapping sweep is in flight
		}
		owner := c.nodes[rec.node]
		if owner != nil && owner.live {
			continue
		}
		if rec.walGhost {
			// Ownership came from WAL replay; there is nothing to restore
			// from yet. Give the owner one lease term to rejoin and
			// re-report before concluding the session is gone.
			if now.Before(c.graceUntil) {
				continue
			}
			delete(c.byID, rec.id)
			delete(c.sessions, key)
			c.logSessLocked("close", key, "")
			continue
		}
		if !rec.placed {
			// Never reported: nothing to restore. Forget the placement so
			// the next register places it fresh.
			delete(c.byID, rec.id)
			delete(c.sessions, key)
			continue
		}
		next := c.rendezvousLocked(key)
		if next == nil {
			continue // no survivors; retry on a later sweep
		}
		// Fund the remaining grant on the new owner (reserve may be
		// tapped: failover must not starve behind admissions).
		remaining := rec.grantJ - rec.spentJ
		if remaining < 0 {
			remaining = 0
		}
		need := remaining*serverReserve - (next.targetJ - next.unspent())
		if need > 0 {
			g := c.grantLocked(next, need, true)
			next.targetJ += g
			c.logNodeLocked("reassign-fund", next)
		}
		log := make([]wire.IterRec, len(rec.log))
		copy(log, rec.log)
		// Mark the record in transit before dropping the lock: if the dead
		// owner rejoins while the push is in flight, Join must see it no
		// longer owns the key and order the local copy dropped — otherwise
		// the session would run live on two nodes at once.
		rec.node = ""
		rec.moving = true
		delete(c.byID, rec.id)
		moves = append(moves, move{
			rec:  rec,
			node: next.id,
			addr: next.addr,
			adopt: wire.AdoptSession{
				Key:    key,
				Reg:    rec.reg,
				GrantJ: rec.grantJ,
				SpentJ: rec.spentJ,
				Log:    log,
			},
		})
		c.checkLocked("reassign-fund")
	}
	c.mu.Unlock()

	for _, m := range moves {
		var resp wire.AdoptResponse
		err := postJSON(c.httpc, m.addr+wire.ClusterBasePath+"/adopt",
			wire.AdoptRequest{Sessions: []wire.AdoptSession{m.adopt}, Fence: fence}, &resp)
		c.mu.Lock()
		m.rec.moving = false
		if err != nil {
			c.mu.Unlock()
			continue // owner unreachable; still in limbo, a later sweep retries
		}
		// Commit the new placement only if the adopting node is still live;
		// if it died during the push, its lease (including the failover
		// funding) was escrowed and the record stays unowned, so the next
		// sweep moves the session again. The old owner cannot have taken
		// the key back meanwhile: a rejoin during the in-transit window was
		// told to drop it.
		if n := c.nodes[m.node]; n != nil && n.live && m.rec.node == "" {
			m.rec.node = m.node
			c.logSessLocked("move", m.adopt.Key, m.node)
		}
		if id := resp.IDs[m.adopt.Key]; id != "" {
			m.rec.id = id
			c.byID[id] = m.rec
		}
		m.rec.done = m.rec.reach()
		c.reassigned++
		c.cReassign.Inc()
		c.mu.Unlock()
	}
}

// serverReserve mirrors internal/server.DefaultReserve without an
// import cycle risk; the coordinator funds adoptions with the same 5%
// slack the node broker will commit.
const serverReserve = 1.05

// Info snapshots the fleet ledger and placement for introspection.
func (c *Coordinator) Info(includeDetail bool) wire.ClusterInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	role := "primary"
	switch {
	case c.follower:
		role = "standby"
	case c.deposed:
		role = "deposed"
	}
	info := wire.ClusterInfo{
		FleetJ:              c.cfg.FleetBudgetJ,
		Fence:               c.fence,
		Role:                role,
		ReserveJ:            c.reserveJ(),
		ConsumedJ:           c.consumedJ,
		LeasedUnspentJ:      c.unspentLocked(),
		PoolJ:               c.poolLocked(),
		InvariantViolations: c.violations,
		Reassignments:       c.reassigned,
	}
	for _, n := range c.nodes {
		if n.live {
			info.NodesLive++
		}
	}
	if !includeDetail {
		return info
	}
	var ids []string
	for id := range c.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		n := c.nodes[id]
		count := 0
		for _, rec := range c.sessions {
			if rec.node == id {
				count++
			}
		}
		fid := 0.0
		if n.leaseJ > 0 {
			fid = n.ackedJ / n.leaseJ
		}
		info.Nodes = append(info.Nodes, wire.NodeInfo{
			Node: id, Addr: n.addr, Epoch: n.epoch, Live: n.live,
			LeaseJ: n.leaseJ, AckedJ: n.ackedJ, UnspentJ: n.unspent(),
			EscrowJ: n.escrowJ, Sessions: count, Fidelity: fid,
		})
	}
	var keys []string
	for key := range c.sessions {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		rec := c.sessions[key]
		info.Sessions = append(info.Sessions, wire.PlacementInfo{
			Key: key, Node: rec.node, ID: rec.id, Done: rec.done,
			GrantJ: rec.grantJ, SpentJ: rec.spentJ, Complete: rec.comp,
		})
	}
	return info
}

// Violations reports failed ledger self-checks (tests assert 0).
func (c *Coordinator) Violations() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.violations
}
