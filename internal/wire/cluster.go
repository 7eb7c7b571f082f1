// Cluster protocol: the fleet coordinator (internal/cluster) owns one
// fleet-wide energy budget and delegates it to member daemons through
// expiring leases. Nodes join and heartbeat against the coordinator;
// clients register sessions at the coordinator and are redirected to
// the owning node. All routes are versioned alongside the session
// protocol:
//
//	POST /v1/cluster/join          JoinRequest      -> JoinResponse
//	POST /v1/cluster/heartbeat     HeartbeatRequest -> HeartbeatResponse
//	POST /v1/cluster/lease         ExtendRequest    -> ExtendResponse
//	GET  /v1/cluster               ClusterInfo
//	GET  /v1/cluster/sessions/{key}  PlacementResponse
//	POST /v1/sessions  (coordinator) -> 307 + ErrorResponse{not_owner, Addr}
//	POST /v1/cluster/adopt  (node)  AdoptRequest    -> AdoptResponse
//	GET  /v1/cluster/wal?from=N    write-ahead-log tail (standby replication)
//
// The adopt route is the one coordinator->node call: on failover the
// coordinator pushes a dead node's sessions (registration + checkpoint
// and iteration tail) to their new owner, which rebuilds them with the
// same loop snapshot restore uses.
package wire

// ClusterBasePath is the versioned prefix of the cluster routes.
const ClusterBasePath = "/" + Version + "/cluster"

// IterRec is one completed iteration exactly as the controller consumed
// it: the client's clocks, its cumulative meter reading and the reported
// accuracy. It is the unit of the daemon snapshot, of heartbeat session
// reports, and of cross-node adoption.
//
// A session's durable form is a log of IterRecs whose first record may
// carry State: the governor stack's checkpoint taken right after that
// iteration settled. Rebuilding a session is one loop over the log — a
// record carrying State restores it into the fresh governor, a record
// without it steps the governor through the iteration — and lands on
// bit-identical state either way. A log with no State at all replays
// from the session's first iteration (short sessions, and every log
// written before checkpoints existed).
type IterRec struct {
	NextNow   float64 `json:"next_now"`
	DoneNow   float64 `json:"done_now"`
	EnergyJ   float64 `json:"energy_j"`
	EnergyErr bool    `json:"energy_err,omitempty"`
	Accuracy  float64 `json:"accuracy"`
	// ClientJ is the client's own cumulative reading, logged only by a
	// metering daemon: there EnergyJ is the meter-attributed series the
	// controller consumed, and the client's counter is what the next
	// iteration's stimulus is differenced against.
	ClientJ float64 `json:"client_j,omitempty"`
	// State is the checkpoint (jouleguard.OnlineController.MarshalState)
	// after this iteration; only ever set on the first record of a log.
	State []byte `json:"state,omitempty"`
}

// JoinRequest enrolls (or re-enrolls) a node into the fleet. A rejoining
// node reports its cumulative consumed joules so the coordinator can
// reconcile the pessimistic escrow it booked when the lease expired.
type JoinRequest struct {
	// Node is the stable node name (survives restarts of the process).
	Node string `json:"node"`
	// Addr is the node's advertised base URL (clients are redirected to
	// it; the coordinator pushes adoptions to it).
	Addr string `json:"addr"`
	// ConsumedJ is the node's cumulative energy spend across its
	// lifetime (0 for a fresh incarnation that lost its meter).
	ConsumedJ float64 `json:"consumed_j"`
	// HeldKeys lists the session keys the node currently owns, so the
	// coordinator can tell it which were reassigned while it was away.
	HeldKeys []string `json:"held_keys,omitempty"`
	// Fence is the highest coordinator fencing epoch the node has seen.
	// A coordinator receiving a higher fence than its own has been
	// deposed by a promoted standby and must step down.
	Fence int64 `json:"fence,omitempty"`
}

// JoinResponse acknowledges membership and issues the budget lease.
type JoinResponse struct {
	// Epoch identifies this enrollment; heartbeats must echo it.
	Epoch int64 `json:"epoch"`
	// LeaseJ is the node's cumulative budget lease in joules: the node's
	// broker may let its sessions spend up to LeaseJ total. It only
	// grows; consumption is reported back through heartbeats.
	LeaseJ float64 `json:"lease_j"`
	// TTLMS is the lease term: a node that cannot renew within it must
	// fence itself (stop arming iterations), and the coordinator
	// reclaims the unspent lease after it.
	TTLMS int64 `json:"ttl_ms"`
	// HeartbeatMS is the renewal cadence the coordinator suggests.
	HeartbeatMS int64 `json:"heartbeat_ms"`
	// Drop lists session keys the node held that were reassigned to
	// other nodes while it was partitioned; it must discard them.
	Drop []string `json:"drop,omitempty"`
	// Fence is the coordinator's fencing epoch, bumped on every standby
	// promotion. Members record the highest fence they have seen and
	// reject any grant carrying a lower one (a deposed primary).
	Fence int64 `json:"fence,omitempty"`
}

// SessionReport is one session's incremental state in a heartbeat: the
// coordinator folds NewIters into its copy of the log — appending a
// plain tail, replacing the copy when the first record carries a
// checkpoint — which is what failover restores from.
type SessionReport struct {
	ID        string          `json:"id"`
	Key       string          `json:"key"`
	Reg       RegisterRequest `json:"reg"`
	GrantJ    float64         `json:"grant_j"`
	ImportedJ float64         `json:"imported_j,omitempty"`
	SpentJ    float64         `json:"spent_j"`
	Done      int             `json:"done"`
	Complete  bool            `json:"complete,omitempty"`
	// From is the absolute iteration index NewIters starts at: the
	// node's view of what the coordinator has acked, or the node's latest
	// checkpoint when the coordinator is behind it. The coordinator
	// replies with the iteration count its copy reaches, so the two
	// re-sync automatically.
	From     int       `json:"from"`
	NewIters []IterRec `json:"new_iters,omitempty"`
}

// TraceRef forwards one sampled trace context from a member to the
// coordinator on a heartbeat, so the coordinator can record its
// lease-mutation span into the same distributed trace. NowS is the
// member's clock when the traced iteration settled.
type TraceRef struct {
	Trace   uint64  `json:"trace"`
	Span    uint64  `json:"span"`
	Session string  `json:"session,omitempty"`
	Iter    int     `json:"iter"`
	NowS    float64 `json:"now_s"`
}

// MetricSummary ships a member's cumulative telemetry counters on its
// heartbeats — the rollup's input. Values are cumulative (resets are
// detected by the coordinator when a value shrinks); shipping on the
// existing heartbeat means the coordinator never scrapes members.
type MetricSummary struct {
	Decisions          float64 `json:"decisions"`
	Iterations         float64 `json:"iterations"`
	GuardRejected      float64 `json:"guard_rejected"`
	WatchdogTrips      float64 `json:"watchdog_trips"`
	FaultsInjected     float64 `json:"faults_injected"`
	DecisionSecondsSum float64 `json:"decision_seconds_sum"`
	DecisionCount      float64 `json:"decision_count"`
}

// HeartbeatRequest renews the lease and reports consumption.
type HeartbeatRequest struct {
	Node  string `json:"node"`
	Epoch int64  `json:"epoch"`
	// ConsumedJ is the node's cumulative spend; the coordinator books
	// the delta against the lease.
	ConsumedJ float64         `json:"consumed_j"`
	Sessions  []SessionReport `json:"sessions,omitempty"`
	// Closed lists node-local session ids torn down since the last
	// heartbeat; the coordinator drops their placement records.
	Closed []string `json:"closed,omitempty"`
	// Fence is the highest fencing epoch the node has seen (see
	// JoinRequest.Fence).
	Fence int64 `json:"fence,omitempty"`
	// Traces carries the trace contexts of sampled iterations settled
	// since the last heartbeat (bounded member-side); the coordinator
	// records its lease-booking span under each.
	Traces []TraceRef `json:"traces,omitempty"`
	// Metrics is the node's cumulative telemetry summary for the
	// cluster-level rollup.
	Metrics *MetricSummary `json:"metrics,omitempty"`
	// Tenants reports the node's local QoS ladder verdicts so the
	// coordinator can merge them into fleet-wide tenant policy.
	Tenants []TenantPolicy `json:"tenants,omitempty"`
}

// TenantPolicy is one tenant's QoS standing — shipped node->coordinator
// on heartbeats (the node's local ladder verdict) and coordinator->node
// in the response (the fleet-wide merge, maximum escalation wins). A
// tenant throttled on one node is therefore throttled everywhere: it
// cannot escape enforcement by re-placing its sessions on another node.
type TenantPolicy struct {
	Tenant string `json:"tenant"`
	// Tier is the tenant's QoS class ("guaranteed" | "standard" |
	// "best-effort").
	Tier string `json:"tier"`
	// State is the ladder rung ("ok" | "throttled" | "degraded" |
	// "suspended" | "killed").
	State string `json:"state"`
}

// HeartbeatResponse extends the lease and acks the session logs.
type HeartbeatResponse struct {
	LeaseJ float64 `json:"lease_j"`
	TTLMS  int64   `json:"ttl_ms"`
	// Acked maps node-local session ids to the iteration count the
	// coordinator's copy of the log reaches; the node sends iterations
	// from that absolute index next time.
	Acked map[string]int `json:"acked,omitempty"`
	// Fence is the coordinator's fencing epoch (see JoinResponse.Fence).
	Fence int64 `json:"fence,omitempty"`
	// Policies is the fleet-wide tenant policy merge: for every tenant
	// any node has escalated, the maximum escalation currently in force.
	// Members overlay these onto their local ladders as a remote floor.
	Policies []TenantPolicy `json:"policies,omitempty"`
}

// ExtendRequest asks for an on-demand lease extension, typically to
// admit a registration the node's current lease cannot cover.
type ExtendRequest struct {
	Node  string  `json:"node"`
	Epoch int64   `json:"epoch"`
	NeedJ float64 `json:"need_j"`
	// Fence is the highest fencing epoch the node has seen.
	Fence int64 `json:"fence,omitempty"`
	// TraceID/SpanID propagate the trace context when the extension was
	// triggered by a traced admission (0 = untraced).
	TraceID uint64 `json:"trace_id,omitempty"`
	SpanID  uint64 `json:"span_id,omitempty"`
}

// ExtendResponse reports the (possibly partial) extension.
type ExtendResponse struct {
	LeaseJ   float64 `json:"lease_j"`
	GrantedJ float64 `json:"granted_j"`
	// Fence is the coordinator's fencing epoch; a member must drop the
	// extension if it is older than the highest fence it has seen.
	Fence int64 `json:"fence,omitempty"`
}

// AdoptSession is one migrated session: everything the new owner needs
// to rebuild it (checkpoint + tail, see IterRec) and re-admit its
// remaining grant.
type AdoptSession struct {
	Key    string          `json:"key"`
	Reg    RegisterRequest `json:"reg"`
	GrantJ float64         `json:"grant_j"`
	SpentJ float64         `json:"spent_j"`
	Log    []IterRec       `json:"log,omitempty"`
}

// AdoptRequest is the coordinator's failover push to a session's new
// owner node.
type AdoptRequest struct {
	Sessions []AdoptSession `json:"sessions"`
	// Fence is the pushing coordinator's fencing epoch; a node that has
	// seen a higher one rejects the push (stale_epoch) — a deposed
	// primary must not be able to seed sessions.
	Fence int64 `json:"fence,omitempty"`
	// TraceID/SpanID propagate the trace context of the failover that
	// triggered the push (0 = untraced).
	TraceID uint64 `json:"trace_id,omitempty"`
	SpanID  uint64 `json:"span_id,omitempty"`
}

// AdoptResponse maps session keys to the new owner's local session ids.
type AdoptResponse struct {
	IDs map[string]string `json:"ids"`
}

// PlacementResponse answers "which node owns session key K".
type PlacementResponse struct {
	Key       string `json:"key"`
	Node      string `json:"node"`
	Addr      string `json:"addr"`
	SessionID string `json:"session_id,omitempty"`
	// Fence is the answering coordinator's fencing epoch; clients keep
	// the highest fence seen and discard placements from older ones.
	Fence int64 `json:"fence,omitempty"`
}

// NodeInfo is the coordinator's view of one member.
type NodeInfo struct {
	Node     string  `json:"node"`
	Addr     string  `json:"addr"`
	Epoch    int64   `json:"epoch"`
	Live     bool    `json:"live"`
	LeaseJ   float64 `json:"lease_j"`
	AckedJ   float64 `json:"acked_j"`
	UnspentJ float64 `json:"unspent_j"`
	EscrowJ  float64 `json:"escrow_j,omitempty"`
	Sessions int     `json:"sessions"`
	// Fidelity is acked spend over cumulative lease — how much of the
	// delegated budget the node has actually turned into work.
	Fidelity float64 `json:"fidelity"`
}

// ClusterInfo is the coordinator's introspection view: the fleet ledger
// plus every node and placement.
type ClusterInfo struct {
	FleetJ float64 `json:"fleet_j"`
	// Fence is the coordinator's fencing epoch; Role is "primary",
	// "standby" or "deposed".
	Fence int64  `json:"fence"`
	Role  string `json:"role,omitempty"`
	// ReserveJ is the slice of the pool held back from steady-state
	// leasing so failover adoptions can always be funded.
	ReserveJ float64 `json:"reserve_j"`
	// ConsumedJ is all booked consumption, including pessimistic escrow
	// for expired leases awaiting reconciliation.
	ConsumedJ float64 `json:"consumed_j"`
	// LeasedUnspentJ is the sum of live nodes' unspent leases. The
	// safety invariant, checked after every ledger mutation:
	// LeasedUnspentJ + ConsumedJ <= FleetJ.
	LeasedUnspentJ float64 `json:"leased_unspent_j"`
	PoolJ          float64 `json:"pool_j"`
	// InvariantViolations counts failed ledger self-checks (always 0
	// unless the lease arithmetic is broken; tests assert on it).
	InvariantViolations int             `json:"invariant_violations"`
	NodesLive           int             `json:"nodes_live"`
	Reassignments       int             `json:"reassignments"`
	Nodes               []NodeInfo      `json:"nodes,omitempty"`
	Sessions            []PlacementInfo `json:"sessions,omitempty"`
}

// PlacementInfo is one session's fleet-level record.
type PlacementInfo struct {
	Key      string  `json:"key"`
	Node     string  `json:"node"`
	ID       string  `json:"id,omitempty"`
	Done     int     `json:"done"`
	GrantJ   float64 `json:"grant_j"`
	SpentJ   float64 `json:"spent_j"`
	Complete bool    `json:"complete,omitempty"`
}
