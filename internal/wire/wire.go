// Package wire defines the versioned JSON-over-HTTP protocol spoken
// between the governor daemon (cmd/jouleguardd, internal/server) and its
// clients (internal/client). The protocol mirrors the in-process
// OnlineController contract — Next fetches the configurations for the
// upcoming iteration, Done reports its measurements — with session
// registration and teardown around it:
//
//	POST   /v1/sessions          RegisterRequest  -> RegisterResponse
//	GET    /v1/sessions          ListResponse (all sessions + broker state)
//	GET    /v1/sessions/{id}     SessionInfo (introspection)
//	POST   /v1/sessions/{id}/next  NextRequest  -> NextResponse
//	POST   /v1/sessions/{id}/done  DoneRequest  -> DoneResponse
//	DELETE /v1/sessions/{id}     CloseResponse (budget reclaimed)
//
// Every error body is an ErrorResponse carrying a stable machine-readable
// Code alongside the human-readable message; clients branch on the code,
// never on the message text. The package is shared by the server and the
// client so the two cannot drift; it depends on nothing but the stdlib.
package wire

// Version is the protocol version; it is the literal "v1" path segment.
const Version = "v1"

// BasePath is the versioned path prefix every route lives under.
const BasePath = "/" + Version + "/sessions"

// ErrorResponse is the body of every non-2xx reply. Addr is set only on
// CodeNotOwner redirects: the base URL of the node that owns the session.
type ErrorResponse struct {
	Code  string `json:"code"`
	Error string `json:"error"`
	Addr  string `json:"addr,omitempty"`
}

// RegisterRequest opens a session: one tenant-side control loop governed
// remotely. Exactly one of Factor or BudgetJ may be set; when both are
// zero the broker grants a weighted share of its uncommitted budget.
type RegisterRequest struct {
	// Tenant names the budget-ledger account: the broker's deficit
	// carry-over persists per tenant across that tenant's sessions.
	Tenant string `json:"tenant"`
	// Key is an optional client-chosen stable session identity. In a
	// fleet it drives placement (rendezvous hashing) and failover: a
	// register carrying the key of a live session attaches to it
	// (Resumed in the response) instead of opening a new one.
	Key string `json:"key,omitempty"`
	// Weight scales the tenant's share when the broker apportions budget
	// (<= 0 means 1).
	Weight float64 `json:"weight,omitempty"`
	// App and Platform select the calibrated testbed the session's
	// governor reasons with (apps.Names x platform.Names, or a profile
	// registered server-side).
	App      string `json:"app"`
	Platform string `json:"platform"`
	// Iterations is the session's workload W (Algorithm 1).
	Iterations int `json:"iterations"`
	// Factor asks for iterations x defaultEnergy / Factor joules (the
	// paper's energy-reduction methodology, Sec. 5.2).
	Factor float64 `json:"factor,omitempty"`
	// BudgetJ asks for an absolute grant in joules.
	BudgetJ float64 `json:"budget_j,omitempty"`
	// MinAccuracy is the tenant's accuracy goal; the daemon records it
	// and reports attainment in SessionInfo (the governor maximises
	// accuracy subject to the energy budget regardless).
	MinAccuracy float64 `json:"min_accuracy,omitempty"`
	// Seed fixes the governor's exploration seed (0 = testbed default),
	// making the session's decision sequence reproducible.
	Seed int64 `json:"seed,omitempty"`
	// IdleTimeoutS overrides the daemon's default idle expiry for this
	// session (0 = daemon default).
	IdleTimeoutS float64 `json:"idle_timeout_s,omitempty"`
	// Tier names the tenant's QoS class: "guaranteed", "standard"
	// (default when empty), or "best-effort". The tier fixes the latency
	// SLO the qos engine paces the tenant to, its fair-share weight, and
	// the order overload shedding sacrifices tenants in.
	Tier string `json:"tier,omitempty"`
}

// RegisterResponse acknowledges an admitted session.
type RegisterResponse struct {
	SessionID string `json:"session_id"`
	// SessionNum is the session's numeric id, used in v2 binary frame
	// headers (0 = the daemon does not serve this session over v2).
	SessionNum uint32 `json:"session_num,omitempty"`
	// GrantJ is the joule budget the broker committed to this session;
	// the session's governor enforces it.
	GrantJ     float64 `json:"grant_j"`
	Iterations int     `json:"iterations"`
	// AppConfigs and SysConfigs size the configuration spaces so the
	// client can validate its actuators.
	AppConfigs int `json:"app_configs"`
	SysConfigs int `json:"sys_configs"`
	// Resumed marks an attach to an existing session (matched by Key,
	// e.g. after failover restored it on a new node); IterationsDone is
	// how far that session already got, so the client can catch up.
	Resumed        bool `json:"resumed,omitempty"`
	IterationsDone int  `json:"iterations_done,omitempty"`
}

// NextRequest fetches the configurations for the upcoming iteration.
// NowS is the client's monotone clock in seconds; the daemon timestamps
// the iteration with the client's clock, never its own, so network and
// scheduling delay cannot pollute the interval accounting.
type NextRequest struct {
	NowS float64 `json:"now_s"`
	// TraceID/SpanID carry the distributed-trace context when this
	// iteration was head-sampled by the client (0 = untraced, the
	// overwhelmingly common case). SpanID is the client-side root span
	// this hop's daemon spans parent to. Over v2 the pair rides a
	// FlagTraced trailing extension instead of these fields.
	TraceID uint64 `json:"trace_id,omitempty"`
	SpanID  uint64 `json:"span_id,omitempty"`
}

// NextResponse carries the decision.
type NextResponse struct {
	Iter      int `json:"iter"`
	AppConfig int `json:"app_config"`
	SysConfig int `json:"sys_config"`
}

// DoneRequest reports a completed iteration: the client's clock, its
// cumulative energy-meter reading, and the application's own accuracy
// measure. EnergyErr marks a failed meter read; the daemon's hardened
// sensing guard substitutes a model-based estimate, exactly as the
// in-process OnlineController would.
type DoneRequest struct {
	NowS      float64 `json:"now_s"`
	EnergyJ   float64 `json:"energy_j"`
	EnergyErr bool    `json:"energy_err,omitempty"`
	Accuracy  float64 `json:"accuracy"`
	// TraceID/SpanID carry the distributed-trace context for a
	// head-sampled iteration (0 = untraced); see NextRequest.
	TraceID uint64 `json:"trace_id,omitempty"`
	SpanID  uint64 `json:"span_id,omitempty"`
}

// DoneResponse acknowledges the observation and reports the ledger.
type DoneResponse struct {
	IterationsDone  int     `json:"iterations_done"`
	SpentJ          float64 `json:"spent_j"`
	GrantRemainingJ float64 `json:"grant_remaining_j"`
	Degraded        bool    `json:"degraded"`
	Infeasible      bool    `json:"infeasible"`
	Complete        bool    `json:"complete"`
}

// CloseResponse acknowledges teardown and settles the ledger.
type CloseResponse struct {
	SessionID  string  `json:"session_id"`
	SpentJ     float64 `json:"spent_j"`
	ReclaimedJ float64 `json:"reclaimed_j"`
}

// SessionInfo is the introspection view of one session.
type SessionInfo struct {
	SessionID   string  `json:"session_id"`
	Tenant      string  `json:"tenant"`
	Weight      float64 `json:"weight"`
	App         string  `json:"app"`
	Platform    string  `json:"platform"`
	State       string  `json:"state"` // idle | armed | complete | closed | expired
	Iterations  int     `json:"iterations"`
	IterDone    int     `json:"iterations_done"`
	GrantJ      float64 `json:"grant_j"`
	SpentJ      float64 `json:"spent_j"`
	MinAccuracy float64 `json:"min_accuracy,omitempty"`
	MeanAcc     float64 `json:"mean_accuracy"`
	Degraded    bool    `json:"degraded"`
	Infeasible  bool    `json:"infeasible"`
	// Estimates exposes the governor's learned per-arm bandit state, the
	// introspection the snapshot/restore tests pin bit-identically. A live
	// session lists every arm; a closed, expired or killed one has let its
	// governor go and lists only the arms it measured (Pulls > 0).
	Estimates []ArmEstimate `json:"estimates,omitempty"`
	// Tier and QoSState expose the tenant's QoS class and current ladder
	// rung (ok | throttled | degraded | suspended | killed) as the qos
	// engine sees them at introspection time.
	Tier     string `json:"tier,omitempty"`
	QoSState string `json:"qos_state,omitempty"`
}

// ArmEstimate is one system configuration's learned model.
type ArmEstimate struct {
	Arm   int     `json:"arm"`
	Rate  float64 `json:"rate"`
	Power float64 `json:"power"`
	Pulls int     `json:"pulls"`
}

// BrokerInfo is the broker's ledger view.
type BrokerInfo struct {
	GlobalJ    float64 `json:"global_j"`
	CommittedJ float64 `json:"committed_j"`
	ConsumedJ  float64 `json:"consumed_j"`
	AvailableJ float64 `json:"available_j"`
	Active     int     `json:"active_sessions"`
	Admitted   int     `json:"admitted_total"`
	Rejected   int     `json:"rejected_total"`
}

// ListResponse enumerates the daemon's sessions plus the broker ledger.
type ListResponse struct {
	Broker   BrokerInfo    `json:"broker"`
	Sessions []SessionInfo `json:"sessions"`
}
