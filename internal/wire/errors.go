package wire

// The error contract, shared by every hop: one row per stable code
// gives the HTTP status a v1 reply carries, the byte a v2 TErr frame
// carries, and the recovery class every caller (client, fleet member,
// coordinator) acts on. Servers write refusals through WriteError (v1)
// or Encoder.Err (v2); callers read them back through DecodeError or
// ParseErr and branch on ClassOf — never on a status or a message.

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// Stable error codes: what each means. How each travels and is
// recovered from is its row in the codes table below.
const (
	// CodeBadRequest covers malformed bodies and invalid parameters.
	CodeBadRequest = "bad_request"
	// CodeUnknownSession names a session id the daemon does not know.
	CodeUnknownSession = "unknown_session"
	// CodeBadSequence flags an out-of-order wire call: Done without a
	// pending Next, or Next while one is already outstanding.
	CodeBadSequence = "bad_sequence"
	// CodeSessionClosed flags a call on a session already closed by the
	// client or expired by the idle watchdog.
	CodeSessionClosed = "session_closed"
	// CodeSessionComplete flags Next on a session whose configured
	// workload has already completed; close it to reclaim the budget.
	CodeSessionComplete = "session_complete"
	// CodeDraining rejects work while the daemon shuts down.
	CodeDraining = "draining"
	// CodeBudgetExhausted rejects a registration the broker's remaining
	// global budget cannot honor (admission control).
	CodeBudgetExhausted = "budget_exhausted"
	// CodeLeaseExpired rejects work on a node whose budget lease lapsed
	// (self-fencing) until it renews or failover takes over.
	CodeLeaseExpired = "lease_expired"
	// CodeNotOwner redirects a registration at the coordinator to the
	// owning node, whose address the ErrorResponse carries in Addr.
	CodeNotOwner = "not_owner"
	// CodeTenantThrottled paces a tenant the QoS ladder has throttled:
	// the decision is still coming, just not at the rate asked for.
	CodeTenantThrottled = "tenant_throttled"
	// CodeTenantSuspended rejects a new registration while the tenant
	// sits at the suspend rung; its existing sessions keep running.
	CodeTenantSuspended = "tenant_suspended"
	// CodeTenantShed marks a session killed by overload shedding or the
	// ladder's final rung; its grant was reclaimed for the pool.
	CodeTenantShed = "tenant_shed"
	// CodeNoNodes defers a placement no live node can take yet.
	CodeNoNodes = "no_nodes"
	// CodeUnknownNode rejects a heartbeat from a node the coordinator
	// does not recognise (expired lease or stale epoch); it must rejoin.
	CodeUnknownNode = "unknown_node"
	// CodeStaleEpoch rejects a message across a coordinator failover: the
	// sender carries a fencing epoch older than the receiver's, and grants
	// carrying a stale fence must be dropped, never applied.
	CodeStaleEpoch = "stale_epoch"
	// CodeNotPrimary rejects control-plane calls on a standby coordinator
	// that has not (yet) promoted.
	CodeNotPrimary = "not_primary"
)

// Class is how a caller recovers from a refusal.
type Class uint8

const (
	// Final: the call itself is wrong or moot; retrying cannot help.
	Final Class = iota
	// Retry: the same call against the same node, after backing off.
	Retry
	// Failover: this node no longer serves the session; ask the
	// coordinator where it lives now and re-register there.
	Failover
	// Rotate: this coordinator cannot serve (a standby, or deposed); try
	// the next one in the caller's ordered list.
	Rotate
)

// row is one code's rendering on every transport and its recovery.
// Byte 0 means the code has no v2 rendering (only the control plane,
// which is v1-only, produces it); a TErr frame carries bad_request's
// byte then.
type row struct {
	code   string
	status int
	b      byte
	class  Class
}

// codes is the error contract. The first row is the fallback for a
// code the table does not know. The bytes are frozen: changing one
// would silently remap errors for every deployed v2 client.
var codes = [...]row{
	{CodeBadRequest, http.StatusBadRequest, 1, Final},
	{CodeUnknownSession, http.StatusNotFound, 2, Failover},
	{CodeBadSequence, http.StatusConflict, 3, Final},
	{CodeSessionClosed, http.StatusGone, 4, Final},
	{CodeSessionComplete, http.StatusConflict, 5, Final},
	{CodeDraining, http.StatusServiceUnavailable, 6, Retry},
	{CodeBudgetExhausted, http.StatusTooManyRequests, 7, Final},
	{CodeLeaseExpired, http.StatusServiceUnavailable, 8, Retry},
	{CodeNotOwner, http.StatusTemporaryRedirect, 9, Failover},
	{CodeTenantThrottled, http.StatusTooManyRequests, 10, Retry},
	// Enforcement verdicts lift on de-escalation timescales (seconds of
	// clean behaviour), not on retry backoff: a client does not hammer
	// the node, but a failover round keeps re-placing through them.
	{CodeTenantSuspended, http.StatusServiceUnavailable, 11, Failover},
	{CodeTenantShed, http.StatusServiceUnavailable, 12, Failover},
	{CodeNoNodes, http.StatusServiceUnavailable, 0, Retry},
	{CodeUnknownNode, http.StatusConflict, 0, Final},
	{CodeStaleEpoch, http.StatusConflict, 0, Rotate},
	{CodeNotPrimary, http.StatusServiceUnavailable, 0, Rotate},
}

func lookup(code string) row {
	for _, r := range codes {
		if r.code == code {
			return r
		}
	}
	return codes[0]
}

// Status is the HTTP status a v1 reply carrying code is sent with.
func Status(code string) int { return lookup(code).status }

// ClassOf is the recovery class of code (Final for a code the table
// does not know).
func ClassOf(code string) Class { return lookup(code).class }

// ErrCodeByte maps a stable string code onto its TErr byte; a code with
// no v2 rendering is sent as bad_request's byte.
func ErrCodeByte(code string) byte { return max(lookup(code).b, 1) }

// ErrCodeString maps a TErr byte back onto the stable string code;
// an unknown byte reads as bad_request.
func ErrCodeString(b byte) string {
	for _, r := range codes {
		if r.b == b && b != 0 {
			return r.code
		}
	}
	return CodeBadRequest
}

// Error is a refusal: a stable code plus a human-readable message.
// Servers return it from their wire operations; DecodeError rebuilds it
// on the calling side.
type Error struct {
	Code string
	Msg  string
}

func (e *Error) Error() string { return e.Msg }

// CodeOf is the code err carries: its *Error's, or bad_request.
func CodeOf(err error) string {
	var werr *Error
	if errors.As(err, &werr) {
		return werr.Code
	}
	return CodeBadRequest
}

// WriteJSON writes v as a JSON reply with the given status. v is encoded
// before the status goes out, so a value that does not encode (a NaN
// float, say) is answered 500 with a codeless ErrorResponse — which
// callers treat as a failed call — never a 2xx with an empty body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b, _ = json.Marshal(ErrorResponse{Error: "encoding reply: " + err.Error()})
		status = http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(b, '\n'))
}

// WriteError writes err as an ErrorResponse at its code's status.
func WriteError(w http.ResponseWriter, err error) {
	code := CodeOf(err)
	WriteJSON(w, Status(code), ErrorResponse{Code: code, Error: err.Error()})
}

// Handle adapts one wire operation to HTTP: decode the JSON request body
// (DecodeBody), call op with the route's {id} path value (empty on
// routes without one), and write op's reply at status, or its error
// through the table.
func Handle[Req, Resp any](status int, op func(id string, req Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if !DecodeBody(w, r, &req) {
			return
		}
		resp, err := op(r.PathValue("id"), req)
		if err != nil {
			WriteError(w, err)
			return
		}
		WriteJSON(w, status, resp)
	}
}

// DecodeBody decodes a request's JSON body into v with DecodeJSON,
// refusing bodies over 1 MiB; on failure it writes the bad_request reply
// itself and returns false.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := DecodeJSON(http.MaxBytesReader(w, r.Body, 1<<20), v); err != nil {
		WriteError(w, &Error{CodeBadRequest, "invalid JSON body: " + err.Error()})
		return false
	}
	return true
}

// DecodeJSON decodes one JSON value from r into v, rejecting unknown
// fields. It is the request decoder of both wires — v1 bodies through
// DecodeBody, v2 lifecycle frames through ParseRegister — so a request
// has one schema whichever wire carries it.
func DecodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// DecodeError rebuilds the refusal a non-2xx reply carries. A body that
// names no code — a proxy's error page, a mux's 404, a reply cut short —
// did not come from a JouleGuard handler: it comes back with an empty
// Code and the body's text (or the status) as Msg, and each caller
// treats it as it treats a failed connection.
func DecodeError(status int, body []byte) *Error {
	var resp ErrorResponse
	if json.Unmarshal(body, &resp) == nil && resp.Code != "" {
		return &Error{resp.Code, resp.Error}
	}
	msg := strings.TrimSpace(string(body))
	if msg == "" {
		msg = "HTTP " + strconv.Itoa(status)
	}
	return &Error{Msg: msg}
}
