package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"

	"jouleguard/internal/wire"
)

// Mount registers the coordinator's routes on mux: the cluster control
// plane plus a redirecting POST /v1/sessions so clients can point at
// the coordinator and be steered to the owning node.
func (c *Coordinator) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST "+wire.ClusterBasePath+"/join", wire.Handle(http.StatusOK,
		func(_ string, req wire.JoinRequest) (wire.JoinResponse, error) { return c.Join(req) }))
	mux.HandleFunc("POST "+wire.ClusterBasePath+"/heartbeat", wire.Handle(http.StatusOK,
		func(_ string, req wire.HeartbeatRequest) (wire.HeartbeatResponse, error) { return c.Heartbeat(req) }))
	mux.HandleFunc("POST "+wire.ClusterBasePath+"/lease", wire.Handle(http.StatusOK,
		func(_ string, req wire.ExtendRequest) (wire.ExtendResponse, error) { return c.Extend(req) }))
	mux.HandleFunc("GET "+wire.ClusterBasePath, c.handleInfo)
	mux.HandleFunc("GET "+wire.ClusterBasePath+"/sessions/{key}", c.handlePlacement)
	mux.HandleFunc("GET "+wire.ClusterBasePath+"/wal", c.handleWAL)
	mux.HandleFunc("GET "+wire.ClusterBasePath+"/metrics", c.handleClusterMetrics)
	mux.HandleFunc("GET "+wire.ClusterBasePath+"/provenance", c.handleClusterProvenance)
	mux.HandleFunc("POST "+wire.BasePath, c.handleRegister)
}

// Handler returns the coordinator's full surface: the cluster control
// plane plus the shared telemetry exposition.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	c.tel.Mount(mux)
	c.Mount(mux)
	return mux
}

func (c *Coordinator) handleInfo(w http.ResponseWriter, r *http.Request) {
	wire.WriteJSON(w, http.StatusOK, c.Info(r.URL.Query().Get("detail") != ""))
}

// handleWAL serves the ledger log tail to a replicating standby:
// GET /v1/cluster/wal?from=N returns the records with Seq >= N (or a
// full compacted resync when N has been folded away).
func (c *Coordinator) handleWAL(w http.ResponseWriter, r *http.Request) {
	var from uint64
	if s := r.URL.Query().Get("from"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			wire.WriteError(w, &wire.Error{Code: wire.CodeBadRequest, Msg: "invalid from cursor: " + err.Error()})
			return
		}
		from = v
	}
	wire.WriteJSON(w, http.StatusOK, c.wal.Tail(from))
}

// handleClusterMetrics serves the fleet-level rollup — member counters
// aggregated from heartbeat summaries — as Prometheus text exposition.
func (c *Coordinator) handleClusterMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = c.roll.reg.WritePrometheus(w)
}

// handleClusterProvenance serves the coordinator's half of the joule
// custody chain.
func (c *Coordinator) handleClusterProvenance(w http.ResponseWriter, _ *http.Request) {
	wire.WriteJSON(w, http.StatusOK, c.Provenance())
}

func (c *Coordinator) handlePlacement(w http.ResponseWriter, r *http.Request) {
	resp, err := c.Place(r.PathValue("key"))
	if err != nil {
		wire.WriteError(w, err)
		return
	}
	wire.WriteJSON(w, http.StatusOK, resp)
}

// handleRegister steers a session registration to its owning node: a
// 307 redirect carrying a not_owner error body with the owner's
// address, so both redirect-following HTTP clients and protocol-aware
// ones (internal/client reads Addr) find their way.
func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req wire.RegisterRequest
	if !wire.DecodeBody(w, r, &req) {
		return
	}
	if req.Key == "" {
		wire.WriteError(w, &wire.Error{Code: wire.CodeBadRequest,
			Msg: "registering through the coordinator requires a session key for placement"})
		return
	}
	place, err := c.Place(req.Key)
	if err != nil {
		wire.WriteError(w, err)
		return
	}
	w.Header().Set("Location", place.Addr+wire.BasePath)
	wire.WriteJSON(w, wire.Status(wire.CodeNotOwner), wire.ErrorResponse{
		Code:  wire.CodeNotOwner,
		Error: "session " + req.Key + " is owned by node " + place.Node,
		Addr:  place.Addr,
	})
}

// postJSON POSTs in as JSON and decodes a 200 reply into out; any other
// reply comes back as the *wire.Error it carries (wire.DecodeError).
func postJSON(httpc *http.Client, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := httpc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	return wire.DecodeError(resp.StatusCode, raw)
}
