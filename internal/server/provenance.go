package server

import (
	"net/http"

	"jouleguard/internal/telemetry"
	"jouleguard/internal/wire"
)

// Joule provenance, member side: /v1/provenance?session= renders the
// custody chain from the node's lease down to the per-iteration spends
// the session's decision window still holds, and the conservation
// auditor (auditProvenance, called from the sweep loop) continuously
// reconciles the same books into jouleguard_provenance_drift_joules
// gauges.
//
// Consistency: a settle moves the session ledger and writes the
// session's decision window in one critical section (RecordDecision
// fires inside ctl.Done, under the session mutex), and provenanceView
// reads both in one critical section, so the iterations layer compares
// books taken at one instant.

// provenanceView snapshots the registration, grant, ledger spend and
// decision window in one critical section.
func (s *session) provenanceView() (reg wire.RegisterRequest, grant Grant, spentJ float64, window []telemetry.Decision) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sink != nil {
		window = s.sink.WindowLocked()
	}
	return s.reg, s.grant, s.tallyLocked().spentJ, window
}

// auditView is what the auditor needs of provenanceView, in one critical
// section: the grant, the ledger spend and the cumulative spend of the
// window's newest decision (have is false when the window is empty). It
// copies one decision, not the window.
func (s *session) auditView() (grant Grant, spentJ, lastCum float64, have bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var last telemetry.Decision
	if s.sink != nil {
		last, have = s.sink.LastLocked()
	}
	return s.grant, s.tallyLocked().spentJ, last.EnergyUsedJ, have
}

// iterSpends differences a session window's cumulative ledger column
// into per-iteration spends. lastCum is the final cumulative value seen
// (the "iterations" conservation check compares it against the session
// ledger); have is false when the window is empty. A window that starts
// mid-session (iter > 0 first) yields its first decision as baseline
// only — the delta to an overwritten predecessor is unknowable.
func iterSpends(window []telemetry.Decision) (spends []wire.IterSpend, lastCum float64, have bool) {
	for _, d := range window {
		if !have {
			if d.Iter == 0 {
				// The session's first iteration: its cumulative spend is its
				// own spend.
				spends = append(spends, wire.IterSpend{Seq: d.Seq, Iter: d.Iter, EnergyJ: d.EnergyUsedJ})
			}
			lastCum, have = d.EnergyUsedJ, true
			continue
		}
		spends = append(spends, wire.IterSpend{Seq: d.Seq, Iter: d.Iter, EnergyJ: d.EnergyUsedJ - lastCum})
		lastCum = d.EnergyUsedJ
	}
	return spends, lastCum, have
}

// sessionProvenance assembles the full custody chain for one session.
func (s *Server) sessionProvenance(sess *session) wire.SessionProvenance {
	reg, grant, spent, window := sess.provenanceView()
	spends, lastCum, have := iterSpends(window)
	bi := s.broker.Info()

	p := wire.SessionProvenance{
		Session:      sess.id,
		Key:          reg.Key,
		Node:         s.tel.Spans.Node(),
		LeaseJ:       bi.GlobalJ,
		Broker:       bi,
		Tenant:       grant.Tenant,
		TenantWeight: grant.Weight,
		TenantCarryJ: s.broker.Carry(grant.Tenant),
		GrantJ:       grant.GrantJ,
		ImportedJ:    grant.ImportedJ,
		SpentJ:       spent,
		RemainingJ:   grant.GrantJ - spent,
		Iterations:   spends,
	}
	if h, ok := s.tel.Health(); ok {
		p.Fence = h.Fence
	}
	// The iterations check only covers what the window retains; with no
	// retained decision there is nothing to reconcile against.
	iterSum := spent
	if have {
		iterSum = lastCum
	}
	p.Layers = []wire.ProvenanceLayer{
		layer("pool", bi.GlobalJ, bi.CommittedJ+bi.ConsumedJ+bi.AvailableJ),
		layer("grant", grant.GrantJ, spent+p.RemainingJ),
		layer("iterations", spent, iterSum),
	}
	return p
}

func layer(name string, expect, sum float64) wire.ProvenanceLayer {
	return wire.ProvenanceLayer{Layer: name, ExpectJ: expect, SumJ: sum, DriftJ: expect - sum}
}

// handleProvenance serves GET /v1/provenance?session=<id or key>.
func (s *Server) handleProvenance(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("session")
	if q == "" {
		wire.WriteError(w, &wire.Error{Code: wire.CodeBadRequest, Msg: "provenance requires ?session=<id or key>"})
		return
	}
	sess := s.sessions.get(q)
	if sess == nil {
		sess = s.sessions.byKey(q)
	}
	if sess == nil {
		wire.WriteError(w, &wire.Error{Code: wire.CodeUnknownSession, Msg: "unknown session or key " + q})
		return
	}
	wire.WriteJSON(w, http.StatusOK, s.sessionProvenance(sess))
}

// auditProvenance is the member's continuous conservation auditor: one
// pass per sweep tick reconciling each custody layer and publishing the
// drifts. Layers:
//
//	pool        broker ledger identity: global = committed + consumed + available
//	grant       broker's committed total vs the live sessions' commitments
//	iterations  each session's ledger spend vs its decision window
//
// A clean ledger reads 0.0 on every layer; anything past 1e-6 is a
// bookkeeping bug, not noise (the books are doubles, not sensors).
func (s *Server) auditProvenance() {
	bi := s.broker.Info()
	var commitSum, iterDrift float64
	liveCount := 0
	for _, sess := range s.sessions.all() {
		if !sess.live() {
			continue
		}
		liveCount++
		grant, spent, lastCum, have := sess.auditView()
		commitSum += grant.CommitJ
		if have {
			iterDrift += spent - lastCum
		}
	}
	// A registration or teardown in flight during the walk (admitted to
	// the broker but not yet in the session map, or vice versa) moves a
	// commitment out from under us; skip the publish rather than report a
	// phantom drift (the next tick sees a settled ledger).
	after := s.broker.Info()
	if after.CommittedJ != bi.CommittedJ || after.ConsumedJ != bi.ConsumedJ || liveCount != bi.Active {
		return
	}
	s.mDriftPool.Set(bi.GlobalJ - (bi.CommittedJ + bi.ConsumedJ + bi.AvailableJ))
	s.mDriftGrant.Set(bi.CommittedJ - commitSum)
	s.mDriftIters.Set(iterDrift)
}
