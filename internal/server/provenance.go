package server

import (
	"net/http"

	"jouleguard/internal/wire"
)

// Joule provenance, member side: /v1/provenance?session= renders the
// custody chain from the node's lease down to the per-iteration spends
// the flight recorder still holds, and the conservation auditor
// (auditProvenance, called from the sweep loop) continuously reconciles
// the same books into jouleguard_provenance_drift_joules gauges.
//
// Consistency discipline: a settle mutates the session ledger and the
// flight recorder under the session's own mutex (RecordDecision fires
// inside ctl.Done), but a reader takes the two locks separately. So
// every reconciliation here brackets the flight snapshot with two
// ledger reads and retries when they disagree — a cheap seqlock built
// from reads the hot path already pays for.

// provenanceView snapshots the registration, grant and ledger spend in
// one critical section.
func (s *session) provenanceView() (reg wire.RegisterRequest, grant Grant, spentJ float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reg, s.grant, s.tallyLocked().spentJ
}

// sessionIterSpends walks the flight recorder's retained window for one
// session and differences the cumulative ledger column into
// per-iteration spends. lastCum is the final cumulative value seen (the
// "iterations" conservation check compares it against the session
// ledger); have is false when the window holds no decision for the
// session. A window that starts mid-session (iter > 0 first) yields its
// first retained decision as baseline only — the delta to an
// overwritten predecessor is unknowable.
func (s *Server) sessionIterSpends(id string) (spends []wire.IterSpend, lastCum float64, have bool) {
	for _, d := range s.tel.Flight.Snapshot() {
		if d.Session != id {
			continue
		}
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

// stableIterSpends is sessionIterSpends under the seqlock discipline:
// re-read the ledger after the snapshot and retry while a settle moved
// it. Converges in one pass on an idle session and in a handful under
// churn (each retry needs a full settle inside a two-read window).
func (s *Server) stableIterSpends(sess *session) (spentJ float64, spends []wire.IterSpend, lastCum float64, have bool) {
	for attempt := 0; attempt < 4; attempt++ {
		spentJ = sess.spent()
		spends, lastCum, have = s.sessionIterSpends(sess.id)
		if sess.spent() == spentJ {
			break
		}
	}
	return spentJ, spends, lastCum, have
}

// sessionProvenance assembles the full custody chain for one session.
func (s *Server) sessionProvenance(sess *session) wire.SessionProvenance {
	reg, grant, _ := sess.provenanceView()
	spent, spends, lastCum, have := s.stableIterSpends(sess)
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
	// The iterations check only covers what the recorder retains; with no
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
//	iterations  each session's ledger spend vs its flight-recorder trail
//
// A clean ledger reads 0.0 on every layer; anything past 1e-6 is a
// bookkeeping bug, not noise (the books are doubles, not sensors).
func (s *Server) auditProvenance() {
	bi := s.broker.Info()
	var commitSum, iterDrift float64
	liveCount := 0
	for _, sess := range s.sessions.all() {
		if _, live := sess.idleSince(); !live {
			continue
		}
		liveCount++
		_, grant, _ := sess.provenanceView()
		commitSum += grant.CommitJ
		spent, _, lastCum, have := s.stableIterSpends(sess)
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
