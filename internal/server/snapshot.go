package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"jouleguard/internal/telemetry"
	"jouleguard/internal/wire"
)

// The snapshot is a JSONL dump: one daemon header line, then for every
// live session a session line followed by that session's retained log —
// checkpoint + event tail. The first iter line of a session that has
// passed a checkpoint carries the governor stack's state right after
// that iteration (base64 of OnlineController.MarshalState); the lines
// after it are the iterations settled since, at most checkpointEvery of
// them. Restoring builds a fresh governor stack per session (same
// registration, same grant, same seed) and folds the lines in with the
// one loop body adoption also uses: a line carrying state restores it, a
// line without steps the controller through the iteration. Because the
// control path is deterministic given its inputs and the checkpoint is
// exact, both land the bandit estimates, the PI controller, the
// sensing-guard windows and the budget ledger on bit-identical values —
// at a cost bounded by checkpointEvery, not by how long the session has
// run. The tail stays an event log on purpose: it is human-auditable,
// and replaying it exercises the code that produced the state.
//
// Versions: 2 is this format. A version-1 file has no state lines — every
// session's whole history, replayed from its first iteration — and is a
// special case of the same loop, so it still restores. A version-1
// daemon rejects a version-2 file instead of silently ignoring the state
// it cannot read.
//
// Closed and expired sessions are not written: their lasting effects —
// consumed energy and per-tenant deficit carry-over — live in the
// daemon header.

const snapshotVersion = 2

// The three line bodies; on the wire each is preceded by its kind
// ("daemon", "session", "iter").
type snapDaemon struct {
	V         int                `json:"v"`
	GlobalJ   float64            `json:"global_j"`
	Reserve   float64            `json:"reserve"`
	ConsumedJ float64            `json:"consumed_j"`
	NextID    uint64             `json:"next_id"`
	Carry     map[string]float64 `json:"carry,omitempty"`
}

type snapSession struct {
	ID        string               `json:"id"`
	Reg       wire.RegisterRequest `json:"reg"`
	GrantJ    float64              `json:"grant_j"`
	CommitJ   float64              `json:"commit_j"`
	Weight    float64              `json:"weight"`
	ImportedJ float64              `json:"imported_j,omitempty"`
}

type snapIter struct {
	SID string `json:"sid"`
	iterRec
}

// snapLine is any line of a snapshot: the kind and the three bodies side
// by side (their JSON names are disjoint), so Restore decodes each line
// once, whatever it turns out to be.
type snapLine struct {
	Kind string `json:"kind"`
	snapDaemon
	snapSession
	snapIter
}

// Snapshot writes the daemon's durable state as JSONL. Call it after
// Shutdown has drained in-flight iterations; it is also safe mid-run
// (each session is locked while copied), in which case an armed
// session is captured at its last completed iteration.
func (s *Server) Snapshot(w io.Writer) error {
	// Creation order (ids are zero-padded counters) keeps snapshots
	// diffable run to run.
	sessions := s.sessions.allSorted()
	nextID := s.nextID.Load()

	s.broker.mu.Lock()
	hdr := snapDaemon{
		V:         snapshotVersion,
		GlobalJ:   s.broker.globalJ,
		Reserve:   s.broker.reserve,
		ConsumedJ: s.broker.consumed,
		NextID:    nextID,
		Carry:     map[string]float64{},
	}
	for t, c := range s.broker.carry {
		hdr.Carry[t] = c
	}
	s.broker.mu.Unlock()

	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(struct {
		Kind string `json:"kind"`
		snapDaemon
	}{"daemon", hdr}); err != nil {
		return err
	}
	for _, sess := range sessions {
		reg, grant, log, live := sess.snapshotView()
		if !live {
			continue
		}
		if err := enc.Encode(struct {
			Kind string `json:"kind"`
			snapSession
		}{"session", snapSession{
			ID: sess.id, Reg: reg,
			GrantJ: grant.GrantJ, CommitJ: grant.CommitJ, Weight: grant.Weight,
			ImportedJ: grant.ImportedJ,
		}}); err != nil {
			return err
		}
		for _, rec := range log {
			if err := enc.Encode(struct {
				Kind string `json:"kind"`
				snapIter
			}{"iter", snapIter{SID: sess.id, iterRec: rec}}); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// SnapshotFile writes the snapshot atomically: a temp file in the same
// directory, fsynced, then renamed over the target.
func (s *Server) SnapshotFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := s.Snapshot(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// Restore rebuilds sessions and the budget ledger from a snapshot
// stream. It must run on a fresh Server (no sessions yet), and it is all
// or nothing: the broker and the sessions are installed only once the
// whole stream has been read and every session rebuilt, so a truncated
// or damaged snapshot leaves the server as it was. Sessions are rebuilt
// against a silent telemetry sink; the live sink is installed
// afterwards, so restored state resumes reporting without
// double-counting replayed decisions.
func (s *Server) Restore(r io.Reader) error {
	if n := s.sessions.size(); n != 0 {
		return fmt.Errorf("server: restore requires a fresh server, have %d sessions", n)
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var (
		broker   *Broker
		nextID   uint64
		sessions []*session
		cur      *session
	)
	for line := 1; sc.Scan(); line++ {
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec snapLine
		if err := json.Unmarshal(raw, &rec); err != nil {
			return fmt.Errorf("server: snapshot line %d: %w", line, err)
		}
		switch rec.Kind {
		case "daemon":
			if broker != nil {
				return fmt.Errorf("server: snapshot line %d: duplicate daemon header", line)
			}
			if rec.V < 1 || rec.V > snapshotVersion {
				return fmt.Errorf("server: snapshot version %d, want 1..%d", rec.V, snapshotVersion)
			}
			b, err := NewBroker(rec.GlobalJ, rec.Reserve)
			if err != nil {
				return fmt.Errorf("server: snapshot line %d: %w", line, err)
			}
			b.restore(rec.ConsumedJ, rec.Carry)
			broker, nextID = b, rec.NextID
		case "session":
			if broker == nil {
				return fmt.Errorf("server: snapshot line %d: session before daemon header", line)
			}
			grant := Grant{Tenant: rec.Reg.Tenant, Weight: rec.Weight, GrantJ: rec.GrantJ, CommitJ: rec.CommitJ, ImportedJ: rec.ImportedJ}
			sess, err := newSession(rec.ID, rec.Reg, grant, s.meter, nil, s.clock())
			if err != nil {
				return fmt.Errorf("server: snapshot line %d: rebuilding session %s: %w", line, rec.ID, err)
			}
			broker.readopt(grant)
			sessions = append(sessions, sess)
			cur = sess
		case "iter":
			if cur == nil || rec.SID != cur.id {
				return fmt.Errorf("server: snapshot line %d: iter for %q outside its session block", line, rec.SID)
			}
			if err := cur.replay(rec.iterRec); err != nil {
				return fmt.Errorf("server: snapshot line %d: %w", line, err)
			}
		default:
			return fmt.Errorf("server: snapshot line %d: unknown kind %q", line, rec.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if broker == nil {
		return fmt.Errorf("server: snapshot has no daemon header")
	}

	s.broker = broker
	s.nextID.Store(nextID)
	broker.Instrument(s.tel.Registry)
	for _, sess := range sessions {
		sess.installLiveSink(telemetry.WithSession(s.tel, sess.id, sess.reg.Iterations))
		s.sessions.put(sess)
		if sess.reg.Key != "" {
			s.sessions.setKey(sess.reg.Key, sess.id)
		}
	}
	return nil
}

// RestoreFile restores from a snapshot file; a missing file is not an
// error (cold start).
func (s *Server) RestoreFile(path string) (restored bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, err
	}
	defer f.Close()
	if err := s.Restore(f); err != nil {
		return false, err
	}
	return true, nil
}
