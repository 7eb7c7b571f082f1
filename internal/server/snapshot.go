package server

import (
	"bufio"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"

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
// run (the checkpoint carries the random generator's register, so loading
// it steps nothing). The tail stays an event log on purpose: it is
// human-auditable, and replaying it exercises the code that produced the
// state.
//
// Iter lines — nearly all of a file — are written and read by a small
// codec of their own (appendIterLine, decodeIterLine, at the bottom of
// this file) rather than by encoding/json's reflection; the bytes are
// exactly encoding/json's, and any line not in that canonical form is
// decoded by json.Unmarshal, so hand-edited and older files restore as
// before.
//
// Versions: 2 is this format. A version-1 file has no state lines — every
// session's whole history, replayed from its first iteration — and is a
// special case of the same loop, so it still restores. A version-1
// daemon rejects a version-2 file instead of silently ignoring the state
// it cannot read. The state blobs have a version of their own
// (online_state.go): this daemon writes version 2, which adds the
// generator's register, and restores version 1 by fast-forwarding the
// generator instead.
//
// Closed and expired sessions are not written: their lasting effects —
// consumed energy and per-tenant deficit carry-over — live in the
// daemon header.

const snapshotVersion = 2

// maxSnapshotLine caps one line of a snapshot stream.
const maxSnapshotLine = 1 << 20

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
	var line []byte
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
		sid := quoteSID(sess.id)
		for i := range log {
			var err error
			if line, err = appendIterLine(line[:0], sid, &log[i]); err != nil {
				return fmt.Errorf("server: snapshot of session %s: %w", sess.id, err)
			}
			if _, err := bw.Write(line); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// SnapshotFile writes the snapshot atomically and durably: a temp file
// in the same directory, fsynced, renamed over the target, and the
// directory fsynced so the new name survives a crash too. On any error
// before the rename the temp file is removed.
func (s *Server) SnapshotFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = s.Snapshot(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	return err
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

	// The scanner starts small and grows to the longest line, up to the
	// cap: a checkpoint line of a 1,024-arm session is ~48 KB, an iter
	// line without one ~200 bytes.
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxSnapshotLine)
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
		if sid, it, ok := decodeIterLine(raw); ok {
			if cur == nil || string(sid) != cur.id {
				return fmt.Errorf("server: snapshot line %d: iter for %q outside its session block", line, sid)
			}
			if err := cur.replay(it); err != nil {
				return fmt.Errorf("server: snapshot line %d: %w", line, err)
			}
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
			sess, err := newSession(rec.ID, rec.Reg, grant, s.meter, s.clock())
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
		sess.spend = broker.spendCell(sess.grant.Tenant)
		sess.installLiveSink(s.tel, s.mDecisionS)
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

// The iter-line codec. Iter lines are nearly the whole file and every
// one has the same shape, so they skip encoding/json's reflection both
// ways. appendIterLine writes the bytes json.Encoder writes for
// struct{Kind string; snapIter}{"iter", ...} — same key order, same
// omitempty rules, floats in encoding/json's format, the state as
// standard base64 — and decodeIterLine reads a line in exactly that form.
// Any other line, however valid (reordered keys, whitespace, escapes, an
// explicit zero or null), takes json.Unmarshal into snapLine, so a file
// restores to the same records whichever path each line takes
// (FuzzSnapshotLine holds the two decoders to each other).

const iterLinePrefix = `{"kind":"iter","sid":`

// plainJSON reports whether encoding/json writes byte b of a string as
// is. Bytes it escapes (quotes, backslashes, controls, and <, >, & under
// its default HTML escaping) and bytes of multi-byte runes take the
// json.Marshal path; DEL, which it writes as is, goes there too.
func plainJSON(b byte) bool {
	return b >= 0x20 && b < 0x7f && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
}

// quoteSID is a session id as a JSON string, as json.Encoder writes it.
func quoteSID(id string) []byte {
	for i := 0; i < len(id); i++ {
		if !plainJSON(id[i]) {
			quoted, _ := json.Marshal(id) // a string always marshals
			return quoted
		}
	}
	return append(append(append(make([]byte, 0, len(id)+2), '"'), id...), '"')
}

// appendIterLine appends one iter line, newline included; sid is the
// session id already quoted (quoteSID). A non-finite value is an error,
// as it is to encoding/json.
func appendIterLine(dst, sid []byte, rec *iterRec) ([]byte, error) {
	for _, f := range [...]float64{rec.NextNow, rec.DoneNow, rec.EnergyJ, rec.Accuracy, rec.ClientJ} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return dst, fmt.Errorf("iteration record holds %v, which JSON cannot carry", f)
		}
	}
	dst = append(dst, iterLinePrefix...)
	dst = append(dst, sid...)
	dst = append(dst, `,"next_now":`...)
	dst = appendJSONFloat(dst, rec.NextNow)
	dst = append(dst, `,"done_now":`...)
	dst = appendJSONFloat(dst, rec.DoneNow)
	dst = append(dst, `,"energy_j":`...)
	dst = appendJSONFloat(dst, rec.EnergyJ)
	if rec.EnergyErr {
		dst = append(dst, `,"energy_err":true`...)
	}
	dst = append(dst, `,"accuracy":`...)
	dst = appendJSONFloat(dst, rec.Accuracy)
	if rec.ClientJ != 0 {
		dst = append(dst, `,"client_j":`...)
		dst = appendJSONFloat(dst, rec.ClientJ)
	}
	if len(rec.State) != 0 {
		dst = append(dst, `,"state":"`...)
		dst = base64.StdEncoding.AppendEncode(dst, rec.State)
		dst = append(dst, '"')
	}
	return append(dst, "}\n"...), nil
}

// appendJSONFloat formats a finite float the way encoding/json does:
// shortest round-trip digits, in exponent form outside [1e-6, 1e21),
// with a one-digit negative exponent not zero-padded.
func appendJSONFloat(dst []byte, f float64) []byte {
	abs, format := math.Abs(f), byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

func base64Byte(b byte) bool {
	return b >= 'A' && b <= 'Z' || b >= 'a' && b <= 'z' || b >= '0' && b <= '9' || b == '+' || b == '/' || b == '='
}

// decodeIterLine decodes a line written by appendIterLine (newline
// stripped), returning the raw session id and the record; ok is false for
// any line not in exactly that form, which the caller hands to
// json.Unmarshal instead.
func decodeIterLine(raw []byte) (sid []byte, rec iterRec, ok bool) {
	p := iterParser{b: raw}
	p.lit(iterLinePrefix + `"`)
	sid = p.str(plainJSON)
	p.lit(`,"next_now":`)
	rec.NextNow = p.float()
	p.lit(`,"done_now":`)
	rec.DoneNow = p.float()
	p.lit(`,"energy_j":`)
	rec.EnergyJ = p.float()
	rec.EnergyErr = p.opt(`,"energy_err":true`)
	p.lit(`,"accuracy":`)
	rec.Accuracy = p.float()
	if p.opt(`,"client_j":`) {
		rec.ClientJ = p.float()
	}
	if p.opt(`,"state":"`) {
		// Only base64's own alphabet: its decoder skips a raw carriage
		// return, which JSON refuses. And not empty: "state":"" is an
		// empty State, which json.Unmarshal's path keeps apart from none.
		s := p.str(base64Byte)
		var err error
		if rec.State, err = base64.StdEncoding.AppendDecode(nil, s); err != nil || len(s) == 0 {
			p.bad = true
		}
	}
	p.lit(`}`)
	if p.bad || len(p.b) != 0 {
		return nil, iterRec{}, false
	}
	return sid, rec, true
}

// iterParser consumes a line from the front; the first mismatch sticks.
type iterParser struct {
	b   []byte
	bad bool
}

func (p *iterParser) lit(s string) {
	if !p.bad && !p.opt(s) {
		p.bad = true
	}
}

// opt consumes s if the line continues with it.
func (p *iterParser) opt(s string) bool {
	if p.bad || len(p.b) < len(s) || string(p.b[:len(s)]) != s {
		return false
	}
	p.b = p.b[len(s):]
	return true
}

// str reads a string body of bytes ok allows, and its closing quote.
func (p *iterParser) str(ok func(byte) bool) []byte {
	if p.bad {
		return nil
	}
	i := 0
	for i < len(p.b) && ok(p.b[i]) {
		i++
	}
	if i == len(p.b) || p.b[i] != '"' {
		p.bad = true
		return nil
	}
	s := p.b[:i]
	p.b = p.b[i+1:]
	return s
}

// float reads a number in JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, that parses to a
// finite float64 — what json.Unmarshal accepts into one.
func (p *iterParser) float() float64 {
	if p.bad {
		return 0
	}
	b, i := p.b, 0
	digits := func() bool {
		start := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		p.bad = true
		return 0
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			p.bad = true
			return 0
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			p.bad = true
			return 0
		}
	}
	f, err := strconv.ParseFloat(string(b[:i]), 64)
	if err != nil {
		p.bad = true
		return 0
	}
	p.b = b[i:]
	return f
}
