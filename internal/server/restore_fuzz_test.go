package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"strings"
	"testing"
	"time"

	"jouleguard/internal/wire"
)

// TestRestoreVersion1Snapshot pins backward compatibility on a file a
// version-1 daemon wrote (testdata/snapshot_v1.jsonl: two sessions, 14
// and 9 settled iterations, failed meter readings among them, no state
// lines). It restores through the same loop as a checkpointed snapshot,
// lands on the ledger that daemon reported, and is written back out as
// version 2.
func TestRestoreVersion1Snapshot(t *testing.T) {
	raw, err := os.ReadFile("testdata/snapshot_v1.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	srv := testServer(t, 1, nil)
	defer shutdown(srv)
	if err := srv.Restore(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	// What the version-1 daemon's last Done responses said.
	want := map[string]struct {
		done  int
		spent float64
	}{
		"s-000001": {14, 1.8049520703891431},
		"s-000002": {9, 1.0864652133265311},
	}
	exports := srv.Export(nil)
	if len(exports) != len(want) {
		t.Fatalf("restored %d sessions, want %d", len(exports), len(want))
	}
	for _, x := range exports {
		if w := want[x.ID]; x.Done != w.done || x.SpentJ != w.spent {
			t.Errorf("%s restored at %d iterations / %.17g J, the version-1 daemon stood at %d / %.17g J",
				x.ID, x.Done, x.SpentJ, w.done, w.spent)
		}
	}
	if sess := srv.sessions.byKey("fixture-a"); sess == nil || sess.id != "s-000001" {
		t.Error("restored session lost its key")
	}
	if resp, err := srv.Register(wire.RegisterRequest{App: "radar", Platform: "Tablet", Iterations: 5, BudgetJ: 1}); err != nil || resp.SessionID != "s-000003" {
		t.Errorf("first registration after restore: id %q, err %v; want s-000003", resp.SessionID, err)
	}

	var again bytes.Buffer
	if err := srv.Snapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(again.String(), `{"kind":"daemon","v":2,`) {
		t.Errorf("re-snapshot header: %.60s", again.String())
	}
	newer := strings.Replace(string(raw), `"v":1`, `"v":3`, 1)
	if err := testServer(t, 1, nil).Restore(strings.NewReader(newer)); err == nil {
		t.Error("restored a snapshot from a version this daemon does not know")
	}
}

// TestRestoreParentCheckpoint pins that the checkpoint blob did not change
// shape when the bandit's maintained argmax became a pair of tournament
// trees: testdata/snapshot_v2.jsonl was written by the daemon of the
// commit before that change (radar on Tablet; s-000001 five settles past
// its first checkpoint with every ninth meter reading failed, s-000002
// nine settles in with no checkpoint yet). Both sessions restore at the
// ledger that daemon reported — the blob's recorded best arms passing the
// decode-time cross-check — and, driven on, make the decisions it made.
func TestRestoreParentCheckpoint(t *testing.T) {
	raw, err := os.ReadFile("testdata/snapshot_v2.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	srv := cutServer(t, nil)
	if err := srv.Restore(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	// What that daemon's Done responses said at the snapshot and after the
	// further settles below, and where its simulated machines stood.
	for _, want := range []struct {
		key              string
		done             int
		spent            float64
		clockS, energyJ  float64
		more             int
		re               cutRegime
		spentAfter       float64
		lastApp, lastSys int
	}{
		{"fixture-a", checkpointEvery + 5, 92.778788598511781, 13.261164065258834, 92.872805826578087,
			60, cutRegime{errEvery: 9}, 98.058333898375523, 11, 42},
		{"fixture-b", 9, 1.0597001184367145, 0.26616623945181511, 1.1537173465030222,
			31, cutRegime{}, 4.7062003960735579, 11, 39},
	} {
		sess := srv.sessions.byKey(want.key)
		if sess == nil {
			t.Fatalf("%s: not restored", want.key)
		}
		if x := sess.export(0); x.Done != want.done || x.SpentJ != want.spent {
			t.Fatalf("%s restored at %d iterations / %.17g J, the writing daemon stood at %d / %.17g J",
				want.key, x.Done, x.SpentJ, want.done, want.spent)
		}
		m := testbed(t, "radar", "Tablet").Machine()
		m.ClockS, m.EnergyJ = want.clockS, want.energyJ
		var tr cutTrace
		tr.drive(t, srv, sess, m, want.re, want.done, want.done+want.more)
		last := tr.decisions[len(tr.decisions)-1]
		if got := tr.spent[len(tr.spent)-1]; got != want.spentAfter || last != [2]int{want.lastApp, want.lastSys} {
			t.Errorf("%s after %d more settles: %.17g J, last decision %v; the writing daemon reached %.17g J, %v",
				want.key, want.more, got, last, want.spentAfter, [2]int{want.lastApp, want.lastSys})
		}
	}
}

// TestParentCheckpointReencodes pins the other direction of the same
// compatibility: the governor stack that blob restores into — its bandit
// now a flat estimator bank copied from a prior table, where the writing
// daemon held three heap objects per arm — marshals back to the very
// fields that daemon wrote. The blob is version 1; its re-encoding is
// version 2, which is the same fields followed by the runtime's 607-word
// random register, and a version-2 blob re-encodes to itself.
func TestParentCheckpointReencodes(t *testing.T) {
	raw, err := os.ReadFile("testdata/snapshot_v2.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	// Header, fixture-a's session line, and its checkpoint record alone:
	// restored with no tail, the stack stands exactly where the blob does.
	lines := bytes.SplitAfterN(raw, []byte("\n"), 4)
	var rec snapLine
	if err := json.Unmarshal(lines[2], &rec); err != nil || rec.State == nil {
		t.Fatalf("third line of the fixture is not a checkpoint record: %v", err)
	}
	srv := cutServer(t, nil)
	if err := srv.Restore(bytes.NewReader(bytes.Join(lines[:3], nil))); err != nil {
		t.Fatal(err)
	}
	sess := srv.sessions.byKey("fixture-a")
	if sess == nil {
		t.Fatal("fixture-a: not restored")
	}
	again, err := sess.ctl.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	const ring = 607 * 8
	old, fields := rec.State[:len(rec.State)-4], again[:len(again)-4]
	if old[2] != 1 || fields[2] != 2 || len(fields) != len(old)+ring ||
		!bytes.Equal(fields[:2], old[:2]) || !bytes.Equal(fields[3:len(old)], old[3:]) {
		t.Fatalf("the restored stack marshals to %d bytes (version %d) that are not the %d the parent daemon wrote (version %d) plus the register",
			len(again), again[2], len(rec.State), rec.State[2])
	}

	twin, err := newSession(sess.id, sess.reg, sess.grant, nil, sess.lastTouch)
	if err != nil {
		t.Fatal(err)
	}
	if err := twin.replay(iterRec{State: again}); err != nil {
		t.Fatal(err)
	}
	if back, err := twin.ctl.MarshalState(); err != nil || !bytes.Equal(back, again) {
		t.Fatalf("a version-2 blob re-encodes to %d different bytes (%v)", len(back), err)
	}
}

// TestParentCheckpointRefusesImplausiblePosition damages the version-1
// blob of testdata/snapshot_v2.jsonl where it matters to a fast-forward:
// its random stream position, resealed so only the decoder's own guard
// stands between it and 2^40 discarded words.
func TestParentCheckpointRefusesImplausiblePosition(t *testing.T) {
	raw, err := os.ReadFile("testdata/snapshot_v2.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfterN(raw, []byte("\n"), 4)
	var sl, rec snapLine
	if err := json.Unmarshal(lines[1], &sl); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(lines[2], &rec); err != nil || rec.State == nil {
		t.Fatalf("third line of the fixture is not a checkpoint record: %v", err)
	}
	// The runtime writes its seed (the registration's, plus one) and then
	// its stream position; a session 1,029 iterations in stands at or past
	// the register's 607 words and below the guard's 64 per iteration.
	body := rec.State[:len(rec.State)-4]
	at := -1
	for i := 3; i+16 <= len(body); i++ {
		seed, pos := binary.LittleEndian.Uint64(body[i:]), binary.LittleEndian.Uint64(body[i+8:])
		if seed == uint64(sl.Reg.Seed+1) && pos >= 607 && pos <= 64*1029+64 {
			if at >= 0 {
				t.Fatalf("seed and stream position found at offsets %d and %d", at, i)
			}
			at = i + 8
		}
	}
	if at < 0 {
		t.Fatal("no seed and stream position in the fixture's blob")
	}
	forged := bytes.Clone(body)
	binary.LittleEndian.PutUint64(forged[at:], 1<<40)
	forged = binary.LittleEndian.AppendUint32(forged, crc32.ChecksumIEEE(forged))
	sess, err := newSession(sl.ID, sl.Reg, Grant{Tenant: sl.Reg.Tenant, GrantJ: sl.GrantJ, Weight: sl.Weight}, nil, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.replay(iterRec{State: forged}); err == nil || !strings.Contains(err.Error(), "implausible") {
		t.Fatalf("a version-1 blob at stream position 2^40: %v, want an implausible-position refusal", err)
	}
}

// fuzzSource is a daemon holding one session just past a checkpoint: the
// source of the fuzz targets' seed inputs.
func fuzzSource(t testing.TB) (*Server, *session) {
	const total = 3 * checkpointEvery
	srv := cutServer(t, nil)
	sess := cutRegister(t, srv, 7, total)
	(&cutTrace{}).drive(t, srv, sess, testbed(t, "radar", "Tablet").Machine(), cutRegime{errEvery: 9}, 0, checkpointEvery+5)
	return srv, sess
}

// FuzzRestore feeds damaged snapshot streams to Restore. Whatever the
// bytes, it must not panic; a stream it refuses must leave the server
// with no sessions, and one it accepts must leave a server whose own
// snapshot restores again.
func FuzzRestore(f *testing.F) {
	src, _ := fuzzSource(f)
	var snap bytes.Buffer
	if err := src.Snapshot(&snap); err != nil {
		f.Fatal(err)
	}
	v1, err := os.ReadFile("testdata/snapshot_v1.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	v2, err := os.ReadFile("testdata/snapshot_v2.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap.Bytes())
	f.Add(snap.Bytes()[:snap.Len()/2])
	f.Add(v1)
	f.Add(v2)
	f.Add([]byte(`{"kind":"daemon","v":2,"global_j":10,"reserve":1.05}` + "\n" + `{"kind":"iter","sid":"s-000001"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		srv := testServer(t, 1, nil)
		defer shutdown(srv)
		if err := srv.Restore(bytes.NewReader(data)); err != nil {
			if n := srv.sessions.size(); n != 0 {
				t.Fatalf("refused snapshot left %d sessions behind: %v", n, err)
			}
			return
		}
		var again bytes.Buffer
		if err := srv.Snapshot(&again); err != nil {
			t.Fatal(err)
		}
		if err := testServer(t, 1, nil).Restore(&again); err != nil {
			t.Fatalf("accepted snapshot does not survive a second round trip: %v", err)
		}
	})
}

// FuzzRestoreState feeds damaged checkpoint blobs to the session rebuild
// path, each one twice: as is (the checksum refuses nearly all of them),
// and with the checksum recomputed, so the field decoders themselves see
// hostile values. It must not panic, and a blob it accepts is one the
// session writes back out byte for byte.
func FuzzRestoreState(f *testing.F) {
	_, src := fuzzSource(f)
	blob := bytes.Clone(src.log[0].State)
	reg, grant := src.reg, src.grant
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(blob[:7])
	f.Fuzz(func(t *testing.T, data []byte) {
		resealed := bytes.Clone(data)
		if n := len(resealed) - 4; n >= 0 {
			binary.LittleEndian.PutUint32(resealed[n:], crc32.ChecksumIEEE(resealed[:n]))
		}
		for _, state := range [][]byte{data, resealed} {
			sess, err := newSession("s-000001", reg, grant, nil, src.lastTouch)
			if err != nil {
				t.Fatal(err)
			}
			if state == nil {
				state = []byte{} // an empty State field is still a State field
			}
			if err := sess.replay(iterRec{State: state}); err != nil {
				continue
			}
			back, err := sess.ctl.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back, state) {
				t.Fatalf("accepted a %d-byte blob that the restored session marshals back as %d different bytes", len(state), len(back))
			}
		}
	})
}
