package server

import (
	"bytes"
	"reflect"
	"testing"

	"jouleguard"
	"jouleguard/internal/wire"
)

// driveIters runs n bracketed iterations of sess against m, failing the
// test on any protocol error.
func driveIters(t *testing.T, srv *Server, id string, m *jouleguard.Machine, start, n int) {
	t.Helper()
	sess, werr := srv.lookup(id)
	if werr != nil {
		t.Fatalf("lookup %s: %v", id, werr)
	}
	for k := start; k < start+n; k++ {
		next, werr := sess.next(wire.NextRequest{NowS: m.ClockS}, monoNS())
		if werr != nil {
			t.Fatalf("next %d: %v", k, werr)
		}
		acc := m.Step(next.AppConfig, next.SysConfig, k)
		if _, werr := sess.done(wire.DoneRequest{NowS: m.ClockS, EnergyJ: m.EnergyJ, Accuracy: acc}); werr != nil {
			t.Fatalf("done %d: %v", k, werr)
		}
	}
}

// TestSnapshotRestoreBitIdentical kills a daemon mid-run, restores it
// from the snapshot, and asserts the restored governor is
// indistinguishable from the original: bandit estimates and the budget
// ledger match exactly (==, no tolerance), and every subsequent decision
// under identical inputs is identical.
func TestSnapshotRestoreBitIdentical(t *testing.T) {
	srv1 := testServer(t, 10000, nil)
	defer shutdown(srv1)

	reg := wire.RegisterRequest{
		Tenant: "t1", App: "radar", Platform: "Tablet",
		Iterations: 120, Factor: 2, Seed: 7,
	}
	resp, err := srv1.Register(reg)
	if err != nil {
		t.Fatal(err)
	}
	id := resp.SessionID

	// Run half the workload, then "kill" the daemon: snapshot its state.
	m1 := testbed(t, "radar", "Tablet").Machine()
	driveIters(t, srv1, id, m1, 0, 60)
	var snap bytes.Buffer
	if err := srv1.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}

	// Restore into a fresh daemon.
	srv2 := testServer(t, 1, nil) // broker is rebuilt from the snapshot header
	defer shutdown(srv2)
	if err := srv2.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}

	// The bandit estimates must match exactly — replay is bit-identical,
	// not approximately converged.
	s1, _ := srv1.lookup(id)
	s2, werr := srv2.lookup(id)
	if werr != nil {
		t.Fatalf("restored daemon lost session %s", id)
	}
	i1, i2 := s1.info(true), s2.info(true)
	if !reflect.DeepEqual(i1, i2) {
		t.Fatalf("restored session info diverged:\n  orig: %+v\n  rest: %+v", i1, i2)
	}
	if i2.SpentJ != i1.SpentJ {
		t.Fatalf("ledger diverged: %.17g vs %.17g", i1.SpentJ, i2.SpentJ)
	}

	// The broker ledgers agree on the pool.
	b1, b2 := srv1.Broker().Info(), srv2.Broker().Info()
	if b1.CommittedJ != b2.CommittedJ || b1.ConsumedJ != b2.ConsumedJ || b1.GlobalJ != b2.GlobalJ {
		t.Fatalf("broker ledgers diverged:\n  orig: %+v\n  rest: %+v", b1, b2)
	}

	// Both daemons now govern identical virtual machines forward: every
	// decision must agree, or the restored RNG/controller state differs.
	m2 := *m1
	for k := 60; k < 120; k++ {
		n1, werr1 := s1.next(wire.NextRequest{NowS: m1.ClockS}, monoNS())
		n2, werr2 := s2.next(wire.NextRequest{NowS: m2.ClockS}, monoNS())
		if werr1 != nil || werr2 != nil {
			t.Fatalf("next %d: %v / %v", k, werr1, werr2)
		}
		if n1.AppConfig != n2.AppConfig || n1.SysConfig != n2.SysConfig {
			t.Fatalf("decision %d diverged: (%d,%d) vs (%d,%d)",
				k, n1.AppConfig, n1.SysConfig, n2.AppConfig, n2.SysConfig)
		}
		a1 := m1.Step(n1.AppConfig, n1.SysConfig, k)
		a2 := m2.Step(n2.AppConfig, n2.SysConfig, k)
		d1, werr1 := s1.done(wire.DoneRequest{NowS: m1.ClockS, EnergyJ: m1.EnergyJ, Accuracy: a1})
		d2, werr2 := s2.done(wire.DoneRequest{NowS: m2.ClockS, EnergyJ: m2.EnergyJ, Accuracy: a2})
		if werr1 != nil || werr2 != nil {
			t.Fatalf("done %d: %v / %v", k, werr1, werr2)
		}
		if d1.SpentJ != d2.SpentJ {
			t.Fatalf("spend diverged at %d: %.17g vs %.17g", k, d1.SpentJ, d2.SpentJ)
		}
	}
	if !s1.info(false).Degraded && s1.info(true).IterDone != 120 {
		t.Fatalf("workload did not complete: %+v", s1.info(false))
	}
}

// TestRestoredSessionNotesSpend pins that a restored session streams its
// settles into its tenant's spend cell, as a registered or adopted one
// does, so the broker's per-tenant spend (and the QoS engine reading it)
// sees a restored tenant burn. After k post-restore iterations the
// tenant's SpentJ must be exactly the sum of the ledger's post-restore
// deltas: not 0 (no cell), and not the pre-restore total (replayed
// joules booked twice).
func TestRestoredSessionNotesSpend(t *testing.T) {
	const before, k = 60, 25
	srv1 := testServer(t, 10000, nil)
	defer shutdown(srv1)
	resp, err := srv1.Register(wire.RegisterRequest{
		Tenant: "t1", App: "radar", Platform: "Tablet", Iterations: 120, Factor: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := testbed(t, "radar", "Tablet").Machine()
	driveIters(t, srv1, resp.SessionID, m, 0, before)
	var snap bytes.Buffer
	if err := srv1.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}

	srv2 := testServer(t, 1, nil)
	defer shutdown(srv2)
	if err := srv2.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	if got := srv2.Broker().Observe("t1").SpentJ; got != 0 {
		t.Fatalf("restore booked %v J of replayed spend", got)
	}
	sess, werr := srv2.lookup(resp.SessionID)
	if werr != nil {
		t.Fatal(werr)
	}
	prev := sess.spent()
	var delta float64
	for i := before; i < before+k; i++ {
		next, werr := sess.next(wire.NextRequest{NowS: m.ClockS}, monoNS())
		if werr != nil {
			t.Fatalf("next %d: %v", i, werr)
		}
		acc := m.Step(next.AppConfig, next.SysConfig, i)
		done, werr := sess.done(wire.DoneRequest{NowS: m.ClockS, EnergyJ: m.EnergyJ, Accuracy: acc})
		if werr != nil {
			t.Fatalf("done %d: %v", i, werr)
		}
		delta += done.SpentJ - prev
		prev = done.SpentJ
	}
	if got := srv2.Broker().Observe("t1").SpentJ; delta <= 0 || got != delta {
		t.Errorf("tenant spend after %d restored iterations is %.17g J, want the post-restore delta %.17g J (pre-restore total %.17g J)",
			k, got, delta, srv1.Broker().Observe("t1").SpentJ)
	}
}

// TestSnapshotSkipsDeadSessions pins that closed and expired sessions are
// not resurrected by a restore — only their consumed energy and carry
// survive, in the daemon header.
func TestSnapshotSkipsDeadSessions(t *testing.T) {
	srv1 := testServer(t, 1000, nil)
	defer shutdown(srv1)

	live, err := srv1.Register(wire.RegisterRequest{
		Tenant: "keep", App: "radar", Platform: "Tablet", Iterations: 50, BudgetJ: 100, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	dead, err := srv1.Register(wire.RegisterRequest{
		Tenant: "gone", App: "radar", Platform: "Tablet", Iterations: 50, BudgetJ: 100, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := testbed(t, "radar", "Tablet").Machine()
	driveIters(t, srv1, dead.SessionID, m, 0, 10)
	closed, err := srv1.Close(dead.SessionID)
	if err != nil {
		t.Fatal(err)
	}

	var snap bytes.Buffer
	if err := srv1.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	srv2 := testServer(t, 1, nil)
	defer shutdown(srv2)
	if err := srv2.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	if _, werr := srv2.lookup(dead.SessionID); werr == nil {
		t.Fatal("closed session resurrected by restore")
	}
	if _, werr := srv2.lookup(live.SessionID); werr != nil {
		t.Fatal("live session lost by restore")
	}
	// The dead tenant's spend survives as consumed; its underspend
	// survives as carry.
	b2 := srv2.Broker()
	if got := b2.Info().ConsumedJ; got != closed.SpentJ {
		t.Fatalf("consumed %.3f, want the dead session's spend %.3f", got, closed.SpentJ)
	}
	wantCarry := 100 - closed.SpentJ
	if got := b2.Carry("gone"); got != wantCarry {
		t.Fatalf("carry %.3f, want %.3f", got, wantCarry)
	}
}

// TestRestoreRequiresFreshServer pins the restore precondition.
func TestRestoreRequiresFreshServer(t *testing.T) {
	srv1 := testServer(t, 1000, nil)
	defer shutdown(srv1)
	if _, err := srv1.Register(wire.RegisterRequest{
		App: "radar", Platform: "Tablet", Iterations: 10, BudgetJ: 10,
	}); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := srv1.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if err := srv1.Restore(&snap); err == nil {
		t.Fatal("restore into a non-fresh server succeeded")
	}
}
