package server

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"jouleguard/internal/wire"
)

// TestTerminalSessionReleasesStack pins what a closed or shed session
// keeps: no governor stack (testbed, runtime, controller, log), the
// introspection, export and provenance views answering from the tally
// frozen at teardown — the same ledger the live session last reported,
// with the estimates cut down to the arms it measured — and its decision
// window, still served by /decisions?session= for a post-mortem.
func TestTerminalSessionReleasesStack(t *testing.T) {
	for name, kill := range map[string]func(*testing.T, *Server, *session){
		"closed": func(t *testing.T, srv *Server, sess *session) {
			if _, err := srv.Close(sess.id); err != nil {
				t.Fatal(err)
			}
		},
		"shed": func(t *testing.T, srv *Server, sess *session) {
			if n := srv.shedTenant(sess.reg.Tenant); n != 1 {
				t.Fatalf("shed %d sessions, want 1", n)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			srv := cutServer(t, nil)
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			sess := cutRegister(t, srv, 5, 50)
			(&cutTrace{}).drive(t, srv, sess, newMemoMachine(t, "radar", "Tablet"), cutRegime{errEvery: 4}, 0, 12)
			live := sess.info(true)
			if live.IterDone != 12 || live.SpentJ <= 0 || live.MeanAcc <= 0 {
				t.Fatalf("live session reports %+v", live)
			}
			var measured []wire.ArmEstimate
			for _, e := range live.Estimates {
				if e.Pulls > 0 {
					measured = append(measured, e)
				}
			}
			if len(measured) == 0 || len(measured) == len(live.Estimates) {
				t.Fatalf("%d of %d arms measured; the test needs some but not all", len(measured), len(live.Estimates))
			}

			_, _, _, liveWindow := sess.provenanceView()
			if len(liveWindow) != 12 {
				t.Fatalf("live window holds %d decisions, want 12", len(liveWindow))
			}

			kill(t, srv, sess)

			if sess.tb != nil || sess.gov != nil || sess.ctl != nil || sess.log != nil || sess.ckpt != nil {
				t.Error("terminal session still holds its governor stack or log")
			}
			if got := getDecisions(t, ts, "?session="+sess.id); !reflect.DeepEqual(got, liveWindow) {
				t.Errorf("/decisions?session= after teardown serves %d decisions, want the live window's %d", len(got), len(liveWindow))
			}
			dead := sess.info(true)
			if !reflect.DeepEqual(dead.Estimates, measured) {
				t.Errorf("terminal session serves %d estimates, want the %d measured arms' unchanged", len(dead.Estimates), len(measured))
			}
			live.Estimates, dead.Estimates = nil, nil
			live.State = dead.State
			if !reflect.DeepEqual(dead, live) {
				t.Errorf("terminal info %+v\nlive info was %+v", dead, live)
			}
			if x := sess.export(0); x.Done != live.IterDone || x.SpentJ != live.SpentJ || x.Live || len(x.NewIters) != 0 {
				t.Errorf("terminal export %+v", x)
			}
			if _, _, spent, window := sess.provenanceView(); spent != live.SpentJ || !reflect.DeepEqual(window, liveWindow) {
				t.Errorf("terminal provenance spend %v with %d windowed decisions, want %v and the live window", spent, len(window), live.SpentJ)
			}
			if sess.localSpent() != live.SpentJ || sess.spent() != live.SpentJ {
				t.Errorf("terminal spend accessors disagree with %v", live.SpentJ)
			}
			if _, werr := sess.next(wire.NextRequest{}, monoNS()); werr == nil {
				t.Error("Next on a terminal session succeeded")
			}
		})
	}
}

// TestRetireEvictsOldestFirst pins the terminal-retention ring's order:
// past the cap, each close evicts the longest-closed session and nobody
// else; and only the newest terminalWindows terminal sessions keep their
// decision windows.
func TestRetireEvictsOldestFirst(t *testing.T) {
	srv := cutServer(t, nil)
	const extra = 3
	ids := make([]string, terminalRetainCap+extra)
	sessions := make([]*session, len(ids))
	for i := range ids {
		resp, err := srv.Register(wire.RegisterRequest{
			Tenant: fmt.Sprintf("t%04d", i), App: "radar", Platform: "Tablet", Iterations: 1, BudgetJ: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = resp.SessionID
		sessions[i] = srv.sessions.get(resp.SessionID)
		if _, err := srv.Close(resp.SessionID); err != nil {
			t.Fatal(err)
		}
	}
	if n := srv.sessions.size(); n != terminalRetainCap {
		t.Fatalf("registry holds %d terminal sessions, cap is %d", n, terminalRetainCap)
	}
	for i, id := range ids {
		_, werr := srv.lookup(id)
		if gone := werr != nil; gone != (i < extra) {
			t.Fatalf("session %d of %d (%s): evicted=%v", i, len(ids), id, gone)
		}
		if kept := sessions[i].sink != nil; kept != (i >= len(ids)-terminalWindows) {
			t.Fatalf("session %d of %d (%s): window kept=%v", i, len(ids), id, kept)
		}
	}
}

// TestThrottlePacingFollowsInjectedClock drives the QoS gate from a
// manual clock: a throttled tenant gets one decision per SLO window of
// the daemon's clock, not of the wall clock the test runs on.
func TestThrottlePacingFollowsInjectedClock(t *testing.T) {
	now := time.Unix(5000, 0)
	srv := testServer(t, 1000, &now)
	defer shutdown(srv)
	resp, err := srv.Register(wire.RegisterRequest{
		Tenant: "paced", App: "radar", Platform: "Tablet", Iterations: 20, BudgetJ: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.QoS().ApplyRemote([]wire.TenantPolicy{{Tenant: "paced", State: "throttled"}})
	slo := srv.QoS().TierOf("paced").Spec().SLO

	clockS := 0.0
	iterate := func() error {
		if _, err := srv.Next(resp.SessionID, wire.NextRequest{NowS: clockS}); err != nil {
			return err
		}
		clockS += 0.01
		_, err := srv.Done(resp.SessionID, wire.DoneRequest{NowS: clockS, EnergyJ: clockS, Accuracy: 1})
		return err
	}
	throttled := func(err error) bool {
		var werr *wire.Error
		return errors.As(err, &werr) && werr.Code == wire.CodeTenantThrottled
	}
	if err := iterate(); err != nil {
		t.Fatalf("first decision of a throttled tenant: %v", err)
	}
	if err := iterate(); !throttled(err) {
		t.Fatalf("second decision in the same instant: %v, want tenant_throttled", err)
	}
	now = now.Add(slo - time.Nanosecond)
	if err := iterate(); !throttled(err) {
		t.Fatalf("decision one nanosecond short of the SLO window: %v, want tenant_throttled", err)
	}
	now = now.Add(time.Nanosecond)
	if err := iterate(); err != nil {
		t.Fatalf("decision a full SLO window later: %v", err)
	}
	if err := iterate(); !throttled(err) {
		t.Fatalf("decision right after the paced one: %v, want tenant_throttled", err)
	}
}
