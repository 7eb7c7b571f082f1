package cluster_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"jouleguard/internal/server"
	"jouleguard/internal/wire"
)

// TestFailoverGoldenReplay extends the snapshot-replay determinism
// guarantee across nodes: a session that is migrated mid-run by the
// coordinator (owner dies, survivor adopts from the acked checkpoint and
// iteration tail) must take exactly the decisions the uninterrupted run
// takes, and land on the same final estimates. The checkpoint is exact
// and the control path is deterministic given its inputs, so failover is
// invisible to the governed application.
//
// The short run fails over before the session's first checkpoint (a
// plain log, replayed from the first iteration). The long one crosses
// the daemon's checkpoint interval (1,024 settles) with heartbeats on
// both sides of it, so the coordinator's copy is appended to, replaced
// by a checkpoint-bearing report, and appended to again before the
// survivor rebuilds from it.
func TestFailoverGoldenReplay(t *testing.T) {
	t.Run("before-first-checkpoint", func(t *testing.T) { failoverGoldenReplay(t, 30, 12, nil) })
	t.Run("across-a-checkpoint", func(t *testing.T) { failoverGoldenReplay(t, 1200, 1100, []int{400, 1030, 1060}) })
}

// failoverGoldenReplay kills the owner after preFail of iters
// iterations; beatAt lists the iteration counts at which the owner
// heartbeats before its last beat at preFail.
func failoverGoldenReplay(t *testing.T, iters, preFail int, beatAt []int) {
	type decision struct {
		App, Sys int
	}

	// Golden run: one standalone daemon, no interruptions.
	golden := make([]decision, 0, iters)
	var goldenInfo wire.SessionInfo
	{
		srv, err := server.New(server.Config{GlobalBudgetJ: 50000, SweepInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		var reg wire.RegisterResponse
		if status, e := postJSON(t, ts.URL+wire.BasePath, wire.RegisterRequest{
			Tenant: "golden", Key: "golden-key", App: "radar", Platform: "Tablet",
			Iterations: iters, Factor: 2, Seed: 17,
		}, &reg); status >= 300 {
			t.Fatalf("golden register: %d %+v", status, e)
		}
		d := &driver{t: t, base: ts.URL, id: reg.SessionID, m: newMachine(t)}
		for i := 0; i < iters; i++ {
			next, _ := d.step()
			golden = append(golden, decision{next.AppConfig, next.SysConfig})
		}
		resp, err := http.Get(ts.URL + wire.BasePath + "/" + reg.SessionID)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&goldenInfo); err != nil {
			t.Fatal(err)
		}
	}

	// Fleet run: same registration, owner killed after preFail iterations.
	f := newFleet(t, 50000, 2)
	idx := f.nodeIdx("node1")
	key := ""
	for i := 0; ; i++ {
		k := fmt.Sprintf("gold-%d", i)
		place, err := f.coord.Place(k)
		if err != nil {
			t.Fatal(err)
		}
		if place.Node == "node1" {
			key = k
			break
		}
	}
	reg := wire.RegisterRequest{
		Tenant: "golden", Key: key, App: "radar", Platform: "Tablet",
		Iterations: iters, Factor: 2, Seed: 17,
	}
	status, werr := postJSON(t, f.coordTS.URL+wire.BasePath, reg, nil)
	if status != http.StatusTemporaryRedirect || werr.Addr == "" {
		t.Fatalf("coordinator register: %d %+v", status, werr)
	}
	var regResp wire.RegisterResponse
	if status, e := postJSON(t, werr.Addr+wire.BasePath, reg, &regResp); status >= 300 {
		t.Fatalf("node register: %d %+v", status, e)
	}
	d := &driver{t: t, base: werr.Addr, id: regResp.SessionID, m: newMachine(t)}

	got := make([]decision, 0, iters)
	for i := 0; i < preFail; i++ {
		if len(beatAt) > 0 && i == beatAt[0] {
			beatAt = beatAt[1:]
			if err := f.members[idx].Beat(); err != nil {
				t.Fatal(err)
			}
		}
		next, _ := d.step()
		got = append(got, decision{next.AppConfig, next.SysConfig})
	}
	// The owner's heartbeat ships the log; then it goes silent and dies.
	if err := f.members[idx].Beat(); err != nil {
		t.Fatal(err)
	}
	f.clock.Advance(f.ttl + f.ttl/2)
	if err := f.members[0].Beat(); err != nil {
		t.Fatal(err)
	}
	f.members[idx].CheckFence()
	if expired := f.coord.Sweep(); expired != 1 {
		t.Fatalf("sweep expired %d leases, want 1", expired)
	}
	f.assertInvariant("after failover")

	// The survivor adopted the session: find it and finish the workload
	// on the same simulated machine (the meter and clock carry over).
	place, err := f.coord.Place(key)
	if err != nil {
		t.Fatal(err)
	}
	if place.Node != "node0" || place.SessionID == "" {
		t.Fatalf("post-failover placement %+v", place)
	}
	d.base = f.nodeTS[0].URL
	d.id = place.SessionID
	for i := preFail; i < iters; i++ {
		next, _ := d.step()
		got = append(got, decision{next.AppConfig, next.SysConfig})
	}

	for i := range golden {
		if golden[i] != got[i] {
			t.Fatalf("decision %d diverged after failover: golden %+v, migrated %+v",
				i, golden[i], got[i])
		}
	}

	// Estimates must agree too: the learner's state, not just its
	// choices, survived the migration bit-for-bit.
	resp, err := http.Get(f.nodeTS[0].URL + wire.BasePath + "/" + place.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var migratedInfo wire.SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&migratedInfo); err != nil {
		t.Fatal(err)
	}
	if len(migratedInfo.Estimates) != len(goldenInfo.Estimates) {
		t.Fatalf("estimate count: golden %d, migrated %d",
			len(goldenInfo.Estimates), len(migratedInfo.Estimates))
	}
	for i := range goldenInfo.Estimates {
		if goldenInfo.Estimates[i] != migratedInfo.Estimates[i] {
			t.Fatalf("estimate %d: golden %+v, migrated %+v",
				i, goldenInfo.Estimates[i], migratedInfo.Estimates[i])
		}
	}
	if migratedInfo.State != "complete" {
		t.Fatalf("migrated session state %q, want complete", migratedInfo.State)
	}
}

// TestReassignRejoinRaceDropsStaleCopy pins the failover ownership
// handoff against a resurrecting owner: the dead node rejoins exactly
// while the adopt push to the survivor is in flight. The coordinator
// marks the record in-transit before releasing its lock, so the rejoin
// must be told to drop its stale copy — otherwise the session would run
// live on two nodes, with their heartbeats flip-flopping ownership and
// the stranded copy's budget leaking until idle expiry.
func TestReassignRejoinRaceDropsStaleCopy(t *testing.T) {
	const iters = 20
	const preFail = 8

	f := newFleet(t, 50000, 2)
	key := ""
	for i := 0; ; i++ {
		k := fmt.Sprintf("race-%d", i)
		place, err := f.coord.Place(k)
		if err != nil {
			t.Fatal(err)
		}
		if place.Node == "node1" {
			key = k
			break
		}
	}
	d := f.place(key, "race", iters, 2, 5)
	for i := 0; i < preFail; i++ {
		d.step()
	}
	idx := f.nodeIdx("node1")
	if err := f.members[idx].Beat(); err != nil { // ship the log
		t.Fatal(err)
	}

	// node1 goes silent past the TTL; node0 stays healthy.
	f.clock.Advance(f.ttl + f.ttl/2)
	if err := f.members[0].Beat(); err != nil {
		t.Fatal(err)
	}
	f.members[idx].CheckFence()

	// Rejoin node1 from inside the adopt push to node0 — the exact
	// window between the coordinator collecting the move and committing
	// the new placement.
	rejoined := make(chan error, 1)
	f.setIntercept(0, func(r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/adopt") {
			f.setIntercept(0, nil)
			rejoined <- f.members[idx].Join()
		}
	})
	if expired := f.coord.Sweep(); expired != 1 {
		t.Fatalf("sweep expired %d leases, want 1", expired)
	}
	if err := <-rejoined; err != nil {
		t.Fatalf("rejoin during adopt push: %v", err)
	}

	// Exactly one live copy, owned by the survivor.
	place, err := f.coord.Place(key)
	if err != nil {
		t.Fatal(err)
	}
	if place.Node != "node0" || place.SessionID == "" {
		t.Fatalf("post-race placement %+v, want node0 with a session id", place)
	}
	for _, ex := range f.servers[idx].Export(nil) {
		if ex.Key == key && ex.Live {
			t.Fatalf("rejoined node still holds a live copy of %q: the session is live on two nodes", key)
		}
	}

	// Ownership must not flip-flop under subsequent heartbeats from both
	// nodes.
	for round := 0; round < 3; round++ {
		for _, m := range f.members {
			if err := m.Beat(); err != nil {
				t.Fatal(err)
			}
		}
		place, err := f.coord.Place(key)
		if err != nil {
			t.Fatal(err)
		}
		if place.Node != "node0" {
			t.Fatalf("heartbeat round %d flipped ownership to %s", round, place.Node)
		}
	}
	f.assertInvariant("after rejoin race")

	// The migrated session still finishes cleanly on its new owner.
	d.base = f.nodeTS[0].URL
	d.id = place.SessionID
	for i := preFail; i < iters; i++ {
		d.step()
	}
}
