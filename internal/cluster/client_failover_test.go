package cluster_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"jouleguard/internal/client"
)

// TestClientRidesThroughNodeDeath is the end-to-end failover story: an
// application opens its session through the coordinator, the owning
// node dies mid-workload, and the client library — without the
// application noticing anything but latency — asks the coordinator
// where the session went, re-attaches on the survivor, replays the
// iterations the coordinator had not yet acked from its own history,
// and finishes the workload.
func TestClientRidesThroughNodeDeath(t *testing.T) {
	f := newFleet(t, 50000, 2)

	// Pick a key owned by node1, the node we are going to kill.
	key := ""
	for i := 0; ; i++ {
		k := fmt.Sprintf("ride-%d", i)
		place, err := f.coord.Place(k)
		if err != nil {
			t.Fatal(err)
		}
		if place.Node == "node1" {
			key = k
			break
		}
	}

	ctx := context.Background()
	m := newMachine(t)
	sess, err := client.Open(ctx, client.Options{
		CoordinatorURL: f.coordTS.URL,
		Key:            key,
		Tenant:         "rider", App: "radar", Platform: "Tablet",
		Iterations: 30, Factor: 2, Seed: 23,
		Retry: client.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
	}, m.ReadEnergy, m.Now)
	if err != nil {
		t.Fatal(err)
	}

	const preFail = 9
	iter := 0
	step := func() {
		t.Helper()
		appCfg, sysCfg, err := sess.Next(ctx)
		if err != nil {
			t.Fatalf("next %d: %v", iter, err)
		}
		acc := m.Step(appCfg, sysCfg, iter)
		if err := sess.Done(ctx, acc); err != nil {
			t.Fatalf("done %d: %v", iter, err)
		}
		iter++
	}
	for i := 0; i < preFail; i++ {
		step()
	}

	// The owner heartbeats once (acking part of the log — the rest must
	// come from the client's catch-up replay), then dies: its httptest
	// server closes, its lease expires, the survivor adopts.
	idx := f.nodeIdx("node1")
	if err := f.members[idx].Beat(); err != nil {
		t.Fatal(err)
	}
	step() // iterations 9..10 happen after the last ack
	step()
	f.nodeTS[idx].Close()
	// Closing the httptest listener does not sever hijacked v2 streams
	// (the HTTP server forgot them at upgrade); a real crash kills the
	// TCP connection too, so the simulated one must as well.
	f.servers[idx].CloseV2Streams()
	f.clock.Advance(f.ttl + f.ttl/2)
	if err := f.members[0].Beat(); err != nil {
		t.Fatal(err)
	}
	if expired := f.coord.Sweep(); expired != 1 {
		t.Fatalf("sweep expired %d leases, want 1", expired)
	}
	f.assertInvariant("after node death")

	// The application just keeps calling Next/Done.
	for iter < 30 {
		step()
	}
	if st := sess.LastStatus(); !st.Complete {
		t.Fatalf("workload incomplete after failover: %+v", st)
	}
	if sess.Failovers() != 1 {
		t.Fatalf("failovers %d, want 1", sess.Failovers())
	}

	// The governor's full 30-iteration state lives on the survivor.
	info, err := sess.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != "complete" || info.IterDone != 30 {
		t.Fatalf("migrated session info: %+v", info)
	}
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	f.assertInvariant("after close")
}
