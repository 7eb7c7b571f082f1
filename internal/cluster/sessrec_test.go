package cluster

import (
	"testing"

	"jouleguard/internal/wire"
)

// TestCoordinatorLogBounded is the coordinator's half of the bounded-log
// guarantee: a session's copy grows by plain tails only until the owner's
// next checkpoint-bearing report, which replaces it in place, so a
// session that heartbeats forever costs the coordinator one checkpoint
// interval of records — and every ack is the absolute iteration count the
// copy reaches.
func TestCoordinatorLogBounded(t *testing.T) {
	c, err := New(Config{FleetBudgetJ: 1000, SweepInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	join, err := c.Join(wire.JoinRequest{Node: "n1", Addr: "http://n1"})
	if err != nil {
		t.Fatal(err)
	}
	// beat ships one report: n records starting at absolute index from,
	// the first carrying a checkpoint if ckpt is set.
	beat := func(from, n int, ckpt bool) int {
		t.Helper()
		recs := make([]wire.IterRec, n)
		for i := range recs {
			recs[i].NextNow = float64(from + i)
		}
		if ckpt {
			recs[0].State = []byte{'J', 'O', 1}
		}
		resp, err := c.Heartbeat(wire.HeartbeatRequest{Node: "n1", Epoch: join.Epoch, Sessions: []wire.SessionReport{{
			ID: "s-000001", Key: "k", Done: from + n, From: from, NewIters: recs,
		}}})
		if err != nil {
			t.Fatal(err)
		}
		return resp.Acked["s-000001"]
	}
	covers := func(base, reach int) {
		t.Helper()
		rec := c.sessions["k"]
		if rec.base != base || rec.reach() != reach {
			t.Fatalf("copy covers [%d,%d), want [%d,%d)", rec.base, rec.reach(), base, reach)
		}
		for i, r := range rec.log {
			if r.NextNow != float64(base+i) || (r.State != nil) != (i == 0 && base > 0) {
				t.Fatalf("record %d of the copy is iteration %v (checkpoint %v)", i, r.NextNow, r.State != nil)
			}
		}
	}

	if got := beat(0, 10, false); got != 10 {
		t.Fatalf("first report acked %d, want 10", got)
	}
	if got := beat(10, 5, false); got != 15 {
		t.Fatalf("contiguous tail acked %d, want 15", got)
	}
	covers(0, 15)
	if got := beat(8, 9, false); got != 17 {
		t.Fatalf("overlapping tail acked %d, want 17", got)
	}
	covers(0, 17)
	if got := beat(40, 3, false); got != 17 {
		t.Fatalf("a tail past a gap was acked %d, want it refused at 17", got)
	}

	// The owner passes a checkpoint the coordinator never saw the run-up
	// to: the report stands alone and the copy restarts from it.
	if got := beat(1023, 4, true); got != 1027 {
		t.Fatalf("checkpoint-bearing report acked %d, want 1027", got)
	}
	covers(1023, 1027)
	if got := beat(500, 2, true); got != 1027 {
		t.Fatalf("a checkpoint older than the copy was acked %d, want it refused at 1027", got)
	}
	if got := beat(1000, 5, false); got != 1027 {
		t.Fatalf("a tail from before the copy's base was acked %d, want it refused at 1027", got)
	}
	covers(1023, 1027)

	// Fifty more intervals, two beats each: the copy never outgrows one
	// interval plus a beat, and is rewritten in the array it already has.
	grown := cap(c.sessions["k"].log)
	for ck := 2047; ck < 2047+50*1024; ck += 1024 {
		reach := c.sessions["k"].reach()
		beat(reach, ck-reach, false) // tail up to the next checkpoint
		if got := beat(ck, 300, true); got != ck+300 {
			t.Fatalf("checkpoint at %d acked %d", ck, got)
		}
		covers(ck, ck+300)
		if grown < cap(c.sessions["k"].log) {
			if ck > 2047 {
				t.Fatalf("copy's backing array grew to %d records at checkpoint %d", cap(c.sessions["k"].log), ck)
			}
			grown = cap(c.sessions["k"].log)
		}
	}
}
