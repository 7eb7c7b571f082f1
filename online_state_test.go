package jouleguard_test

import (
	"bytes"
	"errors"
	"testing"

	"jouleguard"
)

// onlineRig is a controller over a fake machine, built the same way each
// time so a checkpoint of one restores into another.
type onlineRig struct {
	m   *fakeMachine
	ctl *jouleguard.OnlineController
}

func newOnlineRig(t *testing.T, iters int) *onlineRig {
	t.Helper()
	tb, err := jouleguard.NewTestbed("radar", "Tablet")
	if err != nil {
		t.Fatal(err)
	}
	gov, err := tb.NewJouleGuard(2, iters, jouleguard.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	m := &fakeMachine{tb: tb}
	ctl, err := jouleguard.NewOnline(gov, m.readEnergy, func() float64 { return m.clock })
	if err != nil {
		t.Fatal(err)
	}
	return &onlineRig{m: m, ctl: ctl}
}

// step runs one bracketed iteration; the meter is offline on the
// iterations failAt names, which walks the outage-reconciliation fields
// through the checkpoint too.
func (r *onlineRig) step(t *testing.T, i int) (app, sys int) {
	t.Helper()
	app, sys = r.ctl.Next()
	r.m.apply(app, sys)
	r.m.work()
	r.m.failing = i%23 >= 20
	if err := r.ctl.Done(1); err != nil {
		t.Fatal(err)
	}
	return app, sys
}

// TestOnlineStateRoundTrip cuts a governed loop mid-run — inside a
// sensor outage — restores the checkpoint into a freshly built
// controller, and runs both on: same decisions, same ledger, same final
// state, byte for byte.
func TestOnlineStateRoundTrip(t *testing.T) {
	const cut, total = 137, 400
	orig := newOnlineRig(t, total)
	for i := 0; i < cut; i++ {
		orig.step(t, i)
	}
	blob, err := orig.ctl.MarshalState()
	if err != nil {
		t.Fatal(err)
	}

	rest := newOnlineRig(t, total)
	if err := rest.ctl.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	// The machine is the world, not controller state: it carries over.
	*rest.m = *orig.m
	if again, err := rest.ctl.MarshalState(); err != nil || !bytes.Equal(again, blob) {
		t.Fatalf("restored controller re-marshals differently (err %v)", err)
	}
	if rest.ctl.Iterations() != cut || rest.ctl.EnergyAccounted() != orig.ctl.EnergyAccounted() ||
		rest.ctl.MeanAccuracy() != orig.ctl.MeanAccuracy() || rest.ctl.SensorFailures() != orig.ctl.SensorFailures() {
		t.Fatalf("restored controller stands at %d iterations / %v J, original at %d / %v J",
			rest.ctl.Iterations(), rest.ctl.EnergyAccounted(), cut, orig.ctl.EnergyAccounted())
	}
	for i := cut; i < total; i++ {
		a1, s1 := orig.step(t, i)
		a2, s2 := rest.step(t, i)
		if a1 != a2 || s1 != s2 {
			t.Fatalf("decision %d diverged: restored (%d,%d), original (%d,%d)", i, a2, s2, a1, s1)
		}
		if orig.ctl.EnergyAccounted() != rest.ctl.EnergyAccounted() {
			t.Fatalf("ledger diverged at %d", i)
		}
	}
	a, _ := orig.ctl.MarshalState()
	b, _ := rest.ctl.MarshalState()
	if !bytes.Equal(a, b) {
		t.Fatal("final states differ")
	}
}

// TestOnlineStateRefusals pins when no checkpoint is written or taken:
// never a partial one.
func TestOnlineStateRefusals(t *testing.T) {
	r := newOnlineRig(t, 50)
	for i := 0; i < 10; i++ {
		r.step(t, i)
	}
	blob, err := r.ctl.MarshalState()
	if err != nil {
		t.Fatal(err)
	}

	r.ctl.Next()
	if _, err := r.ctl.MarshalState(); !errors.Is(err, jouleguard.ErrOutOfSequence) {
		t.Errorf("checkpoint with an iteration in flight: err %v, want ErrOutOfSequence", err)
	}
	prefix := []byte("keep")
	if out, err := r.ctl.AppendState(prefix); err == nil || !bytes.Equal(out, prefix) {
		t.Errorf("a refused AppendState returned %q (err %v), want its input back", out, err)
	}
	if err := r.ctl.RestoreState(blob); err == nil {
		t.Error("restored into a controller that had already run")
	}

	// The comparison baselines hold no checkpointable state.
	tb, _ := jouleguard.NewTestbed("radar", "Tablet")
	base, err := tb.NewSystemOnly()
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := jouleguard.NewOnline(base, r.m.readEnergy, func() float64 { return r.m.clock })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.MarshalState(); err == nil {
		t.Error("checkpointed a governor that cannot be")
	}
	if err := ctl.RestoreState(blob); err == nil {
		t.Error("restored into a governor that cannot be checkpointed")
	}

	// A controller over a differently built runtime refuses the blob.
	other := newOnlineRig(t, 51)
	if err := other.ctl.RestoreState(blob); err == nil {
		t.Error("restored into a controller whose runtime was built for a different workload")
	}
	for n := 0; n < len(blob); n += 7 {
		if err := newOnlineRig(t, 50).ctl.RestoreState(blob[:n]); err == nil {
			t.Fatalf("restored from the first %d of %d bytes", n, len(blob))
		}
	}
}
