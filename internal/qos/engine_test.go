package qos

import (
	"testing"
	"time"

	"jouleguard/internal/telemetry"
	"jouleguard/internal/wire"
)

// tick runs one observe with a single tenant at the given overrun.
func tick(e *Engine, tenant string, overrun, pressure float64) Verdict {
	return e.Observe([]Observation{{Tenant: tenant, Overrun: overrun, Sessions: 1, BurnW: 1}}, pressure)
}

func TestLadderClimbsWithHysteresis(t *testing.T) {
	e := New(Config{Enabled: true, EscalateAfter: 3, DeescalateAfter: 6})
	// Two overrun ticks are not enough to move off OK.
	tick(e, "a", 2, 0)
	tick(e, "a", 2, 0)
	if got := e.StateOf("a"); got != StateOK {
		t.Fatalf("state after 2 overruns = %v, want ok", got)
	}
	// The third climbs one rung; each further EscalateAfter climbs one
	// more, stopping at killed.
	want := []State{StateThrottled, StateDegraded, StateSuspended, StateKilled, StateKilled}
	for rung, w := range want {
		for i := 0; i < 3; i++ {
			tick(e, "a", 2, 0)
		}
		if got := e.StateOf("a"); got != w {
			t.Fatalf("rung %d: state = %v, want %v", rung, got, w)
		}
	}
}

func TestLadderStickyDeescalation(t *testing.T) {
	e := New(Config{Enabled: true, EscalateAfter: 1, DeescalateAfter: 4})
	tick(e, "a", 2, 0)
	tick(e, "a", 2, 0)
	if got := e.StateOf("a"); got != StateDegraded {
		t.Fatalf("state = %v, want degraded", got)
	}
	// Three clean ticks do not descend; a fourth descends exactly one
	// rung, and an overrun in between resets the cooldown.
	for i := 0; i < 3; i++ {
		tick(e, "a", 1, 0)
	}
	if got := e.StateOf("a"); got != StateDegraded {
		t.Fatalf("state after 3 clean = %v, want degraded (sticky)", got)
	}
	tick(e, "a", 2, 0) // resets cool, climbs back toward suspend
	for i := 0; i < 3; i++ {
		tick(e, "a", 1, 0)
	}
	if got := e.StateOf("a"); got < StateDegraded {
		t.Fatalf("cooldown not reset by overrun: state = %v", got)
	}
	for i := 0; i < 16; i++ {
		tick(e, "a", 1, 0)
	}
	if got := e.StateOf("a"); got != StateOK {
		t.Fatalf("state after long clean run = %v, want ok", got)
	}
}

func TestShedOrderBestEffortFirst(t *testing.T) {
	e := New(Config{Enabled: true, ShedPressure: 0.9})
	e.SetTier("gold", Guaranteed)
	e.SetTier("std", Standard)
	e.SetTier("be1", BestEffort)
	e.SetTier("be2", BestEffort)
	obs := []Observation{
		{Tenant: "gold", Overrun: 1, Sessions: 1, BurnW: 100},
		{Tenant: "std", Overrun: 1, Sessions: 1, BurnW: 50},
		{Tenant: "be1", Overrun: 1, Sessions: 1, BurnW: 5},
		{Tenant: "be2", Overrun: 1, Sessions: 1, BurnW: 9},
	}
	// First shed tick: hottest best-effort tenant goes first.
	v := e.Observe(obs, 0.99)
	if len(v.Kill) != 1 || v.Kill[0] != "be2" {
		t.Fatalf("first shed = %v, want [be2]", v.Kill)
	}
	// Second: the remaining best-effort tenant.
	v = e.Observe(obs, 0.99)
	if len(v.Kill) != 2 || v.Kill[0] != "be1" || v.Kill[1] != "be2" {
		t.Fatalf("second shed = %v, want [be1 be2]", v.Kill)
	}
	// Third: standard. Guaranteed is never shed, however long the
	// pressure lasts.
	v = e.Observe(obs, 0.99)
	if len(v.Kill) != 3 || v.Kill[2] != "std" {
		t.Fatalf("third shed = %v, want [be1 be2 std]", v.Kill)
	}
	for i := 0; i < 3; i++ {
		v = e.Observe(obs, 0.99)
	}
	for _, killed := range v.Kill {
		if killed == "gold" {
			t.Fatalf("guaranteed tenant shed: %v", v.Kill)
		}
	}
	if got := e.StateOf("gold"); got != StateOK {
		t.Fatalf("guaranteed tenant escalated by shedding: %v", got)
	}
}

func TestCheckNextPacesThrottledTenant(t *testing.T) {
	e := New(Config{Enabled: true, EscalateAfter: 1})
	now := time.Now().UnixNano()
	if d := e.CheckNext("a", now); d != nil {
		t.Fatalf("unenforced tenant denied: %+v", d)
	}
	tick(e, "a", 2, 0) // -> throttled
	slo := Standard.Spec().SLO.Nanoseconds()
	if d := e.CheckNext("a", now); d != nil {
		t.Fatalf("first decision after throttle denied: %+v", d)
	}
	if d := e.CheckNext("a", now+slo/2); d == nil || d.Code != wire.CodeTenantThrottled {
		t.Fatalf("within-SLO decision = %+v, want tenant_throttled", d)
	}
	if d := e.CheckNext("a", now+slo+1); d != nil {
		t.Fatalf("post-SLO decision denied: %+v", d)
	}
	// Other tenants are untouched.
	if d := e.CheckNext("b", now); d != nil {
		t.Fatalf("innocent tenant denied: %+v", d)
	}
}

func TestCheckRegisterSuspends(t *testing.T) {
	e := New(Config{Enabled: true, EscalateAfter: 1})
	for i := 0; i < 3; i++ {
		tick(e, "a", 2, 0)
	}
	if got := e.StateOf("a"); got != StateSuspended {
		t.Fatalf("state = %v, want suspended", got)
	}
	if d := e.CheckRegister("a"); d == nil || d.Code != wire.CodeTenantSuspended {
		t.Fatalf("suspended register = %+v, want tenant_suspended", d)
	}
	if d := e.CheckRegister("b"); d != nil {
		t.Fatalf("innocent register denied: %+v", d)
	}
	tick(e, "a", 2, 0) // -> killed
	if d := e.CheckNext("a", time.Now().UnixNano()); d == nil || d.Code != wire.CodeTenantShed {
		t.Fatalf("killed Next = %+v, want tenant_shed", d)
	}
}

func TestRemotePolicyOverlay(t *testing.T) {
	e := New(Config{})
	e.SetTier("a", BestEffort)
	e.ApplyRemote([]wire.TenantPolicy{{Tenant: "a", Tier: "best-effort", State: "suspended"}})
	if got := e.StateOf("a"); got != StateSuspended {
		t.Fatalf("remote state = %v, want suspended", got)
	}
	if d := e.CheckRegister("a"); d == nil {
		t.Fatal("remote suspension did not gate registration")
	}
	// Local ladder still reports OK on heartbeats — the merge must not
	// echo itself into a ratchet.
	if ps := e.LocalPolicies(); len(ps) != 0 {
		t.Fatalf("local policies = %v, want none (remote-only escalation)", ps)
	}
	// An empty merge clears the overlay.
	e.ApplyRemote(nil)
	if got := e.StateOf("a"); got != StateOK {
		t.Fatalf("state after clear = %v, want ok", got)
	}
	if d := e.CheckRegister("a"); d != nil {
		t.Fatalf("cleared tenant still gated: %+v", d)
	}
}

func TestEffectiveFloorComposesTierAndLadder(t *testing.T) {
	e := New(Config{Enabled: true, EscalateAfter: 1, DegradeFloorScale: 0.8})
	e.SetTier("g", Guaranteed)
	e.SetTier("be", BestEffort)
	if got, want := e.EffectiveFloor("g", 0.9), 0.9; got != want {
		t.Fatalf("guaranteed floor = %v, want %v", got, want)
	}
	if got, want := e.EffectiveFloor("be", 0.9), 0.9*0.7; got != want {
		t.Fatalf("best-effort floor = %v, want %v", got, want)
	}
	tick(e, "be", 2, 0)
	tick(e, "be", 2, 0) // -> degraded
	if got, want := e.EffectiveFloor("be", 0.9), 0.9*0.7*0.8; got != want {
		t.Fatalf("degraded best-effort floor = %v, want %v", got, want)
	}
}

func TestTierAndStateParsing(t *testing.T) {
	for _, tier := range []Tier{Guaranteed, Standard, BestEffort} {
		if got := ParseTier(tier.String()); got != tier {
			t.Fatalf("ParseTier(%q) = %v, want %v", tier.String(), got, tier)
		}
	}
	if got := ParseTier(""); got != Standard {
		t.Fatalf("ParseTier(\"\") = %v, want standard", got)
	}
	for s := StateOK; s <= StateKilled; s++ {
		if got := ParseState(s.String()); got != s {
			t.Fatalf("ParseState(%q) = %v, want %v", s.String(), got, s)
		}
	}
}

func TestInstrumentCountsEnforcement(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := New(Config{Enabled: true, EscalateAfter: 1})
	e.Instrument(reg)
	tick(e, "a", 2, 0)
	now := time.Now().UnixNano()
	e.CheckNext("a", now)
	if d := e.CheckNext("a", now); d == nil {
		t.Fatal("expected throttle denial")
	}
	standings := e.Standings()
	if len(standings) != 1 || standings[0].State != StateThrottled {
		t.Fatalf("standings = %+v", standings)
	}
}
