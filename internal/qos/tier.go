// Package qos is the tenant-protection policy engine: it sits between
// the budget broker (which only admits or rejects) and the session
// layer, and turns sustained over-budget behavior into *graduated*
// enforcement. Three mechanisms compose:
//
//   - A per-tenant escalation ladder — throttle decision rate, then
//     degrade the accuracy floor, then suspend new registrations, then
//     kill sessions — with hysteresis on the way up (several
//     consecutive overrun observations per rung) and sticky
//     de-escalation on the way down (several consecutive clean
//     observations per rung), mirroring the runtime watchdog.
//   - QoS tiers (guaranteed / standard / best-effort), each carrying a
//     latency SLO, an accuracy-floor fraction and a fair-share weight.
//   - Overload shedding: when pool pressure exceeds the shed threshold
//     the engine sacrifices best-effort tenants first (then standard,
//     never guaranteed) to keep guaranteed tenants within budget.
//
// The engine is pure policy: the server feeds it observations derived
// from the broker's per-tenant ledger and actuates its verdicts on the
// v1 and v2 decision paths; the coordinator merges per-node verdicts
// into fleet-wide policy so a tenant throttled on one node cannot
// escape by re-placing on another.
package qos

import (
	"time"
)

// Tier is a tenant's QoS class. The zero value is Standard so an
// unspecified tier never lands a tenant in the shed-first class by
// accident; shedding order is BestEffort first, Guaranteed never.
type Tier int

const (
	// Standard is the default class: moderate SLO, shed only after
	// every best-effort tenant already was.
	Standard Tier = iota
	// BestEffort runs on leftover capacity: loosest SLO, reduced floor,
	// first against the wall under overload.
	BestEffort
	// Guaranteed is the premium class: tightest SLO, full accuracy
	// floor, never shed.
	Guaranteed
)

// TierSpec is the contract a tier defends: the decision-latency SLO
// and the fraction of the tenant's requested accuracy floor the
// engine protects (degradation scales down from there).
type TierSpec struct {
	Name string
	// SLO is the per-decision latency objective. The ladder's throttle
	// interval never paces a tenant below its SLO rate — throttling
	// slows a tenant toward its contract, not below it.
	SLO time.Duration
	// Floor is the fraction of the tenant's requested MinAccuracy this
	// tier defends (1 = the full request).
	Floor float64
	// ShedOrder sorts tenants for overload shedding: lower sheds
	// first; negative means never shed.
	ShedOrder int
	// FairWeight is the tier's weight in the enforcement-fairness
	// split: a tenant's fair footprint is the pool scaled by its
	// tier's FairWeight over the sum of present tenants'. Session
	// weights are client-claimed and so never enter this split — the
	// tier is the contract enforcement trusts.
	FairWeight float64
}

// specs indexes the tier table. Order here is documentation; shedding
// uses ShedOrder.
var specs = map[Tier]TierSpec{
	Guaranteed: {Name: "guaranteed", SLO: 10 * time.Millisecond, Floor: 1.0, ShedOrder: -1, FairWeight: 2},
	Standard:   {Name: "standard", SLO: 50 * time.Millisecond, Floor: 0.9, ShedOrder: 1, FairWeight: 1},
	BestEffort: {Name: "best-effort", SLO: 250 * time.Millisecond, Floor: 0.7, ShedOrder: 0, FairWeight: 0.5},
}

// Spec returns the tier's contract.
func (t Tier) Spec() TierSpec {
	if s, ok := specs[t]; ok {
		return s
	}
	return specs[Standard]
}

// String renders the tier's wire name ("guaranteed" | "standard" |
// "best-effort").
func (t Tier) String() string { return t.Spec().Name }

// ParseTier maps a wire tier name onto its Tier; empty or unknown
// names default to Standard, so older clients that never send a tier
// keep exactly their old contract.
func ParseTier(s string) Tier {
	switch s {
	case "guaranteed":
		return Guaranteed
	case "best-effort":
		return BestEffort
	default:
		return Standard
	}
}

// State is a tenant's ladder rung. Rungs are ordered: every
// enforcement at rung n also applies at rungs above it (a degraded
// tenant is still throttled; a suspended tenant is still degraded).
type State int

const (
	// StateOK: no enforcement.
	StateOK State = iota
	// StateThrottled: Next decisions are paced to the tenant's SLO
	// rate; excess calls get 429 tenant_throttled.
	StateThrottled
	// StateDegraded: additionally, the tenant's accuracy floor is
	// scaled down by the engine's DegradeFloorScale.
	StateDegraded
	// StateSuspended: additionally, new registrations are refused with
	// 503 tenant_suspended; existing sessions keep running (paced,
	// degraded).
	StateSuspended
	// StateKilled: the tenant's sessions are torn down (503
	// tenant_shed) and their grants reclaimed for the pool.
	StateKilled
)

var stateNames = [...]string{"ok", "throttled", "degraded", "suspended", "killed"}

// String renders the rung's wire name.
func (s State) String() string {
	if s >= 0 && int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "ok"
}

// ParseState maps a wire rung name back onto its State (unknown = ok).
func ParseState(name string) State {
	for i, n := range stateNames {
		if n == name {
			return State(i)
		}
	}
	return StateOK
}

// maxState returns the higher (more escalated) of two rungs.
func maxState(a, b State) State {
	if a > b {
		return a
	}
	return b
}
