package qos

import (
	"sort"
	"sync"
	"sync/atomic"

	"jouleguard/internal/telemetry"
	"jouleguard/internal/wire"
)

// Config tunes the ladder. The zero value selects the defaults with
// local observation disabled.
type Config struct {
	// Enabled turns on the local ladder: Observe ticks climb and shed.
	// Disabled (the default), the engine still enforces fleet-shipped
	// remote policy and still answers CheckNext/CheckRegister, but
	// never escalates on its own — graduated enforcement is an
	// operator decision, not a default behavior change.
	Enabled bool
	// OverrunRatio is the footprint-over-fair-share threshold above
	// which an observation counts as an overrun (default 1.25: a
	// tenant must hold >125% of its weighted fair share of the pool
	// before the ladder engages — honest bursts ride under it).
	OverrunRatio float64
	// EscalateAfter is the hysteresis on the way up: consecutive
	// overrun observations required to climb one rung (default 3).
	EscalateAfter int
	// DeescalateAfter is the sticky recovery: consecutive clean
	// observations required to descend one rung (default 6 — twice the
	// climb, like the watchdog's sticky degradation).
	DeescalateAfter int
	// ShedPressure is the pool-pressure threshold — (committed +
	// consumed) / global — above which overload shedding engages
	// (default 0.97).
	ShedPressure float64
	// ThrottleBurst is how many Next decisions a throttled tenant may
	// take per SLO window before pacing rejects the excess (default 1:
	// exactly the SLO rate).
	ThrottleBurst int
}

func (c Config) withDefaults() Config {
	if c.OverrunRatio <= 0 {
		c.OverrunRatio = 1.25
	}
	if c.EscalateAfter <= 0 {
		c.EscalateAfter = 3
	}
	if c.DeescalateAfter <= 0 {
		c.DeescalateAfter = 2 * c.EscalateAfter
	}
	if c.ShedPressure <= 0 {
		c.ShedPressure = 0.97
	}
	if c.ThrottleBurst <= 0 {
		c.ThrottleBurst = 1
	}
	return c
}

// Observation is one tenant's footprint at an observe tick, derived by
// the server from the broker's per-tenant ledger.
type Observation struct {
	Tenant string
	// Overrun is the tenant's pool footprint (committed + spent)
	// relative to its weighted fair share (1 = exactly fair). The
	// ladder climbs while Overrun stays above Config.OverrunRatio.
	Overrun float64
	// BurnW is the tenant's smoothed burn rate; shedding sacrifices
	// the hottest candidate first so one shed buys the most relief.
	BurnW float64
	// Sessions is the tenant's live session count on this node; only
	// tenants with sessions are shed candidates.
	Sessions int
}

// Verdict is what an observe tick asks the caller to actuate.
type Verdict struct {
	// Kill lists tenants whose live sessions must be torn down
	// (tenant_shed): tenants at the killed rung, whether the ladder or
	// overload shedding put them there.
	Kill []string
}

// tenantState is one tenant's ladder position.
type tenantState struct {
	tier   Tier
	local  State // this node's ladder verdict
	remote State // fleet-wide floor shipped by the coordinator
	hot    int   // consecutive overrun observations
	cool   int   // consecutive clean observations
	// nextOkNS paces throttled tenants: the earliest UnixNano at which
	// the next decision is allowed.
	nextOkNS int64

	gLadder *telemetry.Gauge
	gTier   *telemetry.Gauge
}

func (t *tenantState) effective() State { return maxState(t.local, t.remote) }

// Engine is the policy engine. One per server; all methods are safe
// for concurrent use. CheckNext is on the hot decision path and stays
// lock-free while no tenant is enforced.
type Engine struct {
	cfg Config

	// enforced counts tenants whose effective state is not OK; the hot
	// path consults only this before taking the lock.
	enforced atomic.Int64

	mu      sync.Mutex
	tenants map[string]*tenantState

	reg         *telemetry.Registry
	cEscalate   *telemetry.Counter
	cDeescalate *telemetry.Counter
	cThrottled  *telemetry.Counter
	cSuspended  *telemetry.Counter
	cShed       *telemetry.Counter
}

// New builds an engine (cfg zero value = defaults).
func New(cfg Config) *Engine {
	return &Engine{cfg: cfg.withDefaults(), tenants: map[string]*tenantState{}}
}

// Instrument registers the engine's enforcement counters and arranges
// lazy per-tenant ladder/tier gauges on r.
func (e *Engine) Instrument(r *telemetry.Registry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.reg = r
	e.cEscalate = r.Counter("jouleguard_qos_escalations_total", "Ladder escalations (one rung up).")
	e.cDeescalate = r.Counter("jouleguard_qos_deescalations_total", "Ladder de-escalations (one rung down).")
	e.cThrottled = r.Counter("jouleguard_qos_throttled_total", "Next decisions rejected by throttle pacing (tenant_throttled).")
	e.cSuspended = r.Counter("jouleguard_qos_suspended_registrations_total", "Registrations refused while suspended (tenant_suspended).")
	e.cShed = r.Counter("jouleguard_qos_shed_total", "Tenants shed (sessions killed) by the ladder or overload shedding.")
	for name, t := range e.tenants {
		e.gaugeLocked(name, t)
	}
}

// gaugeLocked lazily creates and refreshes a tenant's gauges; callers
// hold e.mu.
func (e *Engine) gaugeLocked(name string, t *tenantState) {
	if e.reg == nil {
		return
	}
	if t.gLadder == nil {
		t.gLadder = e.reg.Gauge("jouleguard_qos_ladder_state",
			"Tenant ladder rung (0 ok, 1 throttled, 2 degraded, 3 suspended, 4 killed).",
			telemetry.Label{Name: "tenant", Value: name})
		t.gTier = e.reg.Gauge("jouleguard_qos_tier",
			"Tenant QoS tier (0 standard, 1 best-effort, 2 guaranteed).",
			telemetry.Label{Name: "tenant", Value: name})
	}
	t.gLadder.Set(float64(t.effective()))
	t.gTier.Set(float64(t.tier))
}

// get returns the tenant's state, creating it at Standard/OK; callers
// hold e.mu.
func (e *Engine) get(tenant string) *tenantState {
	t := e.tenants[tenant]
	if t == nil {
		t = &tenantState{tier: Standard}
		e.tenants[tenant] = t
		e.gaugeLocked(tenant, t)
	}
	return t
}

// recountLocked refreshes the enforced-tenant count; callers hold e.mu
// and must call it after any state mutation.
func (e *Engine) recountLocked() {
	n := int64(0)
	for _, t := range e.tenants {
		if t.effective() != StateOK {
			n++
		}
	}
	e.enforced.Store(n)
}

// SetTier records a tenant's QoS class (latest registration wins).
func (e *Engine) SetTier(tenant string, tier Tier) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t := e.get(tenant)
	t.tier = tier
	e.gaugeLocked(tenant, t)
}

// TierOf returns the tenant's class (Standard if never registered).
func (e *Engine) TierOf(tenant string) Tier {
	e.mu.Lock()
	defer e.mu.Unlock()
	if t := e.tenants[tenant]; t != nil {
		return t.tier
	}
	return Standard
}

// StateOf returns the tenant's effective rung (local vs fleet, higher
// wins).
func (e *Engine) StateOf(tenant string) State {
	e.mu.Lock()
	defer e.mu.Unlock()
	if t := e.tenants[tenant]; t != nil {
		return t.effective()
	}
	return StateOK
}

// CheckRegister gates a new registration: nil admits, a refusal
// carries tenant_suspended while the tenant sits at the suspend rung
// or above. Existing sessions are unaffected (suspension is rung 3;
// killing them is rung 4's job, actuated via Observe verdicts).
func (e *Engine) CheckRegister(tenant string) *wire.Error {
	if e.enforced.Load() == 0 {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	t := e.tenants[tenant]
	if t == nil || t.effective() < StateSuspended {
		return nil
	}
	if e.cSuspended != nil {
		e.cSuspended.Inc()
	}
	return &wire.Error{Code: wire.CodeTenantSuspended,
		Msg: "tenant " + tenant + " is " + t.effective().String() + "; new registrations refused until it de-escalates"}
}

// Enforcing reports whether any tenant's effective state is not OK: the
// one atomic load CheckNext starts with, so a caller can skip reading the
// clock CheckNext needs while nothing is enforced.
func (e *Engine) Enforcing() bool { return e.enforced.Load() != 0 }

// CheckNext gates one decision on the hot path. nowNS is the caller's
// UnixNano. While no tenant is enforced this is a single atomic load;
// for a throttled tenant it paces decisions to the tier's SLO rate
// (excess gets tenant_throttled), and for a killed tenant it returns
// tenant_shed.
func (e *Engine) CheckNext(tenant string, nowNS int64) *wire.Error {
	if !e.Enforcing() {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	t := e.tenants[tenant]
	if t == nil {
		return nil
	}
	switch st := t.effective(); {
	case st >= StateKilled:
		return &wire.Error{Code: wire.CodeTenantShed,
			Msg: "tenant " + tenant + " was shed; its sessions are killed until it de-escalates"}
	case st >= StateThrottled:
		slo := t.tier.Spec().SLO.Nanoseconds()
		if nowNS < t.nextOkNS {
			if e.cThrottled != nil {
				e.cThrottled.Inc()
			}
			return &wire.Error{Code: wire.CodeTenantThrottled,
				Msg: "tenant " + tenant + " is " + st.String() + "; decisions paced to the " + t.tier.String() + " SLO"}
		}
		t.nextOkNS = nowNS + slo/int64(e.cfg.ThrottleBurst)
	}
	return nil
}

// Observe runs one ladder tick: obs is every tenant's current
// footprint (from the broker's ledger) and pressure is the pool's
// (committed + consumed) / global. It climbs and descends ladders
// with hysteresis, engages overload shedding above ShedPressure, and
// returns the kill list for the caller to actuate.
func (e *Engine) Observe(obs []Observation, pressure float64) Verdict {
	if !e.cfg.Enabled {
		return Verdict{}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, o := range obs {
		t := e.get(o.Tenant)
		if o.Overrun > e.cfg.OverrunRatio {
			t.hot++
			t.cool = 0
			if t.hot >= e.cfg.EscalateAfter && t.local < StateKilled {
				t.local++
				t.hot = 0
				if e.cEscalate != nil {
					e.cEscalate.Inc()
				}
			}
		} else {
			t.cool++
			t.hot = 0
			if t.cool >= e.cfg.DeescalateAfter && t.local > StateOK {
				t.local--
				t.cool = 0
				if e.cDeescalate != nil {
					e.cDeescalate.Inc()
				}
			}
		}
	}
	// Overload shedding: one tenant per tick, lowest tier first
	// (best-effort, then standard — never guaranteed), hottest burn
	// within the tier so each shed buys the most relief. One per tick
	// keeps shedding as graduated as the ladder itself.
	if pressure > e.cfg.ShedPressure {
		if victim := e.shedCandidateLocked(obs); victim != "" {
			t := e.get(victim)
			if t.local < StateKilled {
				t.local = StateKilled
				if e.cShed != nil {
					e.cShed.Inc()
				}
			}
		}
	}
	var v Verdict
	for _, o := range obs {
		t := e.tenants[o.Tenant]
		if t != nil && o.Sessions > 0 && t.effective() >= StateKilled {
			v.Kill = append(v.Kill, o.Tenant)
		}
	}
	sort.Strings(v.Kill)
	for name, t := range e.tenants {
		e.gaugeLocked(name, t)
	}
	e.recountLocked()
	return v
}

// shedCandidateLocked picks the next shed victim: among tenants with
// live sessions not already killed, the lowest ShedOrder tier present,
// hottest burn first. Guaranteed tenants (ShedOrder < 0) are never
// candidates. Callers hold e.mu.
func (e *Engine) shedCandidateLocked(obs []Observation) string {
	victim := ""
	vOrder, vBurn := int(^uint(0)>>1), -1.0
	for _, o := range obs {
		t := e.tenants[o.Tenant]
		if t == nil || o.Sessions == 0 || t.effective() >= StateKilled {
			continue
		}
		order := t.tier.Spec().ShedOrder
		if order < 0 {
			continue
		}
		if order < vOrder || (order == vOrder && o.BurnW > vBurn) {
			victim, vOrder, vBurn = o.Tenant, order, o.BurnW
		}
	}
	return victim
}

// Standing is one tenant's published QoS position.
type Standing struct {
	Tenant string
	Tier   Tier
	// State is the effective rung (max of local and fleet); Local is
	// this node's own ladder verdict — what heartbeats ship, so the
	// fleet merge never echoes itself into a ratchet.
	State State
	Local State
}

// Standings snapshots every known tenant, sorted by name.
func (e *Engine) Standings() []Standing {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Standing, 0, len(e.tenants))
	for name, t := range e.tenants {
		out = append(out, Standing{Tenant: name, Tier: t.tier, State: t.effective(), Local: t.local})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// LocalPolicies renders this node's own ladder verdicts as wire
// policies for the heartbeat (only escalated tenants ship; an empty
// report is the common case and costs nothing).
func (e *Engine) LocalPolicies() []wire.TenantPolicy {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []wire.TenantPolicy
	for name, t := range e.tenants {
		if t.local == StateOK {
			continue
		}
		out = append(out, wire.TenantPolicy{Tenant: name, Tier: t.tier.String(), State: t.local.String()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// ApplyRemote overlays the coordinator's fleet-wide policy merge: each
// listed tenant's remote rung is set, and every unlisted tenant's is
// cleared (the fleet no longer escalates it). Local ladders are
// untouched — the effective rung is the max of the two.
func (e *Engine) ApplyRemote(policies []wire.TenantPolicy) {
	e.mu.Lock()
	defer e.mu.Unlock()
	listed := make(map[string]bool, len(policies))
	for _, p := range policies {
		listed[p.Tenant] = true
		t := e.get(p.Tenant)
		t.remote = ParseState(p.State)
	}
	for name, t := range e.tenants {
		if !listed[name] {
			t.remote = StateOK
		}
	}
	for name, t := range e.tenants {
		e.gaugeLocked(name, t)
	}
	e.recountLocked()
}
