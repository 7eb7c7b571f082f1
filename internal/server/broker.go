package server

import (
	"fmt"
	"sync"

	"jouleguard/internal/telemetry"
	"jouleguard/internal/wire"
)

// ErrBudgetExhausted rejects a registration the broker's uncommitted
// budget cannot honor (admission control): admitting it anyway would
// turn one machine-wide guarantee into N broken per-tenant ones.
var ErrBudgetExhausted = fmt.Errorf("server: global energy budget exhausted")

// Broker partitions one machine-wide energy budget across tenants. It is
// a pure ledger — sessions enforce their grants through their governors;
// the broker decides who gets how many joules and keeps the global
// invariant that commitments plus consumption never exceed the pool.
//
// Grants are committed with a reserve multiplier (default 1.05,
// mirroring the runtime's infeasibility slack): a governor guarantees
// its budget only to within that slack, so the broker must hold the
// slack back or the sum of N individually-honoured guarantees could
// still overrun the machine. Invariants (pinned by TestBrokerInvariants):
//
//	I1: committed + consumed <= global          (never over-commit)
//	I2: sum of per-session spend <= global      (follows from I1 + reserve)
//
// Fairness across registrations uses weighted shares with per-tenant
// deficit carry-over, in the spirit of deficit round-robin: a tenant
// that closed a session underspent carries the unspent joules as a
// priority claim on its next share; one that overdrew (within the
// reserve slack) carries the overdraft as a debit. The carry adjusts
// future grants, never the physical ledger — reclamation of unspent
// energy happens at Release regardless.
type Broker struct {
	mu        sync.Mutex
	globalJ   float64
	reserve   float64
	committed float64            // outstanding commitments of active sessions
	consumed  float64            // energy definitively spent by released sessions
	weight    float64            // sum of active session weights
	carry     map[string]float64 // per-tenant deficit ledger (+credit / -debit)
	tenants   map[string]*tenantLedger
	admitted  int
	rejected  int
	active    int

	// Gauges mirroring the ledger on /metrics (nil-safe via OrNop-style
	// guard in publish). reg is retained so per-tenant series can be
	// registered lazily as tenants appear.
	reg                                                 *telemetry.Registry
	gGlobal, gCommitted, gConsumed, gAvailable, gActive *telemetry.Gauge
	cAdmitted, cRejected, cReclaims                     *telemetry.Counter
}

// burnAlpha smooths the per-tenant burn-rate EWMA: heavy enough to ride
// out settle-to-settle jitter, light enough that a tenant going quiet
// shows within a few seconds (same constant the fleet rollup uses).
const burnAlpha = 0.3

// tenantLedger is the broker's per-tenant view: what the qos engine
// observes. Sessions/committed track live grants under b.mu; spent and
// the burn EWMA accumulate from per-iteration settle notes in the
// tenant's spend cell.
type tenantLedger struct {
	sessions  int
	weight    float64
	committed float64 // live commitments (incl. reserve)
	consumedJ float64 // definitively consumed by released sessions (net of imports)
	spend     *spendCell
}

// spendCell is one tenant's settle-side books, under a lock of its own:
// every session of the tenant holds a pointer to it from registration
// on, so a settle touches only its own tenant's cell — never b.mu, never
// the tenant map. Lock order b.mu -> cell.mu.
type spendCell struct {
	mu     sync.Mutex
	spentJ float64 // cumulative noted spend across all sessions
	burnW  float64 // EWMA of noted spend over client time

	gBurn  *telemetry.Gauge
	cSpent *telemetry.Counter
}

// note books deltaJ joules of settled spend, folding the burn-rate EWMA
// over dtS seconds of client time.
func (c *spendCell) note(deltaJ, dtS float64) {
	if deltaJ < 0 {
		deltaJ = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.spentJ += deltaJ
	if c.cSpent != nil && deltaJ > 0 {
		c.cSpent.Add(deltaJ)
	}
	if dtS > 0 {
		c.burnW += burnAlpha * (deltaJ/dtS - c.burnW)
		if c.gBurn != nil {
			c.gBurn.Set(c.burnW)
		}
	}
}

// read returns the cell's spend and burn rate.
func (c *spendCell) read() (spentJ, burnW float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.spentJ, c.burnW
}

// DefaultReserve is the commitment multiplier covering the runtime's
// tolerated overshoot of the energy goal.
const DefaultReserve = 1.05

// NewBroker builds a broker over a global budget of globalJ joules.
// reserve <= 1 selects DefaultReserve.
func NewBroker(globalJ, reserve float64) (*Broker, error) {
	if globalJ <= 0 {
		return nil, fmt.Errorf("server: global budget %v must be positive", globalJ)
	}
	if reserve <= 1 {
		reserve = DefaultReserve
	}
	return &Broker{globalJ: globalJ, reserve: reserve,
		carry: map[string]float64{}, tenants: map[string]*tenantLedger{}}, nil
}

// Instrument registers the broker's ledger gauges on a metric registry.
func (b *Broker) Instrument(r *telemetry.Registry) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.reg = r
	b.gGlobal = r.Gauge("jouleguardd_broker_global_joules", "Machine-wide energy budget the broker partitions.")
	b.gGlobal.Set(b.globalJ)
	b.gCommitted = r.Gauge("jouleguardd_broker_committed_joules", "Outstanding budget commitments of active sessions (incl. reserve).")
	b.gConsumed = r.Gauge("jouleguardd_broker_consumed_joules", "Energy definitively spent by released sessions.")
	b.gAvailable = r.Gauge("jouleguardd_broker_available_joules", "Uncommitted budget available for admission.")
	b.gActive = r.Gauge("jouleguardd_broker_active_sessions", "Sessions currently holding a grant.")
	b.cAdmitted = r.Counter("jouleguardd_broker_admissions_total", "Registrations admitted.")
	b.cRejected = r.Counter("jouleguardd_broker_rejections_total", "Registrations rejected by admission control.")
	b.cReclaims = r.Counter("jouleguardd_broker_reclaims_total", "Grants released back to the pool (close or expiry).")
	b.publish()
}

// publish refreshes the gauges; callers hold b.mu.
func (b *Broker) publish() {
	if b.gCommitted == nil {
		return
	}
	b.gCommitted.Set(b.committed)
	b.gConsumed.Set(b.consumed)
	b.gAvailable.Set(b.globalJ - b.committed - b.consumed)
	b.gActive.Set(float64(b.active))
}

// tenantLocked lazily creates a tenant's ledger (and, once the broker
// is instrumented, its per-daemon Prometheus series — the node-local
// source the fleet's jouleguard_fleet_tenant_* series roll up from).
// Callers hold b.mu.
func (b *Broker) tenantLocked(tenant string) *tenantLedger {
	t := b.tenants[tenant]
	if t == nil {
		t = &tenantLedger{spend: &spendCell{}}
		b.tenants[tenant] = t
	}
	// The series pointers are written only here, under b.mu and the
	// cell's lock, so reading them under b.mu alone is safe.
	if c := t.spend; c.gBurn == nil && b.reg != nil {
		c.mu.Lock()
		c.gBurn = b.reg.Gauge("jouleguard_tenant_burn_watts",
			"Per-tenant energy burn rate on this daemon (EWMA over client time).",
			telemetry.Label{Name: "tenant", Value: tenant})
		c.cSpent = b.reg.Counter("jouleguard_tenant_spent_joules",
			"Per-tenant cumulative energy spend on this daemon.",
			telemetry.Label{Name: "tenant", Value: tenant})
		c.gBurn.Set(c.burnW)
		c.cSpent.Add(c.spentJ)
		c.mu.Unlock()
	}
	return t
}

// spendCell returns the tenant's spend cell, creating the tenant's
// ledger if need be; a session keeps the pointer for its lifetime.
func (b *Broker) spendCell(tenant string) *spendCell {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tenantLocked(tenant).spend
}

// NoteSpend books deltaJ joules of settled spend against the tenant's
// running ledger, folding the burn-rate EWMA over dtS seconds of
// client time. It mutates only observation state, never the admission
// ledger (the authoritative spend still lands via Release). Sessions
// settle straight into their tenant's cell; this is the same note for
// a caller holding only the tenant's name.
func (b *Broker) NoteSpend(tenant string, deltaJ, dtS float64) {
	b.spendCell(tenant).note(deltaJ, dtS)
}

// TenantView is one tenant's observable footprint: what the qos engine
// sees (it never reaches into the broker's maps).
type TenantView struct {
	Tenant     string
	Sessions   int
	Weight     float64
	CommitJ    float64 // live commitments (incl. reserve)
	SpentJ     float64 // cumulative noted spend
	BurnW      float64 // smoothed burn rate
	FairJ      float64 // weighted fair share of the pool for its live weight
	FootprintJ float64 // live commitments + released consumption: pool pressure attributable to it
}

// viewLocked renders one ledger; callers hold b.mu. FootprintJ sums
// live commitments with released consumption — live sessions' spend is
// already inside their commitment, so adding spentJ here would
// double-count it.
func (b *Broker) viewLocked(name string, t *tenantLedger) TenantView {
	spentJ, burnW := t.spend.read()
	v := TenantView{
		Tenant: name, Sessions: t.sessions, Weight: t.weight,
		CommitJ: t.committed, SpentJ: spentJ, BurnW: burnW,
		FootprintJ: t.committed + t.consumedJ,
	}
	if b.weight > 0 && t.weight > 0 {
		v.FairJ = b.globalJ * t.weight / b.weight
	}
	return v
}

// Observe returns one tenant's footprint (zero view if unknown).
func (b *Broker) Observe(tenant string) TenantView {
	b.mu.Lock()
	defer b.mu.Unlock()
	if t := b.tenants[tenant]; t != nil {
		return b.viewLocked(tenant, t)
	}
	return TenantView{Tenant: tenant}
}

// ObserveAll snapshots every tenant the broker has ever seen, plus the
// pool pressure (committed+consumed over global) — the qos engine's
// whole observation in one lock acquisition.
func (b *Broker) ObserveAll() (views []TenantView, pressure float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for name, t := range b.tenants {
		views = append(views, b.viewLocked(name, t))
	}
	if b.globalJ > 0 {
		pressure = (b.committed + b.consumed) / b.globalJ
	}
	return views, pressure
}

// Available returns the uncommitted remainder of the global budget.
func (b *Broker) Available() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.globalJ - b.committed - b.consumed
}

// Global returns the pool the broker partitions.
func (b *Broker) Global() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.globalJ
}

// Consumed returns the energy booked as definitively spent (net of
// imported pre-spend that arrived with adopted sessions).
func (b *Broker) Consumed() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.consumed
}

// SetGlobal resizes the pool. In a fleet the node's broker is fed by the
// coordinator's cumulative budget lease: every renewal or extension
// raises the pool, and admission control keeps partitioning whatever the
// lease currently covers. Shrinking below committed+consumed is refused
// — grants already made cannot be clawed back.
func (b *Broker) SetGlobal(globalJ float64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if globalJ < b.committed+b.consumed {
		return fmt.Errorf("server: cannot shrink pool to %.3g J below committed %.3g + consumed %.3g",
			globalJ, b.committed, b.consumed)
	}
	b.globalJ = globalJ
	if b.gGlobal != nil {
		b.gGlobal.Set(globalJ)
	}
	b.publish()
	return nil
}

// Grant is one admitted budget allocation. CommitJ (grant x reserve,
// plus any overdraft penalty) is what the pool holds until Release.
// ImportedJ is pre-spend that arrived with an adopted (migrated)
// session: energy already accounted on another node's lease, so this
// broker neither commits nor consumes it.
type Grant struct {
	Tenant    string
	Weight    float64
	GrantJ    float64
	CommitJ   float64
	ImportedJ float64
}

// Admit runs admission control for a registration. requestJ > 0 asks for
// an absolute grant; requestJ <= 0 asks for a weighted share of the
// uncommitted pool. weight <= 0 counts as 1.
func (b *Broker) Admit(tenant string, weight, requestJ float64) (Grant, error) {
	if weight <= 0 {
		weight = 1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	avail := b.globalJ - b.committed - b.consumed
	carry := b.carry[tenant]
	var grant float64
	if requestJ > 0 {
		// Absolute request. An overdrafted tenant must cover its debit on
		// top of the request before it is admitted again; a positive
		// credit stays on the ledger for a future weighted share.
		need := requestJ
		if carry < 0 {
			need -= carry
		}
		if need*b.reserve > avail {
			b.rejected++
			if b.cRejected != nil {
				b.cRejected.Inc()
			}
			return Grant{}, fmt.Errorf("%w: request %.3g J (with reserve and carry, %.3g J) exceeds available %.3g J",
				ErrBudgetExhausted, requestJ, need*b.reserve, avail)
		}
		grant = requestJ
	} else {
		// Weighted share of what the pool can still commit, adjusted by
		// the tenant's carry-over.
		base := (avail / b.reserve) * weight / (b.weight + weight)
		grant = base + carry
		if limit := avail / b.reserve; grant > limit {
			grant = limit
		}
		if grant <= 0 {
			b.rejected++
			if b.cRejected != nil {
				b.cRejected.Inc()
			}
			return Grant{}, fmt.Errorf("%w: weighted share %.3g J (carry %.3g J) is not positive",
				ErrBudgetExhausted, base, carry)
		}
	}
	commit := grant * b.reserve
	if requestJ > 0 && carry < 0 {
		// Weighted shares repay a debit by shrinking the grant itself;
		// absolute grants repay it by holding the overdraft headroom in
		// reserve for the session's lifetime.
		commit -= carry * b.reserve
	}
	if carry < 0 || requestJ <= 0 {
		delete(b.carry, tenant) // the ledger has been applied
	}
	b.committed += commit
	b.weight += weight
	b.active++
	b.admitted++
	tl := b.tenantLocked(tenant)
	tl.sessions++
	tl.weight += weight
	tl.committed += commit
	if b.cAdmitted != nil {
		b.cAdmitted.Inc()
	}
	b.publish()
	return Grant{Tenant: tenant, Weight: weight, GrantJ: grant, CommitJ: commit}, nil
}

// AdoptGrant admits a migrated session's remaining budget without
// re-running placement policy: the session arrives with grantJ granted
// fleet-wide and importedJ already spent on its previous owner's lease,
// so this broker commits only the remainder (x reserve). The full grant
// and spend still flow through the tenant's carry ledger at Release, but
// the imported portion never counts against this pool.
func (b *Broker) AdoptGrant(tenant string, weight, grantJ, importedJ float64) (Grant, error) {
	if weight <= 0 {
		weight = 1
	}
	if importedJ < 0 {
		importedJ = 0
	}
	if importedJ > grantJ {
		importedJ = grantJ
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	remaining := grantJ - importedJ
	commit := remaining * b.reserve
	avail := b.globalJ - b.committed - b.consumed
	if commit > avail {
		b.rejected++
		if b.cRejected != nil {
			b.cRejected.Inc()
		}
		return Grant{}, fmt.Errorf("%w: adopting %.3g J remaining (with reserve %.3g J) exceeds available %.3g J",
			ErrBudgetExhausted, remaining, commit, avail)
	}
	b.committed += commit
	b.weight += weight
	b.active++
	b.admitted++
	tl := b.tenantLocked(tenant)
	tl.sessions++
	tl.weight += weight
	tl.committed += commit
	if b.cAdmitted != nil {
		b.cAdmitted.Inc()
	}
	b.publish()
	return Grant{Tenant: tenant, Weight: weight, GrantJ: grantJ, CommitJ: commit, ImportedJ: importedJ}, nil
}

// Release settles a grant when its session closes or expires: the actual
// spend is booked as consumed (net of any imported pre-spend, which was
// consumed on another node's lease), the rest of the commitment returns
// to the pool, and the difference between grant and spend is carried
// over on the tenant's deficit ledger for its next registration.
func (b *Broker) Release(g Grant, spentJ float64) {
	if spentJ < 0 {
		spentJ = 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.committed -= g.CommitJ
	if b.committed < 0 {
		b.committed = 0
	}
	localSpent := spentJ - g.ImportedJ
	if localSpent < 0 {
		localSpent = 0
	}
	b.consumed += localSpent
	b.weight -= g.Weight
	if b.weight < 0 {
		b.weight = 0
	}
	b.active--
	if b.active < 0 {
		b.active = 0
	}
	b.carry[g.Tenant] += g.GrantJ - spentJ
	tl := b.tenantLocked(g.Tenant)
	tl.sessions--
	if tl.sessions < 0 {
		tl.sessions = 0
	}
	tl.weight -= g.Weight
	if tl.weight < 0 {
		tl.weight = 0
	}
	tl.committed -= g.CommitJ
	if tl.committed < 0 {
		tl.committed = 0
	}
	tl.consumedJ += localSpent
	if b.cReclaims != nil {
		b.cReclaims.Inc()
	}
	b.publish()
}

// ReserveFactor returns the commitment multiplier.
func (b *Broker) ReserveFactor() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.reserve
}

// Carry returns a tenant's current deficit carry-over (0 if none).
func (b *Broker) Carry(tenant string) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.carry[tenant]
}

// Info snapshots the ledger for introspection.
func (b *Broker) Info() wire.BrokerInfo {
	b.mu.Lock()
	defer b.mu.Unlock()
	return wire.BrokerInfo{
		GlobalJ:    b.globalJ,
		CommittedJ: b.committed,
		ConsumedJ:  b.consumed,
		AvailableJ: b.globalJ - b.committed - b.consumed,
		Active:     b.active,
		Admitted:   b.admitted,
		Rejected:   b.rejected,
	}
}

// restore rebuilds the ledger from a snapshot: the consumed total and
// per-tenant carries come from the file; commitments and weights are
// re-accumulated by the sessions as they are restored.
func (b *Broker) restore(consumedJ float64, carry map[string]float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consumed = consumedJ
	b.carry = map[string]float64{}
	for t, c := range carry {
		b.carry[t] = c
	}
	b.publish()
}

// readopt re-registers a restored session's grant without re-running
// admission (the grant was already admitted before the snapshot).
func (b *Broker) readopt(g Grant) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.committed += g.CommitJ
	b.weight += g.Weight
	b.active++
	b.admitted++
	tl := b.tenantLocked(g.Tenant)
	tl.sessions++
	tl.weight += g.Weight
	tl.committed += g.CommitJ
	b.publish()
}
