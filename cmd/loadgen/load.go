package main

// The tenants and the verdicts. Each tenant is a faithful stand-in for a
// governed application: a client of jouleguard.Machine, the modeled
// machine the paper's experiments run on. When the daemon says (appCfg,
// sysCfg), the tenant "executes" the iteration on its machine, whose clock
// advances by work/rate(sysCfg) seconds and whose meter by power(sysCfg) x
// that duration — so the governor under test observes exactly the dynamics
// it would on the modeled machine, while the wire round trips are real
// HTTP over real sockets.

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"jouleguard"
	"jouleguard/internal/client"
	"jouleguard/internal/telemetry"
	"jouleguard/internal/wire"
)

// Config describes one load run.
type Config struct {
	BaseURL    string
	Tenants    int
	Iterations int      // per tenant
	Apps       []string // assigned round-robin; default x264
	Platform   string   // default Server
	Factor     float64  // >0: per-tenant absolute budget priced from factor
	Weight     float64  // used when Factor==0 (weighted-share mode)
	Seed       int64    // tenant i runs with Seed+i
	Retry      client.RetryPolicy
	// Tier is the QoS class honest tenants claim at registration
	// (guaranteed | standard | best-effort; empty = standard).
	Tier string

	// Adversaries converts the last N tenants into deliberately
	// misbehaving ones: each claims AdversaryWeight times an honest
	// share, registers under adversaryTier, and keeps hammering the
	// daemon — re-registering straight through every enforcement denial
	// — until the honest tenants finish. Their denials are tallied in
	// the report instead of counting as run errors; the run's verdict
	// comes from CheckIsolation, which asserts the honest tenants never
	// felt them.
	Adversaries int
	// AdversaryWeight is the claim multiple an adversary asks for —
	// AdversaryWeight times an honest tenant's absolute budget in
	// factor-priced mode, or its weight in weighted mode (default 10:
	// ten honest tenants' worth of the pool).
	AdversaryWeight float64

	// WireV2 moves the per-iteration traffic onto the v2 binary frame
	// stream with the batched DoneNext loop (settle + next decision in
	// one round trip). False pins tenants to v1 JSON/HTTP.
	WireV2 bool

	// CoordinatorURL switches the run to cluster mode: tenants register
	// through the fleet coordinator (each under a stable session key) and
	// ride through node failures via the client's failover path. BaseURL
	// is ignored.
	CoordinatorURL string
	// CoordinatorURLs is the ordered failover list clients rotate to when
	// the primary coordinator is unreachable or deposed (standbys).
	CoordinatorURLs []string
	// Kills schedules mid-run failure injections (a node, the coordinator
	// itself); each fires once, in iteration order.
	Kills []Kill

	// TraceEvery head-samples distributed traces on every tenant's
	// session: each tenant mints a trace context on its first governed
	// round and every TraceEvery-th after (0 = the client default 1/256;
	// negative disables tracing).
	TraceEvery int
	// Tracer records the client-side root spans of sampled rounds; shared
	// across all tenants (SpanBuffer is concurrency-safe). Nil: contexts
	// are still minted and propagated, nothing is recorded locally.
	Tracer *telemetry.SpanBuffer
}

// Kill is one scheduled mid-run failure injection: Do runs once the
// fleet as a whole has completed At iterations.
type Kill struct {
	At int
	Do func()
}

// adversaryTier is the QoS class adversaries claim: best-effort, the
// first tier overload shedding sacrifices.
const adversaryTier = "best-effort"

func (c Config) withDefaults() Config {
	if c.Tenants <= 0 {
		c.Tenants = 4
	}
	if c.Iterations <= 0 {
		c.Iterations = 100
	}
	if len(c.Apps) == 0 {
		c.Apps = []string{"x264"}
	}
	if c.Platform == "" {
		c.Platform = "Server"
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Adversaries >= c.Tenants {
		// At least one honest tenant: the isolation property is about
		// them, and an all-adversary run would never terminate.
		c.Adversaries = c.Tenants - 1
	}
	if c.Adversaries < 0 {
		c.Adversaries = 0
	}
	if c.AdversaryWeight <= 0 {
		c.AdversaryWeight = 10
	}
	return c
}

// TenantResult is one simulated tenant's outcome.
type TenantResult struct {
	Tenant     string
	Iterations int
	GrantJ     float64
	SpentJ     float64 // daemon's ledger (authoritative)
	Failovers  int     // node migrations the client rode through
	// CoordFailovers counts coordinator rotations: placement lookups the
	// client had to re-aim at a standby after the primary died or was
	// deposed.
	CoordFailovers int
	// TraceID is the tenant's most recently minted distributed-trace id
	// (0 if tracing was disabled or no round was sampled) — the join key
	// harnesses use to find this tenant's spans across nodes.
	TraceID uint64
	Err     error

	// Adversary marks a deliberately misbehaving tenant: enforcement
	// denials are its expected outcome, so they are tallied here rather
	// than surfacing as Err.
	Adversary bool
	// Registrations counts the sessions the adversary opened (it
	// re-registers through every denial).
	Registrations int
	// Throttled, Suspended and Shed tally the enforcement denials the
	// tenant drew, by wire code.
	Throttled, Suspended, Shed int
}

// OverGrant reports the tenant's spend as a fraction of its grant
// (1.0 = exactly on budget).
func (t TenantResult) OverGrant() float64 {
	if t.GrantJ <= 0 {
		return 0
	}
	return t.SpentJ / t.GrantJ
}

// Report aggregates a load run.
type Report struct {
	Tenants    []TenantResult
	Iterations int // total completed across tenants

	TotalSpentJ  float64
	TotalGrantJ  float64
	MaxOverGrant float64 // worst per-tenant spend/grant ratio
	Errors       int

	// Cluster-mode extras: total node migrations clients rode through and
	// the coordinator rotations absorbed inside them.
	Failovers      int
	CoordFailovers int

	// Adversarial-mode extras: the enforcement denials adversaries drew
	// across the run, by wire code.
	Throttled, Suspended, Shed int
}

// Check asserts the run's guarantees: every tenant finished, and no
// tenant overran its grant by more than slack (e.g. 1.05 for the 5%
// tolerance the governor itself promises).
func (r *Report) Check(slack float64) error {
	if r.Errors > 0 {
		for _, t := range r.Tenants {
			if t.Err != nil {
				return fmt.Errorf("loadgen: tenant %s failed: %w", t.Tenant, t.Err)
			}
		}
	}
	for _, t := range r.Tenants {
		if t.Adversary {
			continue // judged by CheckIsolation, not by completion
		}
		if t.Iterations == 0 {
			return fmt.Errorf("loadgen: tenant %s completed no iterations", t.Tenant)
		}
		if og := t.OverGrant(); og > slack {
			return fmt.Errorf("loadgen: tenant %s spent %.1f J of a %.1f J grant (%.1f%% > %.1f%% slack)",
				t.Tenant, t.SpentJ, t.GrantJ, og*100, slack*100)
		}
	}
	return nil
}

// CheckIsolation asserts the adversarial run's headline property: every
// honest tenant finished its workload within slack of its grant and
// drew no enforcement denial, while the adversaries — the only tenants
// allowed to feel the ladder — drew at least one. Call it instead of
// Check when Config.Adversaries > 0.
func (r *Report) CheckIsolation(slack float64) error {
	if err := r.Check(slack); err != nil {
		return err
	}
	advDenials := 0
	for _, t := range r.Tenants {
		if t.Adversary {
			advDenials += t.Throttled + t.Suspended + t.Shed
			continue
		}
		if n := t.Throttled + t.Suspended + t.Shed; n > 0 {
			return fmt.Errorf("loadgen: honest tenant %s drew %d enforcement denials (throttled %d, suspended %d, shed %d)",
				t.Tenant, n, t.Throttled, t.Suspended, t.Shed)
		}
	}
	if advDenials == 0 {
		return fmt.Errorf("loadgen: adversaries ran unenforced: not one drew an enforcement denial")
	}
	return nil
}

// Summary is a one-line human rendering of the report.
func (r *Report) Summary() string {
	return fmt.Sprintf("%d tenants, %d iterations; spent %.1f J of %.1f J granted, worst tenant at %.1f%% of grant, %d errors",
		len(r.Tenants), r.Iterations, r.TotalSpentJ, r.TotalGrantJ, r.MaxOverGrant*100, r.Errors)
}

// tenant is the virtual application: its machine runs the iterations,
// decisions come from the wire.
type tenant struct {
	name      string
	app       string
	cfg       Config
	tb        *jouleguard.Testbed
	adversary bool

	done *atomic.Int64 // fleet-wide completed-iteration counter
	res  TenantResult
}

// place points opts at the coordinator under key in cluster mode, and
// in the factor-priced mode grants it claim priced budgets' worth of
// joules.
func (t *tenant) place(opts *client.Options, key string, claim float64) error {
	if t.cfg.CoordinatorURL != "" {
		opts.CoordinatorURL = t.cfg.CoordinatorURL
		opts.CoordinatorURLs = t.cfg.CoordinatorURLs
		opts.Key = key
		opts.BaseURL = ""
	}
	if t.cfg.Factor > 0 {
		b, err := t.tb.Budget(t.cfg.Factor, t.cfg.Iterations)
		if err != nil {
			return err
		}
		opts.BudgetJ = b * claim
	}
	return nil
}

// run executes the tenant's whole workload against the daemon.
func (t *tenant) run(ctx context.Context) {
	t.res = TenantResult{Tenant: t.name}
	opts := client.Options{
		BaseURL:    t.cfg.BaseURL,
		Tenant:     t.name,
		Weight:     t.cfg.Weight,
		App:        t.app,
		Platform:   t.cfg.Platform,
		Iterations: t.cfg.Iterations,
		Tier:       t.cfg.Tier,
		Retry:      t.cfg.Retry,
		DisableV2:  !t.cfg.WireV2,
		TraceEvery: t.cfg.TraceEvery,
		Tracer:     t.cfg.Tracer,
		Seed:       t.cfg.Seed,
	}
	if err := t.place(&opts, t.name, 1); err != nil {
		t.res.Err = err
		return
	}
	m := t.tb.Machine()
	sess, err := client.Open(ctx, opts, m.ReadEnergy, m.Now)
	if err != nil {
		t.res.Err = err
		return
	}
	t.res.GrantJ = sess.GrantJ()
	armed := false
	var appCfg, sysCfg int
	for i := 0; i < t.cfg.Iterations; i++ {
		if !armed {
			var err error
			appCfg, sysCfg, err = sess.Next(ctx)
			if err != nil {
				if client.IsCode(err, wire.CodeSessionComplete) {
					// A daemon restart can settle a retried iteration twice,
					// completing the workload one client call early; that is
					// graceful completion, not a failure.
					t.res.Iterations = t.cfg.Iterations
					break
				}
				t.res.Err = fmt.Errorf("iteration %d Next: %w", i, err)
				break
			}
			armed = true
		}
		acc := m.Step(appCfg, sysCfg, i)
		if t.cfg.WireV2 && i < t.cfg.Iterations-1 {
			// Steady state: settle this iteration and fetch the next
			// decision in one batched round trip.
			nextApp, nextSys, err := sess.DoneNext(ctx, acc)
			if err != nil {
				if client.IsCode(err, wire.CodeSessionComplete) {
					// The Done half settled before the workload completed.
					t.res.Iterations++
					t.done.Add(1)
					break
				}
				t.res.Err = fmt.Errorf("iteration %d DoneNext: %w", i, err)
				break
			}
			appCfg, sysCfg = nextApp, nextSys
		} else {
			if err := sess.Done(ctx, acc); err != nil {
				t.res.Err = fmt.Errorf("iteration %d Done: %w", i, err)
				break
			}
			armed = false
		}
		t.res.Iterations++
		t.done.Add(1)
	}
	t.res.SpentJ = sess.LastStatus().SpentJ
	t.res.Failovers = sess.Failovers()
	t.res.CoordFailovers = sess.CoordFailovers()
	t.res.TraceID = sess.LastTraceID()
	if err := sess.Close(ctx); err != nil && t.res.Err == nil {
		t.res.Err = fmt.Errorf("close: %w", err)
	}
	// An honest tenant hitting the ladder is an isolation failure;
	// tally the denial so CheckIsolation can name it.
	t.noteDenial(t.res.Err)
}

// noteDenial tallies err on the result if it is an enforcement denial.
func (t *tenant) noteDenial(err error) {
	switch {
	case err == nil:
	case client.IsCode(err, wire.CodeTenantThrottled):
		t.res.Throttled++
	case client.IsCode(err, wire.CodeTenantSuspended):
		t.res.Suspended++
	case client.IsCode(err, wire.CodeTenantShed):
		t.res.Shed++
	}
}

// runAdversary executes the tenant as a hostile load source: it claims
// AdversaryWeight honest shares under adversaryTier and drives
// iterations as fast as the daemon answers, re-registering straight
// through every enforcement denial until stop closes. Denials are
// tallied, and every other error simply ends the current session — an
// adversary's job is to be refused, so nothing it experiences fails
// the run (the honest tenants are the run's verdict).
func (t *tenant) runAdversary(ctx context.Context, stop <-chan struct{}) {
	t.res = TenantResult{Tenant: t.name, Adversary: true}
	for {
		select {
		case <-stop:
			return
		default:
		}
		opts := client.Options{
			BaseURL:    t.cfg.BaseURL,
			Tenant:     t.name,
			App:        t.app,
			Platform:   t.cfg.Platform,
			Iterations: t.cfg.Iterations,
			Tier:       adversaryTier,
			Retry:      t.cfg.Retry,
			DisableV2:  true,
			Seed:       t.cfg.Seed,
		}
		// Claim AdversaryWeight honest tenants' worth of the pool, in
		// whichever pricing mode the honest tenants use. Admission is
		// claim-blind while the pool has room — noticing and punishing
		// the sustained hogging is the QoS ladder's job.
		if t.cfg.Factor <= 0 {
			opts.Weight = t.cfg.AdversaryWeight * math.Max(t.cfg.Weight, 1)
		}
		// A fresh key per attempt in cluster mode: a suspended tenant
		// re-placing under new keys is exactly the escape hatch fleet policy
		// must close.
		if err := t.place(&opts, fmt.Sprintf("%s-r%d", t.name, t.res.Registrations), t.cfg.AdversaryWeight); err != nil {
			t.res.Err = err
			return
		}
		// A fresh machine per registration: each session's readings are
		// its own, as a restarted application's would be.
		m := t.tb.Machine()
		sess, err := client.Open(ctx, opts, m.ReadEnergy, m.Now)
		if err != nil {
			t.noteDenial(err)
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			continue
		}
		t.res.Registrations++
		t.res.GrantJ = sess.GrantJ()
		for i := 0; i < t.cfg.Iterations; i++ {
			select {
			case <-stop:
				_ = sess.Close(ctx)
				return
			default:
			}
			appCfg, sysCfg, err := sess.Next(ctx)
			if err != nil {
				t.noteDenial(err)
				break
			}
			if err := sess.Done(ctx, m.Step(appCfg, sysCfg, i)); err != nil {
				t.noteDenial(err)
				break
			}
			t.res.Iterations++
		}
		t.res.SpentJ += sess.LastStatus().SpentJ
		_ = sess.Close(ctx)
	}
}

// Run drives cfg.Tenants concurrent sessions to completion and reports.
// Cancelling ctx aborts the tenants' wire calls (including retry
// backoff) and the run returns with whatever completed.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	var done atomic.Int64
	honest := cfg.Tenants - cfg.Adversaries
	tenants := make([]*tenant, cfg.Tenants)
	for i := range tenants {
		app := cfg.Apps[i%len(cfg.Apps)]
		tb, err := jouleguard.NewTestbed(app, cfg.Platform)
		if err != nil {
			return nil, err
		}
		tcfg := cfg
		tcfg.Seed = cfg.Seed + int64(i)
		name := fmt.Sprintf("tenant-%02d", i)
		if i >= honest {
			name = fmt.Sprintf("adversary-%02d", i-honest)
		}
		tenants[i] = &tenant{
			name: name, adversary: i >= honest,
			app: app, cfg: tcfg, tb: tb, done: &done,
		}
	}
	// The kill watcher injects the scheduled mid-run failures (node
	// and/or coordinator kills) as the fleet-wide iteration count passes
	// each trigger, in order.
	kills := append([]Kill(nil), cfg.Kills...)
	sort.Slice(kills, func(i, j int) bool { return kills[i].At < kills[j].At })
	killCtx, stopKiller := context.WithCancel(ctx)
	defer stopKiller()
	if len(kills) > 0 {
		go func() {
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-killCtx.Done():
					return
				case <-tick.C:
					for len(kills) > 0 && done.Load() >= int64(kills[0].At) {
						kills[0].Do()
						kills = kills[1:]
					}
					if len(kills) == 0 {
						return
					}
				}
			}
		}()
	}
	// Adversaries run until the honest tenants finish: the property
	// under test is that honest workloads complete while hostile load
	// is live the whole time, so the adversaries must never finish
	// first and quietly hand the pool back.
	advStop := make(chan struct{})
	var wg, advWG sync.WaitGroup
	for _, t := range tenants {
		if t.adversary {
			advWG.Add(1)
			go func(t *tenant) {
				defer advWG.Done()
				t.runAdversary(ctx, advStop)
			}(t)
			continue
		}
		wg.Add(1)
		go func(t *tenant) {
			defer wg.Done()
			t.run(ctx)
		}(t)
	}
	wg.Wait()
	close(advStop)
	advWG.Wait()
	// Every session is closed; the daemons may be about to go too.
	client.CloseIdleStreams()

	rep := &Report{}
	for _, t := range tenants {
		rep.Tenants = append(rep.Tenants, t.res)
		rep.Iterations += t.res.Iterations
		rep.TotalSpentJ += t.res.SpentJ
		if t.res.Adversary {
			// Hostile traffic is reported (denials, spend) but never
			// judged: no error count, no grant-fidelity sample.
			rep.Throttled += t.res.Throttled
			rep.Suspended += t.res.Suspended
			rep.Shed += t.res.Shed
			continue
		}
		rep.TotalGrantJ += t.res.GrantJ
		rep.MaxOverGrant = math.Max(rep.MaxOverGrant, t.res.OverGrant())
		if t.res.Err != nil {
			rep.Errors++
		}
		rep.Failovers += t.res.Failovers
		rep.CoordFailovers += t.res.CoordFailovers
	}
	return rep, nil
}
