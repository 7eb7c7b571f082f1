package main

import (
	"context"
	"sync/atomic"
	"time"

	"jouleguard"
	"jouleguard/internal/client"
	"jouleguard/internal/server"
	"jouleguard/internal/wire"
)

// link is one tenant's path to its governor. The steady workloads and
// the rungs of the latency ladder differ only in which link they hand
// the driver: the iteration stream, the tenant and the checks are shared.
type link interface {
	// next fetches the decision for the tenant's upcoming iteration.
	next(t *tenant) (appCfg, sysCfg int, err error)
	// done settles the iteration the tenant just executed.
	done(t *tenant, acc float64) error
	// ledger reports the grant and the spend the governor accounts.
	ledger() (grantJ, spentJ float64)
	// close ends the session.
	close() error
}

// batcher is a link that settles one iteration and fetches the next
// decision in a single round trip (the v2 frame stream).
type batcher interface {
	doneNext(t *tenant, acc float64) (appCfg, sysCfg int, err error)
}

// onlineLink drives a harness-built OnlineController over the JouleGuard
// runtime, constructed exactly as a daemon session constructs its own:
// the library path every service path must agree with.
type onlineLink struct {
	gov *timedGovernor
	ctl *jouleguard.OnlineController
	t   *tenant
}

func newOnlineLink(t *tenant) (*onlineLink, error) {
	rt, err := t.m.tb.NewJouleGuardBudget(t.budgetJ, t.iters, jouleguard.Options{Seed: t.seed})
	if err != nil {
		return nil, err
	}
	gov := &timedGovernor{inner: rt}
	ctl, err := jouleguard.NewOnlineGuarded(gov, t.readEnergy, t.now,
		jouleguard.SensorGuardConfig{ModelPower: t.m.tb.DefaultPower})
	if err != nil {
		return nil, err
	}
	return &onlineLink{gov: gov, ctl: ctl, t: t}, nil
}

func (l *onlineLink) next(*tenant) (int, int, error) { a, s := l.ctl.Next(); return a, s, nil }
func (l *onlineLink) done(_ *tenant, acc float64) error {
	return l.ctl.Done(acc)
}
func (l *onlineLink) ledger() (float64, float64) { return l.t.budgetJ, l.ctl.EnergyAccounted() }
func (l *onlineLink) close() error               { return nil }

// timedGovernor wraps the runtime behind the public Governor interface
// so the core rung is measured inside the online rung's own calls. It
// reads the clock only while armed (the sampled iterations), so the
// other iterations pay one predictable branch.
type timedGovernor struct {
	inner    jouleguard.Governor
	armed    bool
	decideNS int64
	obsNS    int64
}

func (g *timedGovernor) Decide(iter int) (int, int) {
	if !g.armed {
		return g.inner.Decide(iter)
	}
	t0 := nowNS()
	a, s := g.inner.Decide(iter)
	g.decideNS = nowNS() - t0
	return a, s
}

func (g *timedGovernor) Observe(fb jouleguard.Feedback) {
	if !g.armed {
		g.inner.Observe(fb)
		return
	}
	t0 := nowNS()
	g.inner.Observe(fb)
	g.obsNS = nowNS() - t0
}

// serverLink calls the daemon's exported decision path directly.
type serverLink struct {
	srv   *server.Server
	id    string
	grant float64
	last  wire.DoneResponse
}

func registerRequest(t *tenant) wire.RegisterRequest {
	return wire.RegisterRequest{
		Tenant: t.name, App: t.m.app, Platform: t.m.platform,
		Iterations: t.iters, BudgetJ: t.budgetJ, Seed: t.seed,
	}
}

func newServerLink(srv *server.Server, t *tenant) (*serverLink, error) {
	resp, err := srv.Register(registerRequest(t))
	if err != nil {
		return nil, err
	}
	return &serverLink{srv: srv, id: resp.SessionID, grant: resp.GrantJ}, nil
}

func (l *serverLink) next(t *tenant) (int, int, error) {
	r, err := l.srv.Next(l.id, wire.NextRequest{NowS: t.clockS})
	return r.AppConfig, r.SysConfig, err
}

func (l *serverLink) done(t *tenant, acc float64) error {
	r, err := l.srv.Done(l.id, wire.DoneRequest{NowS: t.clockS, EnergyJ: t.energyJ, Accuracy: acc})
	if err == nil {
		l.last = r
	}
	return err
}

func (l *serverLink) ledger() (float64, float64) { return l.grant, l.last.SpentJ }
func (l *serverLink) close() error               { _, err := l.srv.Close(l.id); return err }

// clientLink is a client.Session pinned to v1 JSON/HTTP: one iteration
// is a Done round trip followed by a Next round trip.
type clientLink struct {
	sess *client.Session
}

// clientOptions mirrors registerRequest for the client library.
func clientOptions(t *tenant) client.Options {
	return client.Options{
		Tenant: t.name, App: t.m.app, Platform: t.m.platform,
		Iterations: t.iters, BudgetJ: t.budgetJ, Seed: t.seed,
		Retry: client.RetryPolicy{Sleep: countedSleep},
	}
}

// clientRetries counts every back-off the client library takes: the
// library exposes no retry counter, but it sleeps before each retry
// through this injectable hook. Any non-zero count explains a failure
// ratio or a tail-latency move.
var clientRetries atomic.Int64

func countedSleep(d time.Duration) {
	clientRetries.Add(1)
	time.Sleep(d)
}

func openClient(opts client.Options, t *tenant) (*clientLink, error) {
	sess, err := client.Open(context.Background(), opts, t.readEnergy, t.now)
	if err != nil {
		return nil, err
	}
	return &clientLink{sess: sess}, nil
}

func (l *clientLink) next(*tenant) (int, int, error) { return l.sess.Next(context.Background()) }
func (l *clientLink) done(_ *tenant, acc float64) error {
	return l.sess.Done(context.Background(), acc)
}
func (l *clientLink) ledger() (float64, float64) {
	return l.sess.GrantJ(), l.sess.LastStatus().SpentJ
}
func (l *clientLink) close() error   { return l.sess.Close(context.Background()) }
func (l *clientLink) failovers() int { return l.sess.Failovers() }

// clientV2Link is a client.Session on the v2 frame stream: one
// iteration is one DoneNext round trip.
type clientV2Link struct{ clientLink }

func (l *clientV2Link) doneNext(_ *tenant, acc float64) (int, int, error) {
	return l.sess.DoneNext(context.Background(), acc)
}
