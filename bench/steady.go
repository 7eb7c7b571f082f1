package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"jouleguard/internal/cluster"
	"jouleguard/internal/server"
	"jouleguard/internal/wire"
)

// tenantsPerRun is the regime's load: two closed-loop tenants, one
// connection each, from this one process (the reference box has two
// cores; more tenants would measure the scheduler).
const tenantsPerRun = 2

// overGrantLimit is the guarantee every governed tenant is held to.
const overGrantLimit = 1.05

// daemon is one governor daemon on a loopback listener, exactly the
// surface cmd/jouleguardd serves.
type daemon struct {
	srv  *server.Server
	http *http.Server
	url  string
}

func startDaemon(globalJ float64) (*daemon, error) {
	srv, err := server.New(server.Config{GlobalBudgetJ: globalJ})
	if err != nil {
		return nil, err
	}
	return serveDaemon(srv, srv.Handler())
}

func serveDaemon(srv *server.Server, h http.Handler) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: srv, http: &http.Server{Handler: h}, url: "http://" + ln.Addr().String()}
	go func() { _ = d.http.Serve(ln) }()
	return d, nil
}

// stop shuts the daemon down; http is nil for a daemon driven in process.
func (d *daemon) stop() {
	if d.http != nil {
		_ = d.http.Close()
	}
	// Nothing to drain: the harness closes or abandons its own sessions,
	// so an already-expired context stops the watchdog and severs the v2
	// streams without waiting out a session left armed mid-workload.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = d.srv.Shutdown(ctx)
}

// poolFor sizes a daemon's global budget so every tenant's factor-priced
// grant fits under the broker's reserve with a small admission margin.
func poolFor(tenants []*tenant) float64 {
	total := 0.0
	for _, t := range tenants {
		total += t.budgetJ
	}
	return total * server.DefaultReserve * 1.02
}

// routeStats times the requests one route of a handler serves: the
// cluster control plane measured at its HTTP boundary, from outside.
type routeStats struct {
	mu    sync.Mutex
	durNS []float64
	bytes int64
}

func (s *routeStats) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.durNS)
}

func (s *routeStats) medianUS() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.durNS) == 0 {
		return 0
	}
	return median(s.durNS) / 1e3
}

// timedRoutes wraps h, timing requests whose path ends in a key of routes.
func timedRoutes(h http.Handler, routes map[string]*routeStats) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var st *routeStats
		for suffix, s := range routes {
			if strings.HasSuffix(r.URL.Path, suffix) {
				st = s
			}
		}
		if st == nil {
			h.ServeHTTP(w, r)
			return
		}
		t0 := nowNS()
		h.ServeHTTP(w, r)
		d := float64(nowNS() - t0)
		st.mu.Lock()
		st.durNS = append(st.durNS, d)
		st.bytes += r.ContentLength
		st.mu.Unlock()
	})
}

// fleet is a coordinator and its member daemons, each on its own
// loopback listener with live heartbeat loops.
type fleet struct {
	coord     *cluster.Coordinator
	coordHTTP *http.Server
	url       string
	members   []*cluster.Member
	nodes     []*daemon
	beats     *routeStats
	extends   *routeStats
}

const fleetLeaseTTL = time.Second

func startFleet(fleetJ float64, nodes int) (*fleet, error) {
	coord, err := cluster.New(cluster.Config{FleetBudgetJ: fleetJ, LeaseTTL: fleetLeaseTTL})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &fleet{coord: coord, url: "http://" + ln.Addr().String(), beats: &routeStats{}, extends: &routeStats{}}
	f.coordHTTP = &http.Server{Handler: timedRoutes(coord.Handler(), map[string]*routeStats{
		"/heartbeat": f.beats, "/lease": f.extends,
	})}
	go func() { _ = f.coordHTTP.Serve(ln) }()
	for i := 0; i < nodes; i++ {
		// The near-zero seed is replaced by the first lease: the lease is
		// the member's only budget source.
		srv, err := server.New(server.Config{GlobalBudgetJ: cluster.MemberSeedBudgetJ})
		if err != nil {
			f.stop()
			return nil, err
		}
		nln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.stop()
			return nil, err
		}
		addr := "http://" + nln.Addr().String()
		mem, err := cluster.NewMember(cluster.MemberConfig{
			CoordinatorURL: f.url, Node: fmt.Sprintf("node%d", i), Advertise: addr, Server: srv,
		})
		if err != nil {
			nln.Close()
			f.stop()
			return nil, err
		}
		d := &daemon{srv: srv, http: &http.Server{Handler: mem.Handler()}, url: addr}
		go func() { _ = d.http.Serve(nln) }()
		f.members = append(f.members, mem)
		f.nodes = append(f.nodes, d)
		if err := mem.Run(); err != nil {
			f.stop()
			return nil, fmt.Errorf("node%d join: %w", i, err)
		}
	}
	return f, nil
}

func (f *fleet) stop() {
	for _, m := range f.members {
		m.Stop()
	}
	for _, d := range f.nodes {
		d.stop()
	}
	f.coord.Stop()
	_ = f.coordHTTP.Close()
}

// splitKeys returns one session key per tenant such that coordinator
// placement spreads the tenants over distinct nodes while nodes last.
// Placement hashes the key against fixed node names, so the search is
// deterministic: every run and every seed lands on the same keys.
func (f *fleet) splitKeys(n int) ([]string, error) {
	used := map[string]bool{}
	keys := make([]string, 0, n)
	for c := 0; len(keys) < n; c++ {
		if c > 64*n {
			return nil, fmt.Errorf("no key placement spreads %d tenants over %d nodes", n, len(f.nodes))
		}
		key := fmt.Sprintf("bench-key-%02d", c)
		p, err := f.coord.Place(key)
		if err != nil {
			return nil, err
		}
		if used[p.Node] && len(used) < len(f.nodes) {
			continue
		}
		used[p.Node] = true
		keys = append(keys, key)
	}
	return keys, nil
}

// steadyKind names the entry point a steady workload drives.
type steadyKind int

const (
	kindInproc steadyKind = iota
	kindV2
	kindV1
	kindCluster
)

// steadyEnv is a steady workload after set-up: sessions registered,
// nothing timed yet.
type steadyEnv struct {
	cfg     runConfig
	kind    steadyKind
	tenants []*tenant
	links   []link
	mode    timing
	daemon  *daemon
	fleet   *fleet
	brokers []*server.Broker
}

func steadyModel(kind steadyKind) (app, platform string) {
	if kind == kindCluster {
		// The fleet's shipped regime (make cluster-smoke).
		return "radar", "Tablet"
	}
	return "x264", "Server"
}

func setupSteady(cfg runConfig, kind steadyKind, baseIters int) (*steadyEnv, error) {
	app, plat := steadyModel(kind)
	m, err := newModel(app, plat)
	if err != nil {
		return nil, err
	}
	e := &steadyEnv{cfg: cfg, kind: kind, mode: timeEach}
	iters := cfg.size(baseIters)
	for i := 0; i < tenantsPerRun; i++ {
		e.tenants = append(e.tenants, newTenant(m, tenantName(i), tenantSeed(cfg.seed, i), iters))
	}
	if err := e.connect(); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// connect starts what the kind needs and registers every tenant.
func (e *steadyEnv) connect() error {
	kind := e.kind
	switch kind {
	case kindInproc:
		e.mode = timeSegments
		srv, err := server.New(server.Config{GlobalBudgetJ: poolFor(e.tenants)})
		if err != nil {
			return err
		}
		e.daemon = &daemon{srv: srv}
		e.brokers = []*server.Broker{srv.Broker()}
		for _, t := range e.tenants {
			l, err := newServerLink(srv, t)
			if err != nil {
				return err
			}
			e.links = append(e.links, l)
		}
	case kindV1, kindV2:
		d, err := startDaemon(poolFor(e.tenants))
		if err != nil {
			return err
		}
		e.daemon = d
		e.brokers = []*server.Broker{d.srv.Broker()}
		for _, t := range e.tenants {
			opts := clientOptions(t)
			opts.BaseURL = d.url
			opts.DisableV2 = kind == kindV1
			cl, err := openClient(opts, t)
			if err != nil {
				return err
			}
			if kind == kindV2 {
				e.links = append(e.links, &clientV2Link{*cl})
			} else {
				e.links = append(e.links, cl)
			}
		}
	case kindCluster:
		// Four times the tenants' need: the coordinator withholds a
		// failover reserve and leases the rest out in shares.
		f, err := startFleet(4*poolFor(e.tenants), tenantsPerRun)
		if err != nil {
			return err
		}
		e.fleet = f
		for _, d := range f.nodes {
			e.brokers = append(e.brokers, d.srv.Broker())
		}
		keys, err := f.splitKeys(len(e.tenants))
		if err != nil {
			return err
		}
		for i, t := range e.tenants {
			opts := clientOptions(t)
			opts.CoordinatorURL = f.url
			opts.Key = keys[i]
			// The fleet's shipped wire: a saturated v2 stream starves the
			// members' heartbeats until their leases expire (README).
			opts.DisableV2 = true
			cl, err := openClient(opts, t)
			if err != nil {
				return err
			}
			e.links = append(e.links, cl)
		}
	}
	return nil
}

func (e *steadyEnv) close() {
	if e.fleet != nil {
		e.fleet.stop()
	}
	if e.daemon != nil {
		e.daemon.stop()
	}
}

// driveAll runs every tenant concurrently over its link.
func driveAll(tenants []*tenant, links []link, warm, stop int, mode timing) []*driveResult {
	out := make([]*driveResult, len(tenants))
	var wg sync.WaitGroup
	for i := range tenants {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = drive(tenants[i], links[i], warm, stop, mode)
		}(i)
	}
	wg.Wait()
	return out
}

func warmIters(n int) int { return int(math.Round(warmShare * float64(n))) }

// run is the untraced timed part plus every output check.
func (e *steadyEnv) run(rep *report) {
	warm := warmIters(e.tenants[0].iters)
	if e.cfg.setupOnly {
		for _, r := range driveAll(e.tenants, e.links, warm, warm, e.mode) {
			if r.err != nil {
				rep.violate("warm-up: %v", r.err)
			}
		}
		rep.add("setup_s", setupSeconds(mark()), 1)
		return
	}
	procBefore := readProc()
	rs := driveAll(e.tenants, e.links, warm, 0, e.mode)
	procAfter := readProc()

	var first *instant
	for _, r := range rs {
		if r.err == nil && (first == nil || r.stamps[0].ns < first.ns) {
			first = &r.stamps[0]
		}
	}
	if first != nil {
		rep.add("setup_s", setupSeconds(*first), 1)
	}
	e.summarise(rep, rs)
	rep.add("heap_mb", liveHeapMB(), 1)
	e.finish(rep, rs)
	rep.procDelta(procBefore, procAfter, rep.ops)
}

// summarise folds the tenants' results into the end-to-end metrics.
func (e *steadyEnv) summarise(rep *report, rs []*driveResult) {
	iters := 0
	for i, r := range rs {
		rep.attempted += r.calls
		if r.err != nil {
			rep.failed++
			rep.violate("tenant error: %v", r.err)
		}
		iters += e.tenants[i].done
	}
	rep.add("iters_per_s", median(segmentRates(rs)), iters)
	// In process no iteration is timed: latency comes from the traced run.
	if q, ok := segmentQuantiles(segmentLatencies(rs)); ok {
		rep.add("iter_p50_us", q.p50/1e3, q.n)
		rep.add("iter_p99_us", q.p99/1e3, q.n)
		rep.opMid, rep.opP90 = q.mid/1e3, q.p90/1e3
	}
	rep.add("fail_ratio", float64(rep.failed)/float64(max(rep.attempted, 1)), rep.attempted)

	over, acc := 0.0, 0.0
	for i, t := range e.tenants {
		grant, spent := e.links[i].ledger()
		if grant > 0 {
			over = math.Max(over, spent/grant)
		}
		if spent > grant*overGrantLimit {
			rep.violate("%s spent %.6g J of a %.6g J grant (%.2f%% > %.0f%%)",
				t.name, spent, grant, 100*spent/grant, 100*overGrantLimit)
		}
		if t.done > 0 {
			acc += t.accSum / float64(t.done)
		}
	}
	rep.add("over_grant_max", over, len(e.tenants))
	rep.add("mean_accuracy", acc/float64(len(e.tenants)), len(e.tenants))
	rep.ops, rep.lanes = iters, len(e.tenants)
	rep.overGrant, rep.accuracy = over, acc/float64(len(e.tenants))
	rep.digest = e.tenants[0].digest
}

// finish closes the sessions and runs the ledger and digest checks.
func (e *steadyEnv) finish(rep *report, rs []*driveResult) {
	for i, l := range e.links {
		rep.attempted++
		if err := l.close(); err != nil && rs[i].err == nil {
			rep.failed++
			rep.violate("%s close: %v", e.tenants[i].name, err)
		}
	}
	for _, b := range e.brokers {
		checkBroker(rep, b.Info())
	}
	if e.fleet != nil {
		if v := e.fleet.coord.Violations(); v != 0 {
			rep.violate("coordinator reports %d fleet-ledger invariant violations", v)
		}
		info := e.fleet.coord.Info(false)
		if info.LeasedUnspentJ+info.ConsumedJ > info.FleetJ*(1+1e-9) {
			rep.violate("fleet over-leased: unspent %.6g + consumed %.6g > budget %.6g",
				info.LeasedUnspentJ, info.ConsumedJ, info.FleetJ)
		}
	}
	if want, err := referenceDigest(e.tenants[0]); err != nil {
		rep.violate("reference replay: %v", err)
	} else if rs[0].err == nil && want != e.tenants[0].digest {
		rep.violate("tenant 0 decided %016x over this entry point but %016x through the library for the same seed",
			e.tenants[0].digest, want)
	}
}

func checkBroker(rep *report, info wire.BrokerInfo) {
	if info.CommittedJ+info.ConsumedJ > info.GlobalJ*(1+1e-9) {
		rep.violate("broker over-committed: committed %.6g + consumed %.6g > global %.6g",
			info.CommittedJ, info.ConsumedJ, info.GlobalJ)
	}
}

// referenceDigest replays the tenant's leading decisions through a
// harness-built OnlineController: the library path, with no daemon,
// broker or wire in between. Every entry point must agree with it.
func referenceDigest(t *tenant) (uint64, error) {
	ref := t.fresh()
	l, err := newOnlineLink(ref)
	if err != nil {
		return 0, err
	}
	n := min(t.done, digestLen)
	app, sys, _ := l.next(ref)
	for i := 0; i < n; i++ {
		acc := ref.exec(app, sys)
		if err := l.done(ref, acc); err != nil {
			return 0, err
		}
		if i+1 < t.iters {
			app, sys, _ = l.next(ref)
		}
	}
	return ref.digest, nil
}

// liveHeapMB is the heap still reachable after forced collection. Two
// cycles, because a sync.Pool keeps what it held for one more.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// topRung names the ladder rung that is the kind's own entry point.
func topRung(kind steadyKind) string {
	switch kind {
	case kindInproc:
		return "server"
	case kindV2:
		return "client.v2"
	case kindV1:
		return "client.v1"
	}
	return "cluster"
}

// traced drives the workload's own entry point, untraced, over the
// ladder's prefix of the stream: the figure the top rung must match.
func (e *steadyEnv) traced(rep *report, _ *spanLog) (reference, []*tenant, uint64) {
	stop := e.cfg.size(ladderBase)
	before := readProc()
	// Every iteration is timed here, in process too: the prefix is too
	// short for batch means to make a sample, and the top rung it is
	// compared with pays the same two clock reads.
	rs := driveAll(e.tenants, e.links, warmIters(stop), stop, timeEach)
	after := readProc()
	ref := reference{top: topRung(e.kind), midNS: math.NaN(), rate: median(segmentRates(rs))}
	failovers := 0
	for i, r := range rs {
		rep.attempted += r.calls
		if r.err != nil {
			rep.failed++
			rep.violate("tenant error: %v", r.err)
		}
		if cl, ok := e.links[i].(interface{ failovers() int }); ok {
			failovers += cl.failovers()
		}
		_ = e.links[i].close() // the session is live mid-workload; nothing to settle
	}
	rep.procDelta(before, after, stop*len(e.tenants))
	if q, ok := segmentQuantiles(segmentLatencies(rs)); ok {
		ref.midNS, ref.loNS, ref.hiNS = q.mid, q.midLo, q.midHi
	}
	rep.addLayer("client.retries", "count", float64(clientRetries.Load()), 1)
	rep.addLayer("client.failovers", "count", float64(failovers), 1)
	srv := e.daemon
	if e.fleet != nil {
		srv = e.fleet.nodes[0]
	}
	views, _ := srv.srv.Broker().ObserveAll()
	rep.addLayer("broker.tenants", "count", float64(len(views)), 1)
	probeTelemetry(rep, srv.srv.Telemetry())
	return ref, e.tenants, e.tenants[0].digest
}
