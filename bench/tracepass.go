package main

import (
	"math"
	"sort"
	"strings"

	"jouleguard/internal/server"
)

// ladderGapLimit is how far the top rung may sit from the untraced pass
// of the same entry point before the traced run fails.
const ladderGapLimit = 0.10

// ladderBase is the length of the stream prefix every rung replays, at
// the reference run length.
const ladderBase = 8000

// ladderIters is the registered workload of the tenants the ladder uses
// when the workload under trace has no steady tenants of its own.
const ladderIters = 100000

// reference is the workload's own entry point driven untraced over the
// ladder's prefix: what the top rung must reproduce.
type reference struct {
	top   string  // the rung that is this workload's entry point ("" = none)
	midNS float64 // untraced iteration midhinge (NaN when the sample is too small)
	// loNS and hiNS are the lowest and highest midhinge any one segment of
	// the untraced pass showed: how far this box moves the same code on
	// the same stream within one pass.
	loNS, hiNS float64
	rate       float64 // untraced operations per second
}

// starter builds one rung's infrastructure: how to open a link for a
// tenant, and how to tear everything down afterwards.
type starter func(pool float64) (open func(t *tenant) (link, error), stop func(), err error)

func noStop() {}

func daemonStarter(v1 bool) starter {
	return func(pool float64) (func(t *tenant) (link, error), func(), error) {
		d, err := startDaemon(pool)
		if err != nil {
			return nil, nil, err
		}
		return func(t *tenant) (link, error) {
			opts := clientOptions(t)
			opts.BaseURL, opts.DisableV2 = d.url, v1
			cl, err := openClient(opts, t)
			if err != nil || v1 {
				return cl, err
			}
			return &clientV2Link{*cl}, nil
		}, d.stop, nil
	}
}

func memStarter(v1 bool) starter {
	return func(pool float64) (func(t *tenant) (link, error), func(), error) {
		d, err := startMemDaemon(pool)
		if err != nil {
			return nil, nil, err
		}
		return func(t *tenant) (link, error) {
			if !v1 {
				return newPipeV2Link(d, t)
			}
			opts := clientOptions(t)
			opts.BaseURL, opts.DisableV2, opts.HTTPClient = "http://mem", true, d.client
			return openClient(opts, t)
		}, d.stop, nil
	}
}

func serverStarter(open func(srv *server.Server, t *tenant) (link, error)) starter {
	return func(pool float64) (func(t *tenant) (link, error), func(), error) {
		srv, err := server.New(server.Config{GlobalBudgetJ: pool})
		if err != nil {
			return nil, nil, err
		}
		stop := (&daemon{srv: srv}).stop
		return func(t *tenant) (link, error) { return open(srv, t) }, stop, nil
	}
}

// fleetStarter also hands back the fleet, whose control-plane counters
// become the cluster layer's metrics.
func fleetStarter(got **fleet) starter {
	return func(pool float64) (func(t *tenant) (link, error), func(), error) {
		f, err := startFleet(4*pool, tenantsPerRun)
		if err != nil {
			return nil, nil, err
		}
		*got = f
		keys, err := f.splitKeys(tenantsPerRun)
		if err != nil {
			f.stop()
			return nil, nil, err
		}
		next := 0
		return func(t *tenant) (link, error) {
			opts := clientOptions(t)
			opts.CoordinatorURL, opts.Key, opts.DisableV2 = f.url, keys[next%len(keys)], true
			next++
			return openClient(opts, t)
		}, f.stop, nil
	}
}

// rungOrder lists every rung the traced pass replays, innermost first.
// The two chains share their three inner rungs:
//
//	v1: online ⊂ server ⊂ server.http ⊂ client.pipe.v1 ⊂ client.v1 (⊂ cluster)
//	v2: online ⊂ server ⊂ wire.v2     ⊂ client.pipe.v2 ⊂ client.v2
var (
	chainV1 = []string{"core", "online", "server", "server.http", "client.pipe.v1", "client.v1"}
	chainV2 = []string{"core", "online", "server", "wire.v2", "client.pipe.v2", "client.v2"}
)

// runLadder replays the stream prefix through every rung.
func runLadder(rep *report, tenants []*tenant, stop int, spans *spanLog) map[string]*rung {
	pool := poolFor(tenants)
	var fl *fleet
	rungs := []struct {
		name  string
		start starter
	}{
		{"online", func(float64) (func(t *tenant) (link, error), func(), error) {
			return func(t *tenant) (link, error) { return newOnlineLink(t) }, noStop, nil
		}},
		{"server", serverStarter(func(s *server.Server, t *tenant) (link, error) { return newServerLink(s, t) })},
		{"server.http", serverStarter(func(s *server.Server, t *tenant) (link, error) { return newHTTPLink(s, t) })},
		{"wire.v2", serverStarter(func(s *server.Server, t *tenant) (link, error) { return newFrameLink(s, t) })},
		{"client.pipe.v1", memStarter(true)},
		{"client.pipe.v2", memStarter(false)},
		{"client.v1", daemonStarter(true)},
		{"client.v2", daemonStarter(false)},
		{"cluster", fleetStarter(&fl)},
	}
	out := map[string]*rung{}
	for _, rg := range rungs {
		open, stopRung, err := rg.start(pool)
		if err != nil {
			rep.violate("rung %s: %v", rg.name, err)
			continue
		}
		var r *rung
		allocs := allocsDuring(stop*len(tenants), func() { r, err = runRung(rg.name, tenants, stop, open, spans) })
		if rg.name == "cluster" && err == nil {
			// Read the control plane's counters while the fleet is still up.
			clusterLayer(rep, fl, stop*len(tenants))
		}
		stopRung()
		if err != nil {
			rep.violate("%v", err)
			continue
		}
		out[rg.name] = r
		if rg.name == "server" {
			rep.addLayer("server.allocs_per_iter", "count", allocs, stop*len(tenants))
		}
	}
	return out
}

// clusterLayer reports the coordinator's control plane as its HTTP
// boundary saw it during the cluster rung.
func clusterLayer(rep *report, f *fleet, iters int) {
	beats, extends := f.beats.count(), f.extends.count()
	rep.addLayer("cluster.heartbeat_us", "us", f.beats.medianUS(), beats)
	rep.addLayer("cluster.extend_us", "us", f.extends.medianUS(), extends)
	rep.addLayer("cluster.heartbeat_iters", "count", float64(iters)/float64(max(beats, 1)), beats)
	rep.addLayer("cluster.beats", "count", float64(beats), beats)
	rep.addLayer("cluster.extends", "count", float64(extends), extends)
	if v := f.coord.Violations(); v != 0 {
		rep.violate("coordinator reports %d fleet-ledger invariant violations in the cluster rung", v)
	}
}

func medianOf(r *rung, f func(sample) int64) (float64, int) {
	if r == nil {
		return 0, 0
	}
	xs := r.field(f)
	if len(xs) == 0 {
		return 0, 0
	}
	return median(xs), len(xs)
}

func midhingeOf(r *rung, f func(sample) int64) float64 {
	if r == nil {
		return 0
	}
	xs := sortedCopy(r.field(f))
	if len(xs) == 0 {
		return 0
	}
	return (quantile(xs, 0.25) + quantile(xs, 0.75)) / 2
}

func p99Of(r *rung, f func(sample) int64) (float64, int) {
	if r == nil {
		return 0, 0
	}
	xs := sortedCopy(r.field(f))
	if len(xs) < minQuantileN {
		return 0, len(xs)
	}
	return quantile(xs, 0.99), len(xs)
}

func doneHalf(s sample) int64 { return s.doneNS }
func nextHalf(s sample) int64 { return s.nextNS }
func whole(s sample) int64    { return s.doneNS + s.nextNS }
func coreTime(s sample) int64 { return s.decideNS + s.observeNS }

// ladderLayer turns the rungs into per-layer metrics and the ranked
// "where does the time go" table, and checks that every rung decided
// the same sequence.
func ladderLayer(rep *report, rungs map[string]*rung, ref reference, refDigest uint64) {
	add := func(name, unit string, r *rung, f func(sample) int64, scale float64) {
		v, n := medianOf(r, f)
		rep.addLayer(name, unit, v/scale, n)
	}
	add("core.step_ns", "ns", rungs["online"], coreTime, 1)
	add("online.next_ns", "ns", rungs["online"], nextHalf, 1)
	add("online.done_ns", "ns", rungs["online"], doneHalf, 1)
	add("server.next_ns", "ns", rungs["server"], nextHalf, 1)
	add("server.done_ns", "ns", rungs["server"], doneHalf, 1)
	v, n := p99Of(rungs["server"], nextHalf)
	rep.addLayer("server.next_p99_ns", "ns", v, n)
	v, n = p99Of(rungs["server"], doneHalf)
	rep.addLayer("server.done_p99_ns", "ns", v, n)
	add("server.http_next_us", "us", rungs["server.http"], nextHalf, 1e3)
	add("server.http_done_us", "us", rungs["server.http"], doneHalf, 1e3)
	add("client.next_us", "us", rungs["client.v1"], nextHalf, 1e3)
	add("client.done_us", "us", rungs["client.v1"], doneHalf, 1e3)
	add("client.donenext_us", "us", rungs["client.v2"], whole, 1e3)
	add("client.v2_pipe_donenext_us", "us", rungs["client.pipe.v2"], whole, 1e3)

	// Each rung's span, innermost first; core is measured inside online.
	// The span is located by its midhinge, not its median: two rungs (the
	// v2 stream over a socket, the server under two contending tenants)
	// have two latency modes of similar weight, and a median flips
	// between them from run to run.
	p50 := map[string]float64{}
	p50["core"] = midhingeOf(rungs["online"], coreTime)
	for name, r := range rungs {
		p50[name] = midhingeOf(r, whole)
	}
	self := func(chain []string) map[string]float64 {
		out := map[string]float64{}
		below := 0.0
		for _, name := range chain {
			out[name] = p50[name] - below
			below = p50[name]
		}
		return out
	}
	s1, s2 := self(chainV1), self(chainV2)
	for _, name := range chainV1 {
		rep.addLayer("ladder.v1."+rungMetric(name, ".v1")+"_us", "us", s1[name]/1e3, 1)
	}
	for _, name := range chainV2 {
		rep.addLayer("ladder.v2."+rungMetric(name, ".v2")+"_us", "us", s2[name]/1e3, 1)
	}
	rep.addLayer("ladder.cluster_us", "us", (p50["cluster"]-p50["client.v1"])/1e3, 1)
	rep.note("ladder v1 (top %.2fus): %s", p50["client.v1"]/1e3, rankedShares(s1, p50["client.v1"]))
	rep.note("ladder v2 (top %.2fus): %s", p50["client.v2"]/1e3, rankedShares(s2, p50["client.v2"]))

	names := make([]string, 0, len(rungs))
	for name := range rungs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if d := rungs[name].digest; d != refDigest {
			rep.violate("rung %s decided %016x, the workload's own entry point %016x: rungs are not comparable", name, d, refDigest)
		}
	}
	if top := rungs[ref.top]; top != nil && !math.IsNaN(ref.midNS) && ref.midNS > 0 {
		got := p50[ref.top]
		gap := (got - ref.midNS) / ref.midNS
		rep.note("top rung %s %.2fus vs the same entry point untraced %.2fus (%+.1f%%; untraced segments ranged %.2f..%.2fus)",
			ref.top, got/1e3, ref.midNS/1e3, 100*gap, ref.loNS/1e3, ref.hiNS/1e3)
		rep.addLayer("ladder.top_gap_pct", "%", 100*gap, 1)
		// The top rung must reproduce the untraced figure within 10%. On
		// a box that moves the untraced pass itself by more than that from
		// one segment to the next, the 10% is taken beyond the range the
		// untraced segments covered.
		if got < (1-ladderGapLimit)*ref.loNS || got > (1+ladderGapLimit)*ref.hiNS {
			rep.violate("top rung %s %.2fus is more than %.0f%% outside the untraced pass's %.2f..%.2fus",
				ref.top, got/1e3, 100*ladderGapLimit, ref.loNS/1e3, ref.hiNS/1e3)
		}
		if ref.rate > 0 {
			traced := median(segmentRates(top.results))
			rep.addLayer("trace.overhead_pct", "%", 100*(ref.rate-traced)/ref.rate, 1)
		}
	}
}

// rungMetric turns a rung name into a metric name part: the chain's
// suffix goes (the prefix already names the chain), dots become
// underscores.
func rungMetric(rung, chainSuffix string) string {
	return strings.ReplaceAll(strings.TrimSuffix(rung, chainSuffix), ".", "_")
}

// tracePass is the whole traced run of one workload: its own entry point
// untraced over the ladder's prefix, every rung of the ladder over the
// same prefix, and the layer probes.
func tracePass(rep *report, e env, cfg runConfig) {
	spans := &spanLog{}
	ref, tenants, digest := e.traced(rep, spans)
	stop := cfg.size(ladderBase)
	if tenants == nil {
		m, err := newModel(steadyModel(kindV2))
		if err != nil {
			rep.violate("ladder: %v", err)
			return
		}
		for i := 0; i < tenantsPerRun; i++ {
			tenants = append(tenants, newTenant(m, tenantName(i), tenantSeed(cfg.seed, i), ladderIters))
		}
		if d, err := prefixDigest(tenants[0], stop); err == nil {
			digest = d
		}
	}
	rungs := runLadder(rep, tenants, stop, spans)
	ladderLayer(rep, rungs, ref, digest)
	m := tenants[0].m
	probeGovernorParts(rep, m, cfg.seed)
	probeBrokerAndServer(rep, m, cfg.seed)
	probeClientOpen(rep, m, cfg.seed)
	probeRecovery(rep, cfg, spans)
	probeWire(rep)
	probeCluster(rep, cfg.outDir)
	probeQoSAndMeter(rep)
	if !hasLayer(rep, "telemetry.series") {
		probeTelemetry(rep, nil)
	}
	probeLibrary(rep)
	rep.layer = append(rep.layer, rep.proc...)
	if path, err := spans.write(cfg.outDir, rep.workload); err != nil {
		rep.violate("writing spans: %v", err)
	} else {
		rep.note("%d spans written to %s", len(spans.spans), path)
	}
	orderLayer(rep)
}

func hasLayer(rep *report, name string) bool {
	for _, v := range rep.layer {
		if v.name == name {
			return true
		}
	}
	return false
}

// orderLayer puts the per-layer metrics in layerDefs order, so every
// workload reports the same names in the same order; a metric this run
// had nothing to measure for reads 0.
func orderLayer(rep *report) {
	got := map[string]value{}
	for _, v := range rep.layer {
		got[v.name] = v
	}
	rep.layer = rep.layer[:0]
	for _, d := range layerDefs {
		v, ok := got[d.name]
		if !ok {
			v = value{name: d.name, unit: d.unit}
		}
		delete(got, d.name)
		rep.layer = append(rep.layer, v)
	}
	for name := range got {
		rep.violate("per-layer metric %s is reported but not registered in layerDefs", name)
	}
}

// prefixDigest is the digest of the tenant's first n decisions through
// the library path.
func prefixDigest(t *tenant, n int) (uint64, error) {
	probe := t.fresh()
	l, err := newOnlineLink(probe)
	if err != nil {
		return 0, err
	}
	r := drive(probe, l, 0, n, timeSampled)
	if r.err != nil {
		return 0, r.err
	}
	return probe.digest, nil
}
