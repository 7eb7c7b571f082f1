package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"jouleguard"
	"jouleguard/internal/apps"
	"jouleguard/internal/client"
	"jouleguard/internal/experiments"
	"jouleguard/internal/par"
	"jouleguard/internal/platform"
	"jouleguard/internal/server"
	"jouleguard/internal/wire"
)

// ---------------------------------------------------------------------
// session_churn

const (
	churnWorkers  = tenantsPerRun
	churnIters    = 32   // governed iterations per session
	churnPoolSize = 1024 // distinct tenant names
)

// churnEnv is the daemon the churn workers register against.
type churnEnv struct {
	cfg      runConfig
	d        *daemon
	models   []*model
	sessions int // per worker
}

func setupChurn(cfg runConfig, baseSessions int) (*churnEnv, error) {
	e := &churnEnv{cfg: cfg, sessions: cfg.size(baseSessions)}
	for _, k := range []steadyKind{kindV2, kindCluster} {
		m, err := newModel(steadyModel(k))
		if err != nil {
			return nil, err
		}
		e.models = append(e.models, m)
	}
	// Every closed session's spend stays booked as consumed, so the pool
	// must cover the whole run's grants, not just the two live ones.
	perSession := 0.0
	for _, m := range e.models {
		perSession = math.Max(perSession, m.budget(churnIters))
	}
	d, err := startDaemon(perSession * float64(churnWorkers*e.sessions+4) * server.DefaultReserve * 2)
	if err != nil {
		return nil, err
	}
	e.d = d
	return e, nil
}

func (e *churnEnv) close() { e.d.stop() }

// churnResult is one worker's run.
type churnResult struct {
	err       error
	calls     int
	sessions  int
	stamps    [segments + 1]instant
	segN      [segments]int
	openNS    [segments][]float64
	overGrant []float64 // spent/grant of every lifecycle
	accSum    float64
}

// churnSession is the s-th lifecycle of worker w: the tenant name and
// application are drawn from the run seed alone.
func (e *churnEnv) churnSession(w, s int) *tenant {
	x := splitmix64(uint64(e.cfg.seed)*7919 + uint64(w)<<32 + uint64(s))
	m := e.models[x%uint64(len(e.models))]
	name := fmt.Sprintf("churn-%04d", (x>>8)%churnPoolSize)
	return newTenant(m, name, tenantSeed(e.cfg.seed, w*e.sessions+s), churnIters)
}

// worker runs total lifecycles; stop > 0 ends it early (see drive).
func (e *churnEnv) worker(w, total, stop int, spans *spanLog) *churnResult {
	r := &churnResult{}
	ctx := context.Background()
	warm := warmIters(total)
	bounds := splitEven(total-warm, segments)
	if stop > 0 && stop < total {
		total = stop
	}
	for s := range r.segN {
		r.segN[s] = bounds[s+1] - bounds[s]
		r.openNS[s] = make([]float64, 0, r.segN[s])
	}
	seg, nextBound := -1, warm
	for s := 0; s < total; s++ {
		if s == nextBound {
			seg++
			r.stamps[seg] = mark()
			nextBound = warm + bounds[seg+1]
		}
		t := e.churnSession(w, s)
		opts := clientOptions(t)
		opts.BaseURL = e.d.url
		t0 := nowNS()
		r.calls++
		sess, err := client.Open(ctx, opts, t.readEnergy, t.now)
		t1 := nowNS()
		if err != nil {
			r.err = fmt.Errorf("worker %d session %d (%s) open: %w", w, s, t.name, err)
			return r
		}
		r.calls++
		app, sys, err := sess.Next(ctx)
		for i := 0; err == nil && i < churnIters; i++ {
			acc := t.exec(app, sys)
			r.calls++
			if i == churnIters-1 {
				err = sess.Done(ctx, acc)
				break
			}
			app, sys, err = sess.DoneNext(ctx, acc)
		}
		if err != nil {
			r.err = fmt.Errorf("worker %d session %d (%s): %w", w, s, t.name, err)
			return r
		}
		t2 := nowNS()
		r.calls++
		if err := sess.Close(ctx); err != nil {
			r.err = fmt.Errorf("worker %d session %d (%s) close: %w", w, s, t.name, err)
			return r
		}
		t3 := nowNS()
		if seg >= 0 {
			r.openNS[seg] = append(r.openNS[seg], float64(t1-t0))
		}
		if spans != nil && s%sampleEvery == 0 {
			life := spans.add("churn.session", -1, w, s, t0, t3)
			spans.add("client.open", life, w, s, t0, t1)
			spans.add("client.iterations", life, w, s, t1, t2)
			spans.add("client.close", life, w, s, t2, t3)
		}
		if g := sess.GrantJ(); g > 0 {
			r.overGrant = append(r.overGrant, sess.LastStatus().SpentJ/g)
		}
		r.accSum += t.accSum / churnIters
		r.sessions++
	}
	r.stamps[segments] = mark()
	return r
}

func (e *churnEnv) drive(total, stop int, spans *spanLog) []*churnResult {
	rs := make([]*churnResult, churnWorkers)
	var wg sync.WaitGroup
	for w := range rs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rs[w] = e.worker(w, total, stop, spans)
		}(w)
	}
	wg.Wait()
	return rs
}

func (e *churnEnv) run(rep *report) {
	if e.cfg.setupOnly {
		for _, r := range e.drive(e.sessions, warmIters(e.sessions), nil) {
			if r.err != nil {
				rep.violate("warm-up: %v", r.err)
			}
		}
		rep.add("setup_s", setupSeconds(mark()), 1)
		return
	}
	before := readProc()
	rs := e.drive(e.sessions, 0, nil)
	after := readProc()
	e.summarise(rep, rs)
	rep.add("heap_mb", liveHeapMB(), 1)
	rep.procDelta(before, after, rep.ops)
}

func (e *churnEnv) summarise(rep *report, rs []*churnResult) {
	var first *instant
	rates := make([]float64, segments)
	opens := make([][]float64, segments)
	sessions, acc := 0, 0.0
	var over []float64
	for _, r := range rs {
		rep.attempted += r.calls
		if r.err != nil {
			rep.failed++
			rep.violate("churn error: %v", r.err)
			continue
		}
		if first == nil || r.stamps[0].ns < first.ns {
			first = &r.stamps[0]
		}
		for s := 0; s < segments; s++ {
			if dt := netNS(r.stamps[s], r.stamps[s+1]); dt > 0 {
				rates[s] += float64(r.segN[s]) / (dt / 1e9)
			}
			opens[s] = append(opens[s], r.openNS[s]...)
		}
		sessions += r.sessions
		over = append(over, r.overGrant...)
		acc += r.accSum
	}
	if first != nil {
		rep.add("setup_s", setupSeconds(*first), 1)
	}
	rep.ops, rep.lanes = sessions, churnWorkers
	rep.add("sessions_per_s", median(rates), sessions)
	if q, ok := segmentQuantiles(opens); ok {
		rep.add("register_p99_us", q.p99/1e3, q.n)
		rep.opMid, rep.opP90 = q.mid/1e3, q.p90/1e3
	}
	rep.add("fail_ratio", float64(rep.failed)/float64(max(rep.attempted, 1)), rep.attempted)
	// The 99th percentile of the lifecycles, not their maximum: the worst
	// of many thousand 32-iteration sessions is an extreme value and moves
	// with the seed. Beyond the limit it is a result, not a violation: 32
	// iterations are too few for the governor to converge on its budget
	// (README.md). The broker's ledger, checked next, still holds.
	sort.Float64s(over)
	if len(over) > 0 {
		rep.overGrant = quantile(over, 0.99)
		rep.note("churn sessions spent %.2f%% of their grant at the 99th percentile, %.2f%% at worst",
			100*rep.overGrant, 100*over[len(over)-1])
	}
	rep.accuracy = acc / float64(max(sessions, 1))
	info := e.d.srv.Broker().Info()
	checkBroker(rep, info)
	if info.Active != 0 {
		rep.violate("%d sessions still hold budget after every lifecycle closed", info.Active)
	}
}

// ---------------------------------------------------------------------
// recover_long

const (
	// recoverIters is each session's logged iterations. Snapshot and
	// Restore are super-linear in it, so the run length scales the number
	// of cycles and leaves the log alone.
	recoverIters  = 100000
	recoverCycles = 7 // at the reference run length
)

// recoverEnv holds the source daemon whose long-lived sessions every
// recovery path must rebuild.
type recoverEnv struct {
	cfg     runConfig
	src     *server.Server
	globalJ float64
	tenants []*tenant
	want    []server.SessionExport // the source's ledger, logs trimmed away
	buf     bytes.Buffer
}

func setupRecover(cfg runConfig, baseIters int) (*recoverEnv, error) {
	m, err := newModel(steadyModel(kindInproc))
	if err != nil {
		return nil, err
	}
	e := &recoverEnv{cfg: cfg}
	iters := baseIters
	if cfg.smoke {
		iters = cfg.size(baseIters)
	}
	for i := 0; i < tenantsPerRun; i++ {
		e.tenants = append(e.tenants, newTenant(m, tenantName(i), tenantSeed(cfg.seed, i), iters))
	}
	e.globalJ = poolFor(e.tenants)
	if e.src, err = server.New(server.Config{GlobalBudgetJ: e.globalJ, SweepInterval: -1}); err != nil {
		return nil, err
	}
	// Build the history untimed: every session settles all but its last
	// iteration, so the restored sessions are live, not complete.
	links := make([]link, len(e.tenants))
	for i, t := range e.tenants {
		req := registerRequest(t)
		req.Key = "recover-" + t.name // Adopt accepts only keyed sessions
		resp, err := e.src.Register(req)
		if err != nil {
			return nil, err
		}
		links[i] = &serverLink{srv: e.src, id: resp.SessionID, grant: resp.GrantJ}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(links))
	for i := range links {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = settle(e.tenants[i], links[i], e.tenants[i].iters-1)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	e.want = trimmedExport(e.src)
	// Pre-size the snapshot buffer so the timed Snapshot never grows it.
	if err := e.src.Snapshot(&e.buf); err != nil {
		return nil, err
	}
	return e, nil
}

// settle runs n whole iterations over the link, leaving it idle.
func settle(t *tenant, l link, n int) error {
	for i := 0; i < n; i++ {
		app, sys, err := l.next(t)
		if err != nil {
			return err
		}
		if err := l.done(t, t.exec(app, sys)); err != nil {
			return err
		}
	}
	return nil
}

// trimmedExport is the server's per-session ledger without the logs.
func trimmedExport(s *server.Server) []server.SessionExport {
	from := map[string]int{}
	for _, x := range s.Export(map[string]int{}) {
		from[x.ID] = x.Done
	}
	return s.Export(from)
}

func (e *recoverEnv) close() {}

func fresh(globalJ float64) (*server.Server, error) {
	return server.New(server.Config{GlobalBudgetJ: globalJ, SweepInterval: -1})
}

// cycle runs one snapshot -> restore -> export -> adopt round and
// returns the seconds each phase took, net of the hypervisor's share
// over the whole cycle (a single phase is too short for the box's
// 10 ms CPU accounting to resolve).
func (e *recoverEnv) cycle(rep *report, c int, spans *spanLog) (snap, rest, exp, adopt float64, err error) {
	e.buf.Reset()
	cpu0 := readCPUStat()
	t0 := nowNS()
	if err = e.src.Snapshot(&e.buf); err != nil {
		return
	}
	t1 := nowNS()
	r1, err := fresh(e.globalJ)
	if err != nil {
		return
	}
	t2 := nowNS()
	if err = r1.Restore(bytes.NewReader(e.buf.Bytes())); err != nil {
		return
	}
	t3 := nowNS()
	exports := r1.Export(nil)
	t4 := nowNS()
	r2, err := fresh(e.globalJ)
	if err != nil {
		return
	}
	t5 := nowNS()
	for _, x := range exports {
		rep.attempted++
		if _, err = r2.Adopt(wire.AdoptSession{Key: x.Key, Reg: x.Reg, GrantJ: x.GrantJ, SpentJ: x.SpentJ, Log: x.NewIters}); err != nil {
			return
		}
	}
	t6 := nowNS()
	given := givenShare(cpu0, readCPUStat())
	rep.attempted += 3
	e.compare(rep, "restored", trimmedExport(r1))
	e.compare(rep, "adopted", trimmedExport(r2))
	if spans != nil {
		root := spans.add("recover.cycle", -1, 0, c, t0, t6)
		spans.add("server.snapshot", root, 0, c, t0, t1)
		spans.add("server.restore", root, 0, c, t2, t3)
		spans.add("server.export", root, 0, c, t3, t4)
		spans.add("server.adopt", root, 0, c, t5, t6)
	}
	sec := func(a, b int64) float64 { return float64(b-a) / 1e9 * given }
	return sec(t0, t1), sec(t2, t3), sec(t3, t4), sec(t5, t6), nil
}

// compare checks a rebuilt daemon's sessions against the source's:
// same spend to the bit, same iteration count.
func (e *recoverEnv) compare(rep *report, what string, got []server.SessionExport) {
	if len(got) != len(e.want) {
		rep.violate("%s daemon has %d sessions, source has %d", what, len(got), len(e.want))
		return
	}
	byKey := map[string]server.SessionExport{}
	for _, x := range got {
		byKey[x.Key] = x
	}
	for _, w := range e.want {
		g, ok := byKey[w.Key]
		switch {
		case !ok:
			rep.violate("%s daemon lost session %s", what, w.Key)
		case g.Done != w.Done || g.SpentJ != w.SpentJ:
			rep.violate("%s session %s reports %d iterations / %.17g J, source %d / %.17g J",
				what, w.Key, g.Done, g.SpentJ, w.Done, w.SpentJ)
		}
	}
}

func (e *recoverEnv) run(rep *report) {
	rep.add("setup_s", setupSeconds(mark()), 1)
	if e.cfg.setupOnly {
		return
	}
	before := readProc()
	e.cycles(rep, max(int(math.Round(recoverCycles*e.cfg.seconds/refSeconds)), 3), nil)
	after := readProc()
	rep.add("heap_mb", liveHeapMB(), 1)
	rep.procDelta(before, after, rep.ops)
}

// phases is the seconds each recovery phase took: the median over the
// cycles.
type phases struct {
	snapshot, restore, export, adopt float64
	cycles                           int
}

// cycles runs n recovery cycles and reports the phase times as the
// workload's end-to-end metrics.
func (e *recoverEnv) cycles(rep *report, n int, spans *spanLog) phases {
	var snaps, rests, exps, adopts []float64
	for c := 0; c < n; c++ {
		s, r, x, a, err := e.cycle(rep, c, spans)
		if err != nil {
			rep.failed++
			rep.violate("recovery cycle %d: %v", c, err)
			break
		}
		snaps, rests, exps, adopts = append(snaps, s), append(rests, r), append(exps, x), append(adopts, a)
	}
	over, acc := 0.0, 0.0
	rep.records = 0
	for i, w := range e.want {
		rep.records += w.Done
		if w.GrantJ > 0 {
			over = math.Max(over, w.SpentJ/w.GrantJ)
		}
		acc += e.tenants[i].accSum / float64(max(e.tenants[i].done, 1))
	}
	rep.ops, rep.lanes = rep.records*len(snaps), 1
	rep.overGrant, rep.accuracy = over, acc/float64(len(e.want))
	rep.add("fail_ratio", float64(rep.failed)/float64(max(rep.attempted, 1)), rep.attempted)
	checkBroker(rep, e.src.Broker().Info())
	if len(snaps) == 0 {
		return phases{}
	}
	ph := phases{snapshot: median(snaps), restore: median(rests), export: median(exps), adopt: median(adopts), cycles: len(snaps)}
	rep.add("snapshot_s", ph.snapshot, ph.cycles)
	rep.add("restore_s", ph.restore, ph.cycles)
	rep.add("adopt_s", ph.adopt, ph.cycles)
	return ph
}

// ---------------------------------------------------------------------
// paper_sweep

// sweepFeasibleCells is the number of (application, platform, factor)
// cells of the paper's matrix the oracle deems feasible. It depends on
// the calibrated frontiers and platform models alone, never on run
// length or seed.
const sweepFeasibleCells = 190

type sweepEnv struct {
	cfg runConfig
}

// setupSweep calibrates every (application, platform) testbed and its
// oracle — what a library user pays once per process before any run.
func setupSweep(cfg runConfig) (*sweepEnv, error) {
	for _, p := range platform.Names() {
		for _, a := range apps.Names() {
			tb, err := jouleguard.NewTestbed(a, p)
			if err != nil {
				return nil, err
			}
			if _, err := tb.NewOracle(); err != nil {
				return nil, err
			}
		}
	}
	return &sweepEnv{cfg: cfg}, nil
}

func (e *sweepEnv) close() {}

// scale is the run-length scale handed to the sweep: 1.0 (the paper's
// run lengths) at the reference run length.
func (e *sweepEnv) scale() float64 {
	if e.cfg.smoke {
		return 0.001 // clamped by the drivers to their 50-iteration floor
	}
	return e.cfg.seconds / refSeconds
}

func (e *sweepEnv) run(rep *report) {
	rep.add("setup_s", setupSeconds(mark()), 1)
	if e.cfg.setupOnly {
		return
	}
	before := readProc()
	e.sweep(rep, nil)
	after := readProc()
	rep.procDelta(before, after, rep.ops)
}

func (e *sweepEnv) sweep(rep *report, spans *spanLog) {
	t0 := mark()
	cells, err := experiments.Sweep(nil, e.scale())
	t1 := mark()
	rep.attempted = max(len(cells), 1)
	if err != nil {
		rep.failed++
		rep.violate("sweep: %v", err)
		return
	}
	if spans != nil {
		spans.add("experiments.sweep", -1, 0, 0, t0.ns, t1.ns)
	}
	feasible, iters := 0, 0
	relErr, effAcc, worst := 0.0, 0.0, 0.0
	for _, c := range cells {
		iters += c.Iterations
		if !c.Feasible {
			continue
		}
		feasible++
		relErr += c.RelativeError
		effAcc += c.EffectiveAccuracy
		worst = math.Max(worst, c.EnergyPerIter/c.GoalPerIter)
	}
	if feasible != sweepFeasibleCells {
		rep.violate("sweep has %d feasible cells, the paper's matrix has %d", feasible, sweepFeasibleCells)
	}
	rep.ops, rep.lanes = iters, par.Workers()
	rep.add("fail_ratio", 0, len(cells))
	rep.add("sweep_s", netNS(t0, t1)/1e9, 1)
	rep.add("rel_err_mean_pct", relErr/float64(max(feasible, 1)), feasible)
	rep.add("eff_acc_mean", effAcc/float64(max(feasible, 1)), feasible)
	rep.add("heap_mb", liveHeapMB(), 1)
	rep.overGrant, rep.accuracy = worst, effAcc/float64(max(feasible, 1))
}

// traced runs a fifth of the lifecycles untraced and a fifth with spans:
// the difference is what recording spans costs here.
func (e *churnEnv) traced(rep *report, spans *spanLog) (reference, []*tenant, uint64) {
	part := max(e.sessions/5, 2*segments)
	rate := func(rs []*churnResult) float64 {
		sub := &report{}
		e.summarise(sub, rs)
		rep.violations = append(rep.violations, sub.violations...)
		rep.attempted += sub.attempted
		rep.failed += sub.failed
		v, _ := sub.get("sessions_per_s")
		return v
	}
	before := readProc()
	plain := rate(e.drive(part, 0, nil))
	after := readProc()
	rep.procDelta(before, after, part*churnWorkers)
	withSpans := rate(e.drive(part, 0, spans))
	if plain > 0 {
		rep.addLayer("trace.overhead_pct", "%", 100*(plain-withSpans)/plain, 1)
	}
	rep.addLayer("client.retries", "count", float64(clientRetries.Load()), 1)
	views, _ := e.d.srv.Broker().ObserveAll()
	rep.addLayer("broker.tenants", "count", float64(len(views)), 1)
	probeTelemetry(rep, e.d.srv.Telemetry())
	return reference{}, nil, 0
}

// traced runs one recovery cycle with a span around every phase.
func (e *recoverEnv) traced(rep *report, spans *spanLog) (reference, []*tenant, uint64) {
	before := readProc()
	e.cycles(rep, 1, spans)
	rep.procDelta(before, readProc(), rep.ops)
	return reference{}, nil, 0
}

// traced runs the sweep with a span around it; its cells run inside the
// library's own worker pool, out of the harness's sight.
func (e *sweepEnv) traced(rep *report, spans *spanLog) (reference, []*tenant, uint64) {
	before := readProc()
	e.sweep(rep, spans)
	rep.procDelta(before, readProc(), rep.ops)
	return reference{}, nil, 0
}
