package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"

	"jouleguard"
	"jouleguard/internal/apps"
	"jouleguard/internal/client"
	"jouleguard/internal/cluster"
	"jouleguard/internal/control"
	"jouleguard/internal/experiments"
	"jouleguard/internal/guard"
	"jouleguard/internal/learning"
	"jouleguard/internal/measure"
	"jouleguard/internal/par"
	"jouleguard/internal/qos"
	"jouleguard/internal/server"
	"jouleguard/internal/telemetry"
	"jouleguard/internal/wire"
)

// The layer probes time each layer's exported calls from outside, one
// layer at a time, on inputs fixed by the seed. They run in the traced
// pass of every workload, so a per-layer number exists for every
// workload and is comparable between them.

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink float64

// timeOp runs f n times and returns the mean nanoseconds per call.
func timeOp(n int, f func(i int)) float64 {
	t0 := nowNS()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(nowNS()-t0) / float64(n)
}

// medianOp times rounds batches of n calls and returns the median of the
// batch means: one disturbed batch does not move a probe.
func medianOp(rounds, n int, f func(i int)) float64 {
	v := make([]float64, rounds)
	for r := range v {
		v[r] = timeOp(n, func(i int) { f(r*n + i) })
	}
	return median(v)
}

// probeGovernorParts times the estimator, controller and sensing guard
// the governor is built from.
func probeGovernorParts(rep *report, m *model, seed int64) {
	arms := m.tb.Platform.NumConfigs()
	priors := m.tb.Platform.Priors(m.tb.Profile)
	b, err := learning.NewBandit(arms, 0.85, priors, rand.New(rand.NewSource(seed)))
	if err != nil {
		rep.violate("learning probe: %v", err)
		return
	}
	const n = 20000
	rep.addLayer("learning.observe_ns", "ns", medianOp(5, n, func(i int) {
		arm := i % arms
		e, _ := b.Observe(arm, m.rate[arm]*(1+0.01*float64(i%7)), m.power[arm])
		sink += e
	}), 5*n)
	rep.addLayer("learning.best_arm_ns", "ns", medianOp(5, n/10, func(int) { sink += float64(b.BestArm()) }), 5*n/10)

	c := control.NewSpeedupController()
	rep.addLayer("control.step_ns", "ns", medianOp(5, n, func(i int) {
		sink += c.Step(10, 9+0.1*float64(i%20), 10)
	}), 5*n)

	g := guard.New(guard.Config{ModelPower: m.tb.DefaultPower})
	rep.addLayer("guard.observe_ns", "ns", medianOp(5, n, func(i int) {
		sink += g.Observe(m.tb.DefaultPower*(1+0.001*float64(i%5)), 0.01).Power
	}), 5*n)
}

// probeBrokerAndServer times the session lifecycle calls and the
// broker's ledger calls on a daemon holding nothing else.
func probeBrokerAndServer(rep *report, m *model, seed int64) {
	const n = 200
	t := newTenant(m, "probe", tenantSeed(seed, 99), 1000)
	srv, err := server.New(server.Config{GlobalBudgetJ: t.budgetJ * n * 4, SweepInterval: -1})
	if err != nil {
		rep.violate("server probe: %v", err)
		return
	}
	reg, cls := make([]float64, 0, n), make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := nowNS()
		resp, err := srv.Register(registerRequest(t))
		t1 := nowNS()
		if err != nil {
			rep.violate("server probe register: %v", err)
			return
		}
		if _, err := srv.Close(resp.SessionID); err != nil {
			rep.violate("server probe close: %v", err)
			return
		}
		reg, cls = append(reg, float64(t1-t0)), append(cls, float64(nowNS()-t1))
	}
	rep.addLayer("server.register_us", "us", median(reg)/1e3, n)
	rep.addLayer("server.close_us", "us", median(cls)/1e3, n)

	b, err := server.NewBroker(1e12, 0)
	if err != nil {
		rep.violate("broker probe: %v", err)
		return
	}
	b.Instrument(telemetry.NewRegistry())
	rep.addLayer("broker.admit_release_us", "us", medianOp(5, 2000, func(int) {
		g, err := b.Admit("probe", 1, 1000)
		if err == nil {
			b.Release(g, 999)
		}
	})/1e3, 10000)
	rep.addLayer("broker.note_spend_ns", "ns", medianOp(5, 20000, func(int) { b.NoteSpend("probe", 0.5, 0.01) }), 100000)
}

// probeRecovery times snapshot, restore, export and adopt on two
// sessions of a fixed modest length, so the figures are comparable
// across workloads (recover_long measures the long-log case end to end).
func probeRecovery(rep *report, cfg runConfig, spans *spanLog) {
	e, err := setupRecover(cfg, 20000)
	if err != nil {
		rep.violate("recovery probe: %v", err)
		return
	}
	sub := &report{}
	ph := e.cycles(sub, 3, spans)
	rep.violations = append(rep.violations, sub.violations...)
	rep.addLayer("server.snapshot_ms", "ms", ph.snapshot*1e3, ph.cycles)
	rep.addLayer("server.restore_ms", "ms", ph.restore*1e3, ph.cycles)
	rep.addLayer("server.adopt_ms", "ms", ph.adopt*1e3, ph.cycles)
	rep.addLayer("server.export_us", "us", ph.export*1e6, ph.cycles)
	rep.addLayer("server.log_bytes_per_iter", "B", float64(e.buf.Len())/float64(max(sub.records, 1)), sub.records)
}

// probeWire times the two codecs on one iteration's worth of messages.
func probeWire(rep *report) {
	done := wire.DoneRequest{NowS: 12.5, EnergyJ: 3456.75, Accuracy: 0.987}
	next := wire.NextRequest{NowS: 12.5}
	dresp := wire.DoneResponse{IterationsDone: 1234, SpentJ: 3456.75, GrantRemainingJ: 1000.25}
	nresp := wire.NextResponse{Iter: 1234, AppConfig: 17, SysConfig: 901}
	const n = 20000

	var req, rsp bytes.Buffer
	enc, renc := wire.NewEncoder(&req), wire.NewEncoder(&rsp)
	rep.addLayer("wire.v2_encode_ns", "ns", medianOp(5, n, func(int) {
		req.Reset()
		rsp.Reset()
		_ = enc.DoneNext(7, &done, &next) // a bytes.Buffer cannot fail
		_ = enc.Flush()
		_ = renc.DoneNextResp(7, dresp, nresp)
		_ = renc.Flush()
	}), 5*n)
	rep.addLayer("wire.v2_bytes_per_iter", "B", float64(req.Len()+rsp.Len()), 1)
	reqB, rspB := append([]byte(nil), req.Bytes()...), append([]byte(nil), rsp.Bytes()...)
	var rr, rs bytes.Reader
	dec, rdec := wire.NewDecoder(&rr), wire.NewDecoder(&rs)
	rep.addLayer("wire.v2_decode_ns", "ns", medianOp(5, n, func(int) {
		rr.Reset(reqB)
		rs.Reset(rspB)
		if h, p, err := dec.ReadFrame(); err == nil {
			d, _, _ := wire.ParseDoneNext(h, p)
			sink += d.EnergyJ
		}
		if h, p, err := rdec.ReadFrame(); err == nil {
			_, nx, _ := wire.ParseDoneNextResp(h, p)
			sink += float64(nx.SysConfig)
		}
	}), 5*n)

	bytesV1 := 0
	rep.addLayer("wire.v1_json_codec_ns", "ns", medianOp(5, n/4, func(int) {
		bytesV1 = 0
		for _, pair := range [][2]any{{done, &wire.DoneRequest{}}, {dresp, &wire.DoneResponse{}}, {next, &wire.NextRequest{}}, {nresp, &wire.NextResponse{}}} {
			b, err := json.Marshal(pair[0])
			if err == nil {
				_ = json.Unmarshal(b, pair[1]) // round trip of a value just marshalled
			}
			bytesV1 += len(b)
		}
	}), 5*n/4)
	rep.addLayer("wire.v1_bytes_per_iter", "B", float64(bytesV1), 1)
}

// probeCluster times the coordinator's placement and WAL replay on a
// one-node fleet of its own.
func probeCluster(rep *report, outDir string) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		rep.violate("cluster probe: %v", err)
		return
	}
	walPath := filepath.Join(outDir, "probe.wal")
	_ = os.Remove(walPath) // a stale log from an earlier run would be replayed
	defer os.Remove(walPath)
	coord, err := cluster.New(cluster.Config{FleetBudgetJ: 1e9, LeaseTTL: fleetLeaseTTL, SweepInterval: -1, WALPath: walPath})
	if err != nil {
		rep.violate("cluster probe: %v", err)
		return
	}
	if _, err := coord.Join(wire.JoinRequest{Node: "probe-node", Addr: "http://127.0.0.1:1"}); err != nil {
		rep.violate("cluster probe join: %v", err)
		coord.Stop()
		return
	}
	const n = 500
	keys := make([]string, n)
	for i := range keys {
		keys[i] = "probe-key-" + formatValue(float64(i))
	}
	rep.addLayer("cluster.place_us", "us", timeOp(n, func(i int) {
		if _, err := coord.Place(keys[i]); err != nil {
			sink++
		}
	})/1e3, n)
	coord.Stop()

	replay, err := cluster.New(cluster.Config{FleetBudgetJ: 1e9, LeaseTTL: fleetLeaseTTL, SweepInterval: -1})
	if err != nil {
		rep.violate("cluster probe: %v", err)
		return
	}
	defer replay.Stop()
	t0 := nowNS()
	if _, err := replay.ReplayWALFile(walPath); err != nil {
		rep.violate("cluster probe WAL replay: %v", err)
		return
	}
	rep.addLayer("cluster.replay_wal_ms", "ms", float64(nowNS()-t0)/1e6, n+2)
}

// probeQoSAndMeter times the tenant-protection gate and the measurement
// service: layers that sit on the hot path but get no workload of their
// own (their faulted runs are timer-driven and do not repeat).
func probeQoSAndMeter(rep *report) {
	q := qos.New(qos.Config{})
	const n = 50000
	rep.addLayer("qos.check_next_ns", "ns", medianOp(5, n, func(i int) {
		if q.CheckNext("tenant-00", int64(i)) != nil {
			sink++
		}
	}), 5*n)
	obs := make([]qos.Observation, churnPoolSize)
	for i := range obs {
		obs[i] = qos.Observation{Tenant: "churn-" + formatValue(float64(i)), Overrun: 0.5, BurnW: 10, Sessions: 1}
	}
	qe := qos.New(qos.Config{Enabled: true})
	rep.addLayer("qos.observe_us", "us", medianOp(5, 20, func(int) {
		sink += float64(len(qe.Observe(obs, 0.5).Kill))
	})/1e3, 100)

	clock := measure.NewVirtualClock()
	meter := measure.NewSimMeter(measure.SimConfig{Seed: 1, Now: clock.Now})
	svc := measure.NewService(measure.ServiceConfig{Meter: meter, Now: clock.Now, MinPowerW: -1})
	rep.addLayer("measure.sample_us", "us", medianOp(5, 2000, func(int) {
		meter.Deposit(0.05)
		clock.Advance(0.01)
		svc.Sample()
	})/1e3, 10000)
	rep.addLayer("measure.window_ns", "ns", medianOp(5, 20000, func(int) {
		svc.OpenWindow("probe", 1)
		j, _ := svc.CloseWindow("probe")
		sink += j
	}), 100000)
}

// probeTelemetry times the decision recorder and one /metrics render of
// the daemon the workload ran against (nil: a fresh sink).
func probeTelemetry(rep *report, tel *telemetry.Telemetry) {
	fresh := telemetry.New(0)
	rep.addLayer("telemetry.record_decision_ns", "ns", medianOp(5, 20000, func(i int) {
		fresh.RecordDecision(telemetry.Decision{Iter: i, AppConfig: 3, SysConfig: 5, Sane: true, GuardAccepted: true})
	}), 100000)
	if tel == nil {
		tel = fresh
	}
	var buf bytes.Buffer
	t0 := nowNS()
	if err := tel.Registry.WritePrometheus(&buf); err != nil {
		rep.violate("telemetry scrape: %v", err)
		return
	}
	rep.addLayer("telemetry.scrape_ms", "ms", float64(nowNS()-t0)/1e6, 1)
	series := 0
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if len(line) > 0 && line[0] != '#' {
			series++
		}
	}
	rep.addLayer("telemetry.series", "count", float64(series), 1)
}

// probeLibrary times the layers under the experiment drivers: the
// application kernels, the platform model, the simulator and one cell
// of the paper's matrix.
func probeLibrary(rep *report) {
	total, kernels := 0.0, 0
	for _, name := range apps.Names() {
		app, err := apps.New(name)
		if err != nil {
			rep.violate("apps probe: %v", err)
			return
		}
		total += medianOp(3, 4, func(i int) {
			w, _ := app.Step(app.DefaultConfig(), i)
			sink += w
		})
		kernels++
	}
	rep.addLayer("apps.step_us", "us", total/float64(kernels)/1e3, kernels*12)

	tb, err := jouleguard.NewTestbed("radar", "Server")
	if err != nil {
		rep.violate("library probe: %v", err)
		return
	}
	ncfg := tb.Platform.NumConfigs()
	rep.addLayer("platform.rate_ns", "ns", medianOp(5, 20000, func(i int) {
		sink += tb.Platform.Rate(i%ncfg, tb.Profile)
	}), 100000)

	const iters = 400
	gov, err := tb.NewJouleGuard(budgetFactor, iters, jouleguard.Options{})
	if err != nil {
		rep.violate("sim probe: %v", err)
		return
	}
	t0 := nowNS()
	if _, err := tb.Run(gov, iters); err != nil {
		rep.violate("sim probe: %v", err)
		return
	}
	rep.addLayer("sim.run_iter_ns", "ns", float64(nowNS()-t0)/iters, iters)

	t0 = nowNS()
	if _, err := experiments.RunJouleGuard("radar", "Tablet", budgetFactor, 1.0, jouleguard.Options{}); err != nil {
		rep.violate("sweep cell probe: %v", err)
		return
	}
	rep.addLayer("experiments.sweep_cell_ms", "ms", float64(nowNS()-t0)/1e6, 1)
	rep.addLayer("par.workers", "count", float64(par.Workers()), 1)
}

// probeClientOpen times client.Open against a loopback daemon.
func probeClientOpen(rep *report, m *model, seed int64) {
	const n = 50
	t := newTenant(m, "probe", tenantSeed(seed, 98), 1000)
	d, err := startDaemon(t.budgetJ * n * 4)
	if err != nil {
		rep.violate("client probe: %v", err)
		return
	}
	defer d.stop()
	opens := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		opts := clientOptions(t)
		opts.BaseURL = d.url
		t0 := nowNS()
		sess, err := client.Open(context.Background(), opts, t.readEnergy, t.now)
		if err != nil {
			rep.violate("client probe open: %v", err)
			return
		}
		opens = append(opens, float64(nowNS()-t0))
		_ = sess.Close(context.Background()) // probe session; the open time is the result
	}
	rep.addLayer("client.open_us", "us", median(opens)/1e3, n)
}

// allocsDuring reports heap allocations per operation across f.
func allocsDuring(ops int, f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(max(ops, 1))
}
