// Command loadgen drives a jouleguardd daemon with N simulated tenants,
// each a client of its own jouleguard.Machine, and judges the run: every
// assertion a smoke target makes — each tenant within -check of its
// grant, broker and fleet conservation, failover seen, faults rejected,
// isolation held — is a non-zero exit when it fails. It measures
// nothing; latency and throughput are bench/'s.
//
// Three modes:
//
//   - -addr points it at an external daemon;
//   - selfhost (the default when -addr is empty) runs the daemon
//     in-process over a real localhost listener, so one race-detector
//     run covers server and client together. With -restart-at N the
//     selfhosted daemon is drained, snapshotted and replaced mid-run
//     once N iterations have completed across tenants — proving the
//     guarantees survive a restart while clients ride through on their
//     retry layer.
//   - -cluster runs a fleet coordinator plus -nodes member daemons
//     in-process, each on its own localhost listener, and registers
//     every tenant through the coordinator. With -kill-at N one node is
//     killed (listener closed, heartbeats stopped) once N iterations
//     have completed fleet-wide: its lease expires, the coordinator
//     escrows the unspent budget and fails its sessions over, and the
//     clients ride through on their failover path.
//
// Cross-cutting switches: -v2 moves the per-iteration traffic onto the
// v2 binary frame stream (batched DoneNext, one round trip per
// iteration). -meter sim (selfhost only) swaps the billed energy source
// for a calibrated simulated meter — tenants' wire readings become
// physical stimulus, sessions are debited only what the measurement
// service attributes — and -meter-faults injects counter spikes to prove
// the plausibility gate rejects them without billing a single corrupted
// joule.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"jouleguard"
	"jouleguard/internal/client"
	"jouleguard/internal/cluster"
	"jouleguard/internal/faults"
	"jouleguard/internal/measure"
	"jouleguard/internal/qos"
	"jouleguard/internal/server"
	"jouleguard/internal/telemetry"
	"jouleguard/internal/wire"
)

func main() {
	addr := flag.String("addr", "", "address of an external daemon (empty = selfhost)")
	tenants := flag.Int("tenants", 8, "concurrent tenants")
	iters := flag.Int("iters", 200, "iterations per tenant")
	apps := flag.String("apps", "x264", "comma-separated benchmarks, assigned round-robin")
	platName := flag.String("platform", "Server", "platform model")
	factor := flag.Float64("f", 2.0, "per-tenant energy-reduction factor (prices the absolute budget request)")
	weighted := flag.Bool("weighted", false, "request weighted shares instead of factor-priced absolute budgets")
	budget := flag.Float64("budget", 0, "selfhost: global budget in joules (0 = auto-size to fit the tenants)")
	restartAt := flag.Int("restart-at", 0, "selfhost: drain+snapshot+restart the daemon once this many iterations completed across tenants (0 = never)")
	clusterMode := flag.Bool("cluster", false, "run an in-process fleet (coordinator + -nodes member daemons) and register tenants through the coordinator")
	nodes := flag.Int("nodes", 3, "cluster: member daemons in the fleet")
	killAt := flag.Int("kill-at", 0, "cluster: kill one node once this many iterations completed fleet-wide (0 = never)")
	killCoordAt := flag.Int("kill-coordinator-at", 0, "cluster: kill the primary coordinator and promote a standby once this many iterations completed fleet-wide (0 = never)")
	traceEvery := flag.Int("trace-every", 0, "mint a distributed-trace context every N governed rounds per tenant (0 = client default 1/256; negative disables)")
	obsChk := flag.Bool("obs-check", false, "cluster: continuously audit joule provenance during the run and assert a cross-node trace join after it")
	check := flag.Float64("check", 0, "fail unless every tenant's spend <= this fraction of its grant (e.g. 1.05; 0 = report only)")
	tier := flag.String("tier", "", "QoS tier honest tenants claim at registration (guaranteed | standard | best-effort; empty = standard)")
	adversaries := flag.Int("adversaries", 0, "convert this many tenants into adversaries: each claims -adv-weight honest tenants' worth of the pool under the best-effort tier and hammers the daemon until the honest tenants finish; the run is judged by tenant isolation instead of completion")
	advWeight := flag.Float64("adv-weight", 10, "claim multiple each adversary asks for (budget in factor mode, weight in weighted mode)")
	qosEnabled := flag.Bool("qos", false, "selfhost: enable the local QoS ladder (graduated enforcement + overload shedding); implied by -adversaries")
	qosShedAt := flag.Float64("qos-shed-at", 0, "selfhost: pool-pressure threshold above which overload shedding engages (0 = default 0.97)")
	expectShed := flag.Bool("expect-shed", false, "fail unless at least one adversary session was shed (requires -adversaries)")
	seed := flag.Int64("seed", 1, "base seed; tenant i runs with seed+i")
	v2 := flag.Bool("v2", false, "speak the v2 binary frame stream with the batched DoneNext loop (default: v1 JSON/HTTP)")
	meterMode := flag.String("meter", "client", "selfhost energy source: client (tenants' wire-reported readings are debited) or sim (a calibrated simulated meter measures; client reports become physical stimulus)")
	meterFaults := flag.Bool("meter-faults", false, "with -meter sim: inject seeded counter faults into the meter and assert the plausibility gate rejects them")
	flag.Parse()
	if flag.NArg() > 0 {
		// A stray word is a mistyped flag; running without it would
		// silently test something else.
		fmt.Fprintf(os.Stderr, "loadgen: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	tracer := telemetry.NewSpanBuffer(0)
	tracer.SetNode("loadgen")
	cfg := Config{
		Tenants:         *tenants,
		Iterations:      *iters,
		Apps:            strings.Split(*apps, ","),
		Platform:        *platName,
		Seed:            *seed,
		WireV2:          *v2,
		Tier:            *tier,
		Adversaries:     *adversaries,
		AdversaryWeight: *advWeight,
		TraceEvery:      *traceEvery,
		Tracer:          tracer,
	}
	if *expectShed && *adversaries == 0 {
		fail(fmt.Errorf("loadgen: -expect-shed requires -adversaries"))
	}
	if *weighted {
		cfg.Weight = 1
	} else {
		cfg.Factor = *factor
	}

	switch *meterMode {
	case "", "client":
		if *meterFaults {
			fail(fmt.Errorf("loadgen: -meter-faults requires -meter sim"))
		}
	case "sim":
		if *addr != "" || *clusterMode {
			fail(fmt.Errorf("loadgen: -meter sim runs only against the selfhosted daemon (no -addr or -cluster)"))
		}
	default:
		fail(fmt.Errorf("loadgen: unknown -meter mode %q (want client or sim; rapl needs jouleguardd on real hardware)", *meterMode))
	}

	var sh *selfhost
	var sc *selfcluster
	if *clusterMode {
		fleetJ := *budget
		if fleetJ <= 0 {
			// Double the single-daemon sizing: failover permanently escrows
			// the dead node's unspent lease (it never rejoins to reconcile),
			// and the reassigned sessions are funded a second time from the
			// coordinator's reserve.
			fleetJ = autoBudget(cfg) * 2
		}
		var err error
		sc, err = startSelfcluster(fleetJ, *nodes, *killCoordAt > 0)
		if err != nil {
			fail(err)
		}
		cfg.CoordinatorURL = sc.baseURL()
		// Failover-aware retries: exhaust fast enough that the client asks
		// the coordinator for the new owner within the smoke-test window.
		cfg.Retry = client.RetryPolicy{MaxAttempts: 6, BaseDelay: 30 * time.Millisecond, MaxDelay: 300 * time.Millisecond}
		if *killAt > 0 {
			cfg.Kills = append(cfg.Kills, Kill{At: *killAt, Do: sc.killOne})
		}
		if *killCoordAt > 0 {
			cfg.CoordinatorURLs = []string{sc.standbyURL()}
			cfg.Kills = append(cfg.Kills, Kill{At: *killCoordAt, Do: sc.killCoordinator})
		}
		fmt.Fprintf(os.Stderr, "selfclustered fleet: coordinator on %s, %d nodes, fleet budget %.0f J\n",
			cfg.CoordinatorURL, *nodes, fleetJ)
	} else if *obsChk {
		fail(fmt.Errorf("loadgen: -obs-check requires -cluster (the trace join and provenance audit span a fleet)"))
	} else if *addr == "" {
		globalJ := *budget
		if globalJ <= 0 {
			globalJ = autoBudget(cfg)
		}
		var mo *meterOpts
		if *meterMode == "sim" {
			tb, err := jouleguard.NewTestbed(cfg.Apps[0], cfg.Platform)
			if err != nil {
				fail(err)
			}
			// Spikes tens of default-iterations tall: they land above the
			// gate's absolute power ceiling at any governed operating
			// point, so every injected one must be rejected as implausible
			// (and its negative echo as the counter going backwards) —
			// never confirmed as a level shift by a later lookalike spike.
			mo = &meterOpts{
				modelW: tb.DefaultPower,
				spikeJ: 40 * tb.DefaultEnergy,
				inject: *meterFaults,
				seed:   *seed,
			}
		}
		qcfg := qos.Config{Enabled: *qosEnabled || *adversaries > 0, ShedPressure: *qosShedAt}
		var err error
		sh, err = startSelfhost(globalJ, mo, qcfg)
		if err != nil {
			fail(err)
		}
		cfg.BaseURL = sh.baseURL()
		if *restartAt > 0 {
			go sh.restartWhen(*restartAt)
		}
		fmt.Fprintf(os.Stderr, "selfhosted daemon on %s, global budget %.0f J\n", cfg.BaseURL, globalJ)
	} else {
		cfg.BaseURL = *addr
		if !strings.HasPrefix(cfg.BaseURL, "http") {
			cfg.BaseURL = "http://" + cfg.BaseURL
		}
	}

	var obs *obsCheck
	if *obsChk {
		obs = startObsCheck(sc, tracer, cfg.Tenants)
	}

	rep, err := Run(context.Background(), cfg)
	if err != nil {
		fail(err)
	}
	fmt.Fprintln(os.Stderr, rep.Summary())
	for _, tr := range rep.Tenants {
		if tr.Err != nil {
			fmt.Fprintf(os.Stderr, "tenant %s: %v\n", tr.Tenant, tr.Err)
		}
	}
	if sh != nil {
		if sh.rig != nil {
			if err := sh.verifyMeter(); err != nil {
				fail(err)
			}
		}
		if err := sh.verifyBroker(rep); err != nil {
			fail(err)
		}
		sh.stop()
	}
	if sc != nil {
		if err := sc.verify(rep, *killAt, *killCoordAt); err != nil {
			fail(err)
		}
		if obs != nil {
			// Before sc.stop(): the trace join may need one more heartbeat
			// to carry the final trace refs to the coordinator.
			if err := obs.verify(rep); err != nil {
				fail(err)
			}
		}
		sc.stop()
	}
	if *adversaries > 0 {
		regs := 0
		for _, tr := range rep.Tenants {
			if tr.Adversary {
				regs += tr.Registrations
			}
		}
		fmt.Fprintf(os.Stderr, "enforcement: %d adversary registrations; denials throttled %d / suspended %d / shed %d\n",
			regs, rep.Throttled, rep.Suspended, rep.Shed)
		if *expectShed && rep.Shed == 0 {
			fail(fmt.Errorf("loadgen: -expect-shed: no adversary session was shed"))
		}
	}
	if *check > 0 {
		if *adversaries > 0 {
			if err := rep.CheckIsolation(*check); err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "isolation check passed: honest tenants within %.0f%% of grant, untouched by enforcement; adversaries denied\n", *check*100)
		} else {
			if err := rep.Check(*check); err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "check passed: every tenant within %.0f%% of its grant\n", *check*100)
		}
	} else if rep.Errors > 0 {
		fail(fmt.Errorf("loadgen: %d tenants reported errors", rep.Errors))
	}
}

// autoBudget sizes the selfhosted global pool so every factor-priced
// tenant fits under the broker's reserve, with a small admission margin.
func autoBudget(cfg Config) float64 {
	total := 0.0
	for i := 0; i < cfg.Tenants; i++ {
		app := cfg.Apps[i%len(cfg.Apps)]
		tb, err := jouleguard.NewTestbed(app, cfg.Platform)
		if err != nil {
			fail(err)
		}
		per := tb.DefaultEnergy * float64(cfg.Iterations)
		if cfg.Factor > 0 {
			b, err := tb.Budget(cfg.Factor, cfg.Iterations)
			if err != nil {
				fail(err)
			}
			per = b
		}
		total += per
	}
	if cfg.Adversaries > 0 {
		// An adversary claims AdversaryWeight honest tenants' worth, so
		// scale the pool by the claimed total or admission (which is
		// claim-blind while the pool fits) would reject the honest
		// tenants instead of letting the QoS ladder do its job.
		honest := float64(cfg.Tenants - cfg.Adversaries)
		adv := float64(cfg.Adversaries)
		w := cfg.AdversaryWeight
		if w <= 0 {
			w = 10
		}
		total *= (honest + adv*w) / float64(cfg.Tenants)
	}
	return total * server.DefaultReserve * 1.02
}

// selfhost runs the daemon in-process over a real localhost listener and
// can replace it mid-run (drain, snapshot, restore) while clients retry
// through the outage.
type selfhost struct {
	addr    string
	snap    string
	tel     *telemetry.Telemetry
	globalJ float64
	qos     qos.Config
	srv     *server.Server
	httpSrv *http.Server
	rig     *measure.SimBackend // -meter sim; nil bills the clients' readings
	// meterFaults is set when counter faults are injected into rig.
	meterFaults bool
}

func startSelfhost(globalJ float64, mo *meterOpts, qcfg qos.Config) (*selfhost, error) {
	dir, err := os.MkdirTemp("", "loadgen-snap-")
	if err != nil {
		return nil, err
	}
	sh := &selfhost{
		snap:    filepath.Join(dir, "jouleguardd.snap"),
		tel:     telemetry.New(4096),
		globalJ: globalJ,
		qos:     qcfg,
	}
	if mo != nil {
		sh.meterFaults = mo.inject
		sh.rig, err = buildMeterRig(sh.tel, mo)
		if err != nil {
			return nil, err
		}
	}
	srv, err := server.New(sh.serverConfig())
	if err != nil {
		return nil, err
	}
	sh.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sh.addr = ln.Addr().String()
	sh.serve(ln)
	return sh, nil
}

// serverConfig is the daemon configuration both the initial server and
// every restart rebuild share; a meter rig survives restarts (real
// hardware does not forget its counters when the daemon bounces).
func (sh *selfhost) serverConfig() server.Config {
	cfg := server.Config{GlobalBudgetJ: sh.globalJ, Telemetry: sh.tel, QoS: sh.qos}
	if sh.qos.Enabled {
		// The ladder climbs one rung per EscalateAfter observe ticks; at
		// the daemon's default 1 s sweep an adversarial smoke run would
		// finish before enforcement engages. Tick fast enough that the
		// whole escalation arc fits inside the run.
		cfg.SweepInterval = 25 * time.Millisecond
	}
	if sh.rig != nil {
		cfg.Meter = sh.rig.Service
		cfg.MeterStimulus = sh.rig.Stimulus
	}
	return cfg
}

func (sh *selfhost) baseURL() string { return "http://" + sh.addr }

func (sh *selfhost) serve(ln net.Listener) {
	sh.httpSrv = &http.Server{Handler: sh.srv.Handler()}
	go func(h *http.Server) { _ = h.Serve(ln) }(sh.httpSrv)
}

// restartWhen polls the daemon's own wire surface until the fleet has
// completed n iterations, then replaces the daemon: drain in-flight
// brackets, snapshot, tear the listener down, restore a fresh server on
// the same address.
func (sh *selfhost) restartWhen(n int) {
	for {
		time.Sleep(10 * time.Millisecond)
		done, err := sh.fleetIterations()
		if err != nil {
			continue
		}
		if done >= n {
			break
		}
	}
	fmt.Fprintf(os.Stderr, "restart trigger: fleet passed %d iterations; draining + snapshotting daemon\n", n)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := sh.srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "drain: %v\n", err)
	}
	if err := sh.srv.SnapshotFile(sh.snap); err != nil {
		fail(fmt.Errorf("snapshot: %w", err))
	}
	_ = sh.httpSrv.Close() // drop the listener; clients enter retry

	srv, err := server.New(sh.serverConfig())
	if err != nil {
		fail(err)
	}
	if _, err := srv.RestoreFile(sh.snap); err != nil {
		fail(fmt.Errorf("restore: %w", err))
	}
	sh.srv = srv
	// Rebind the same address; the old listener may linger briefly.
	var ln net.Listener
	for i := 0; i < 100; i++ {
		ln, err = net.Listen("tcp", sh.addr)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		fail(fmt.Errorf("rebinding %s: %w", sh.addr, err))
	}
	sh.serve(ln)
	fmt.Fprintf(os.Stderr, "daemon restarted on %s from %s\n", sh.addr, sh.snap)
}

// fleetIterations sums completed iterations across live sessions via the
// daemon's list endpoint.
func (sh *selfhost) fleetIterations() (int, error) {
	resp, err := http.Get(sh.baseURL() + wire.BasePath)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var list wire.ListResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return 0, err
	}
	total := 0
	for _, s := range list.Sessions {
		total += s.IterDone
	}
	return total, nil
}

// verifyBroker asserts the daemon-side global invariant after the run:
// the broker never over-committed, and the fleet's total spend stayed
// within the global pool.
func (sh *selfhost) verifyBroker(rep *Report) error {
	info := sh.srv.Broker().Info()
	if info.CommittedJ+info.ConsumedJ > info.GlobalJ*(1+1e-9) {
		return fmt.Errorf("loadgen: broker over-committed: committed %.1f + consumed %.1f > global %.1f (by %.3g J)",
			info.CommittedJ, info.ConsumedJ, info.GlobalJ, info.CommittedJ+info.ConsumedJ-info.GlobalJ)
	}
	if rep.TotalSpentJ > info.GlobalJ {
		return fmt.Errorf("loadgen: fleet spent %.1f J of a %.1f J global budget", rep.TotalSpentJ, info.GlobalJ)
	}
	fmt.Fprintf(os.Stderr, "broker ledger: global %.0f J, consumed %.1f J, committed %.1f J, %d admitted / %d rejected\n",
		info.GlobalJ, info.ConsumedJ, info.CommittedJ, info.Admitted, info.Rejected)
	return nil
}

func (sh *selfhost) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = sh.srv.Shutdown(ctx)
	_ = sh.httpSrv.Close()
	os.RemoveAll(filepath.Dir(sh.snap))
}

// meterOpts sizes the selfhosted measurement stack from the workload:
// the gate's model power and the injected spike magnitude both scale
// with the app so the faults are implausible at any governed setting.
type meterOpts struct {
	modelW float64 // gate fallback power (the app's default draw)
	spikeJ float64 // additive counter-spike magnitude when inject is set
	inject bool
	seed   int64
}

// buildMeterRig is the selfhosted daemon's measurement stack in
// -meter=sim mode: the calibrated simulated backend, whose virtual clock
// the stimulus path advances by each settled iteration's reported
// duration. Wire iterations finish in microseconds of wall time but
// represent seconds of modeled work; on the virtual timeline the meter
// sees physically plausible watts, so the gate judges the injected faults
// — not the load generator's speed.
func buildMeterRig(tel *telemetry.Telemetry, mo *meterOpts) (*measure.SimBackend, error) {
	sim, err := measure.NewSimBackend(2, mo.seed, mo.modelW*16, tel)
	if err != nil {
		return nil, err
	}
	if mo.inject {
		// Rare additive counter spikes, installed after calibration so the
		// baseline is honest. Each one must surface as a gate rejection
		// (the spiked delta, then its negative echo) debited at the model
		// estimate — never at the corrupted reading.
		sim.Meter.SetFault(faults.NewSpike(0.03, 1, mo.spikeJ, mo.seed+99))
	}
	st := sim.Service.Status()
	fmt.Fprintf(os.Stderr, "meter: %s backend, idle baseline %.2f W (calibration cv %.4f over %d trials)\n",
		st.Backend, st.BaselineW, st.CalibrationCV, st.CalibrationTrials)
	return sim, nil
}

// verifyMeter prints the measurement service's post-run status and
// asserts the run's meter invariants.
func (sh *selfhost) verifyMeter() error {
	st := sh.rig.Service.Status()
	quarantined := ""
	if st.Quarantined {
		quarantined = " QUARANTINED"
	}
	fmt.Fprintf(os.Stderr, "meter ledger: %d samples, gate %d accepted / %d rejected, %d quarantines%s, "+
		"trusted %.1f J (raw %.1f J), attributed %.1f J, unattributed %.1f J\n",
		st.Samples, st.GateAccepted, st.GateRejected, st.Quarantines, quarantined,
		st.TrustedJ, st.RawJ, st.AttributedJ, st.UnattributedJ)
	return checkMeter(st, sh.meterFaults)
}

// checkMeter is the meter rig's verdict: every attribution window
// closed, injected faults drew gate rejections, and a fault-free run
// never quarantined the meter.
func checkMeter(st measure.Status, injected bool) error {
	if st.OpenWindows != 0 {
		return fmt.Errorf("loadgen: %d attribution windows left open after the run", st.OpenWindows)
	}
	if injected && st.GateRejected == 0 {
		return fmt.Errorf("loadgen: counter faults were injected but the plausibility gate rejected nothing")
	}
	if !injected && st.Quarantined {
		return fmt.Errorf("loadgen: meter quarantined with no faults injected")
	}
	return nil
}

// selfcluster runs a fleet coordinator plus N member daemons in-process,
// each on its own localhost listener with real heartbeat loops, so one
// race-detector run covers coordinator, members, servers and clients
// together. With a standby it also runs a follower coordinator tailing
// the primary's WAL, ready for an epoch-fenced promotion mid-run.
type selfcluster struct {
	fleetJ  float64
	coord   *cluster.Coordinator
	httpSrv *http.Server
	addr    string

	standby   *cluster.Standby
	sbHTTPSrv *http.Server
	sbAddr    string
	coordDead bool
	nodes     []*clusterNode
}

type clusterNode struct {
	name    string
	addr    string
	member  *cluster.Member
	httpSrv *http.Server
	killed  bool
}

func startSelfcluster(fleetJ float64, n int, withStandby bool) (*selfcluster, error) {
	if n <= 0 {
		n = 3
	}
	coord, err := cluster.New(cluster.Config{
		FleetBudgetJ: fleetJ,
		LeaseTTL:     800 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	sc := &selfcluster{fleetJ: fleetJ, coord: coord}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sc.addr = ln.Addr().String()
	sc.httpSrv = &http.Server{Handler: coord.Handler()}
	go func(h *http.Server) { _ = h.Serve(ln) }(sc.httpSrv)

	var standbys []string
	if withStandby {
		follower, err := cluster.New(cluster.Config{
			FleetBudgetJ: fleetJ,
			LeaseTTL:     800 * time.Millisecond,
			Follower:     true,
		})
		if err != nil {
			return nil, err
		}
		sc.standby, err = cluster.NewStandby(follower, cluster.StandbyConfig{
			PrimaryURL: sc.baseURL(),
			PollEvery:  50 * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		sln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		sc.sbAddr = sln.Addr().String()
		sc.sbHTTPSrv = &http.Server{Handler: follower.Handler()}
		go func(h *http.Server) { _ = h.Serve(sln) }(sc.sbHTTPSrv)
		sc.standby.Run()
		standbys = []string{sc.standbyURL()}
	}

	for i := 0; i < n; i++ {
		// The near-zero seed is replaced by the first lease: the lease is
		// the member's only budget source.
		srv, err := server.New(server.Config{GlobalBudgetJ: cluster.MemberSeedBudgetJ})
		if err != nil {
			return nil, err
		}
		nln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		nd := &clusterNode{name: fmt.Sprintf("node%d", i), addr: nln.Addr().String()}
		nd.member, err = cluster.NewMember(cluster.MemberConfig{
			CoordinatorURL:  sc.baseURL(),
			CoordinatorURLs: standbys,
			Node:            nd.name,
			Advertise:       "http://" + nln.Addr().String(),
			Server:          srv,
		})
		if err != nil {
			return nil, err
		}
		nd.httpSrv = &http.Server{Handler: nd.member.Handler()}
		go func(h *http.Server) { _ = h.Serve(nln) }(nd.httpSrv)
		if err := nd.member.Run(); err != nil {
			return nil, fmt.Errorf("node %s join: %w", nd.name, err)
		}
		sc.nodes = append(sc.nodes, nd)
	}
	return sc, nil
}

func (sc *selfcluster) baseURL() string    { return "http://" + sc.addr }
func (sc *selfcluster) standbyURL() string { return "http://" + sc.sbAddr }

// nodeURLs lists every member daemon's base URL, killed nodes included
// (callers probing them just see the connection refused).
func (sc *selfcluster) nodeURLs() []string {
	urls := make([]string, len(sc.nodes))
	for i, nd := range sc.nodes {
		urls[i] = "http://" + nd.addr
	}
	return urls
}

// servingURL returns the URL of the coordinator currently holding the
// ledger (the promoted standby after a coordinator kill).
func (sc *selfcluster) servingURL() string {
	if sc.standby != nil && sc.standby.Promoted() {
		return sc.standbyURL()
	}
	return sc.baseURL()
}

// serving returns the coordinator currently holding the ledger: the
// promoted standby after a coordinator kill, the primary otherwise.
func (sc *selfcluster) serving() *cluster.Coordinator {
	if sc.standby != nil && sc.standby.Promoted() {
		return sc.standby.Coordinator()
	}
	return sc.coord
}

// killCoordinator kills the primary coordinator (listener closed, WAL
// closed) and promotes the standby: the fencing epoch bumps, every live
// lease is escrowed pending rejoin reconciliation, and members and
// clients rotate to the standby's address.
func (sc *selfcluster) killCoordinator() {
	if sc.standby == nil || sc.coordDead {
		return
	}
	sc.coordDead = true
	fmt.Fprintf(os.Stderr, "kill trigger: stopping primary coordinator on %s\n", sc.addr)
	_ = sc.httpSrv.Close()
	sc.coord.Stop()
	fence := sc.standby.Promote()
	fmt.Fprintf(os.Stderr, "standby on %s promoted at fence %d\n", sc.sbAddr, fence)
}

// killOne kills the live node owning the most active sessions: stop its
// heartbeats (the lease is left to expire) and close its listener so
// in-flight clients see the outage immediately.
func (sc *selfcluster) killOne() {
	info := sc.coord.Info(true)
	owned := map[string]int{}
	for _, s := range info.Sessions {
		if !s.Complete {
			owned[s.Node]++
		}
	}
	var victim *clusterNode
	for _, nd := range sc.nodes {
		if nd.killed {
			continue
		}
		if victim == nil || owned[nd.name] > owned[victim.name] {
			victim = nd
		}
	}
	if victim == nil {
		return
	}
	victim.killed = true
	fmt.Fprintf(os.Stderr, "kill trigger: stopping %s (owns %d active sessions)\n",
		victim.name, owned[victim.name])
	victim.member.Stop()
	_ = victim.httpSrv.Close()
}

// verify asserts the coordinator-side fleet invariant after the run,
// against whichever coordinator holds the ledger after any promotion.
func (sc *selfcluster) verify(rep *Report, killAt, killCoordAt int) error {
	info := sc.serving().Info(false)
	if info.InvariantViolations != 0 {
		return fmt.Errorf("loadgen: %d fleet-ledger invariant violations", info.InvariantViolations)
	}
	if info.LeasedUnspentJ+info.ConsumedJ > info.FleetJ*1.0001 {
		return fmt.Errorf("loadgen: fleet over-leased: unspent %.1f + consumed %.1f > budget %.1f",
			info.LeasedUnspentJ, info.ConsumedJ, info.FleetJ)
	}
	if rep.TotalSpentJ > info.FleetJ {
		return fmt.Errorf("loadgen: fleet spent %.1f J of a %.1f J budget", rep.TotalSpentJ, info.FleetJ)
	}
	if killAt > 0 && rep.Failovers == 0 {
		return fmt.Errorf("loadgen: a node was killed mid-run but no client reported a failover")
	}
	if killCoordAt > 0 {
		if info.Role != "primary" || info.Fence == 0 {
			return fmt.Errorf("loadgen: coordinator was killed but the survivor reports role %q fence %d",
				info.Role, info.Fence)
		}
		if killAt > 0 && rep.CoordFailovers == 0 {
			return fmt.Errorf("loadgen: node failover ran after a coordinator kill but no client rotated coordinators")
		}
	}
	fmt.Fprintf(os.Stderr, "fleet ledger: budget %.0f J, consumed %.1f J, unspent leases %.1f J, "+
		"%d nodes live, %d reassignments, fence %d; clients rode through %d failovers (%d coordinator rotations)\n",
		info.FleetJ, info.ConsumedJ, info.LeasedUnspentJ, info.NodesLive, info.Reassignments, info.Fence,
		rep.Failovers, rep.CoordFailovers)
	return nil
}

func (sc *selfcluster) stop() {
	for _, nd := range sc.nodes {
		if nd.killed {
			continue
		}
		nd.member.Stop()
		_ = nd.httpSrv.Close()
	}
	if !sc.coordDead {
		sc.coord.Stop()
		_ = sc.httpSrv.Close()
	}
	if sc.standby != nil {
		sc.standby.Stop()
		sc.standby.Coordinator().Stop()
		_ = sc.sbHTTPSrv.Close()
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
