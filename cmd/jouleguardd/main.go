// Command jouleguardd is the JouleGuard governor daemon: it serves the
// versioned session protocol of internal/wire, partitioning one
// machine-wide energy budget across many concurrently governed
// applications. Each session runs its own governor (SEO bandit + AAO
// controller) under a grant from the budget broker; the shared
// telemetry surface (/metrics, /healthz, /decisions, /debug/pprof) is
// mounted on the same listener.
//
// On SIGINT/SIGTERM the daemon drains in-flight iterations, snapshots
// its durable state to -snapshot (JSONL), and exits; restarted with the
// same -snapshot it restores every live session bit-identically and
// clients resume through their retry layer.
//
// Fleet modes:
//
//   - -coordinator turns the process into the fleet coordinator instead
//     of a governor daemon: it owns the fleet-wide budget (-budget),
//     leases it to member daemons, places sessions, and fails them over
//     when a node dies. Clients register at the coordinator and are
//     redirected (HTTP 307) to the owning node. With -wal the budget
//     ledger is event-sourced to an append-only JSONL log, replayed on
//     restart so the coordinator resumes with a bit-identical ledger.
//   - -coordinator -standby <primary-url> runs a standby coordinator: it
//     tails the primary's WAL over HTTP into a promotion-ready shadow
//     ledger, answers not_primary until then, and (with -promote-after)
//     promotes itself once the primary has been silent that long — the
//     fencing epoch bumps and the fleet rejoins under the new reign.
//   - -join <coordinator-urls> runs a governor daemon as a fleet member:
//     its budget comes from the coordinator's lease (the -budget flag is
//     ignored), renewed by heartbeat; -node names it stably and
//     -advertise is the base URL others reach it at (defaults to
//     http://<addr>). A comma-separated list names the primary first and
//     standbys after it; the member rotates to the next entry when a
//     coordinator is unreachable, deposed, or not yet promoted.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"jouleguard/internal/cluster"
	"jouleguard/internal/guard"
	"jouleguard/internal/linuxsys"
	"jouleguard/internal/measure"
	"jouleguard/internal/qos"
	"jouleguard/internal/server"
	"jouleguard/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":7077", "listen address for the session protocol and telemetry")
	budget := flag.Float64("budget", 10000, "machine-wide energy budget to partition, joules (fleet-wide with -coordinator)")
	reserve := flag.Float64("reserve", 0, "broker commitment multiplier (<=1 selects the default 1.05)")
	snapshot := flag.String("snapshot", "", "snapshot file: restored at start if present, written on shutdown")
	idle := flag.Duration("idle-timeout", 2*time.Minute, "expire sessions with no wire activity for this long")
	drain := flag.Duration("drain", 10*time.Second, "max time to wait for in-flight iterations on shutdown")
	coordinator := flag.Bool("coordinator", false, "run the fleet coordinator instead of a governor daemon")
	leaseTTL := flag.Duration("lease-ttl", 3*time.Second, "coordinator: lease term after which a silent node is expired")
	wal := flag.String("wal", "", "coordinator: append-only ledger WAL file, replayed at start so a restart resumes the exact ledger")
	standbyOf := flag.String("standby", "", "coordinator: tail this primary coordinator's WAL as a promotion-ready standby")
	promoteAfter := flag.Duration("promote-after", 0, "standby: self-promote once the primary has been silent this long (0 = never; should exceed -lease-ttl)")
	join := flag.String("join", "", "member: coordinator base URL(s) to join, comma-separated primary-first (enables fleet mode)")
	node := flag.String("node", "", "member: stable node name (default the advertise address)")
	advertise := flag.String("advertise", "", "member: base URL clients and the coordinator reach this daemon at (default http://<addr>)")
	meterMode := flag.String("meter", "client", "energy source: client (wire-reported readings), sim (calibrated simulated meter; client reports become physical stimulus), rapl (Linux powercap; falls over to sim when unavailable)")
	raplRoot := flag.String("rapl-root", "/sys/class/powercap", "powercap sysfs root for -meter=rapl")
	meterIdle := flag.Float64("meter-idle", 2, "sim meter: idle baseline, watts")
	meterModelW := flag.Float64("meter-model-power", 40, "measurement gate: expected full-load draw in watts; scales the absolute plausibility ceiling (16x)")
	qosEnabled := flag.Bool("qos", false, "enable the local tenant-protection ladder (graduated enforcement and overload shedding); fleet-shipped policy is enforced either way")
	qosOverrun := flag.Float64("qos-overrun", 0, "qos: footprint-over-fair-share ratio counted as an overrun (<=0 selects the default 1.25)")
	qosShedAt := flag.Float64("qos-shed-at", 0, "qos: pool-pressure threshold engaging overload shedding (<=0 selects the default 0.97)")
	flag.Parse()

	if *coordinator {
		runCoordinator(*addr, *budget, *leaseTTL, *wal, *standbyOf, *promoteAfter)
		return
	}

	budgetJ := *budget
	if *join != "" {
		// Fleet member: the budget comes from the coordinator's lease, so
		// seed the broker near zero — nothing may be admitted against the
		// ignored -budget flag before the first lease lands.
		budgetJ = cluster.MemberSeedBudgetJ
	}
	tel := telemetry.New(0)
	msvc, stimulus, err := openMeter(tel, *meterMode, *raplRoot, *meterIdle, *meterModelW)
	if err != nil {
		fail(err)
	}
	if msvc != nil {
		defer msvc.Stop()
	}
	srv, err := server.New(server.Config{
		GlobalBudgetJ: budgetJ,
		Reserve:       *reserve,
		IdleTimeout:   *idle,
		Telemetry:     tel,
		Meter:         msvc,
		MeterStimulus: stimulus,
		QoS: qos.Config{
			Enabled:      *qosEnabled,
			OverrunRatio: *qosOverrun,
			ShedPressure: *qosShedAt,
		},
	})
	if err != nil {
		fail(err)
	}
	if *snapshot != "" {
		restored, err := srv.RestoreFile(*snapshot)
		if err != nil {
			fail(fmt.Errorf("restoring %s: %w", *snapshot, err))
		}
		if restored {
			fmt.Printf("restored state from %s\n", *snapshot)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	handler := srv.Handler()
	var member *cluster.Member
	if *join != "" {
		adv := *advertise
		if adv == "" {
			adv = "http://" + ln.Addr().String()
		}
		name := *node
		if name == "" {
			name = adv
		}
		coords := splitURLs(*join)
		member, err = cluster.NewMember(cluster.MemberConfig{
			CoordinatorURL:  coords[0],
			CoordinatorURLs: coords[1:],
			Node:            name,
			Advertise:       adv,
			Server:          srv,
		})
		if err != nil {
			fail(err)
		}
		handler = member.Handler()
	}
	httpSrv := newHTTPServer(handler)
	if member != nil {
		fmt.Printf("jouleguardd member %q on http://%s  joining %s  (budget leased from the coordinator)\n",
			*node, ln.Addr(), *join)
	} else {
		fmt.Printf("jouleguardd on http://%s  budget %.0f J  (sessions: %s, telemetry: /metrics /healthz /decisions)\n",
			ln.Addr(), *budget, "/v1/sessions")
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	if member != nil {
		// Join after the listener is up so the coordinator can push
		// adoptions at us from the first heartbeat on.
		if err := member.Run(); err != nil {
			fail(fmt.Errorf("joining fleet at %s: %w", *join, err))
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("received %v, draining\n", s)
	case err := <-errCh:
		fail(err)
	}

	if member != nil {
		member.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "drain incomplete: %v (snapshotting anyway)\n", err)
	}
	if *snapshot != "" {
		if err := srv.SnapshotFile(*snapshot); err != nil {
			fail(fmt.Errorf("writing snapshot %s: %w", *snapshot, err))
		}
		fmt.Printf("state snapshotted to %s\n", *snapshot)
	}
	shutdownCtx, cancel2 := context.WithTimeout(context.Background(), time.Second)
	defer cancel2()
	_ = httpSrv.Shutdown(shutdownCtx)
}

// runCoordinator serves the fleet coordinator: cluster routes, the
// register-redirect endpoint and the telemetry surface on one listener.
// With walPath the ledger is event-sourced to disk and replayed at
// start; with standbyOf the coordinator starts as a follower tailing
// that primary's WAL, promoting on operator demand or after
// promoteAfter of primary silence.
func runCoordinator(addr string, fleetJ float64, ttl time.Duration, walPath, standbyOf string, promoteAfter time.Duration) {
	tel := telemetry.New(0)
	coord, err := cluster.New(cluster.Config{
		FleetBudgetJ: fleetJ,
		LeaseTTL:     ttl,
		Telemetry:    tel,
		WALPath:      walPath,
		Follower:     standbyOf != "",
	})
	if err != nil {
		fail(err)
	}
	var sb *cluster.Standby
	if standbyOf != "" {
		sb, err = cluster.NewStandby(coord, cluster.StandbyConfig{
			PrimaryURL:   strings.TrimRight(standbyOf, "/"),
			PromoteAfter: promoteAfter,
		})
		if err != nil {
			fail(err)
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fail(err)
	}
	httpSrv := newHTTPServer(coord.Handler())
	if sb != nil {
		fmt.Printf("jouleguard standby coordinator on http://%s  tailing %s  fleet budget %.0f J  (promote-after %v)\n",
			ln.Addr(), standbyOf, fleetJ, promoteAfter)
	} else {
		fmt.Printf("jouleguard coordinator on http://%s  fleet budget %.0f J  lease TTL %v  (join: /v1/cluster/join)\n",
			ln.Addr(), fleetJ, ttl)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	if sb != nil {
		sb.Run()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("received %v, shutting down\n", s)
	case err := <-errCh:
		fail(err)
	}
	if sb != nil {
		sb.Stop()
	}
	coord.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(ctx)
}

// openMeter builds the daemon's measurement service for -meter (nil
// for client mode: sessions debit wire-reported readings, the
// pre-existing contract). The rapl backend fails over cleanly to the
// simulator when powercap is missing or its counters cannot be
// calibrated, so the same invocation works on any host.
func openMeter(tel *telemetry.Telemetry, mode, raplRoot string, idleW, modelW float64) (*measure.Service, func(joules, durS float64), error) {
	switch mode {
	case "", "client":
		return nil, nil, nil
	case "sim":
		return simMeter(tel, idleW, modelW)
	case "rapl":
		svc, err := raplMeter(tel, raplRoot, modelW)
		if err != nil {
			fmt.Fprintf(os.Stderr, "meter: rapl backend unavailable (%v); failing over to the simulated meter\n", err)
			return simMeter(tel, idleW, modelW)
		}
		return svc, nil, nil
	default:
		return nil, nil, fmt.Errorf("unknown -meter mode %q (want client, sim or rapl)", mode)
	}
}

// simMeter assembles the simulated backend on a virtual clock advanced by
// each settled iteration's client-reported duration, so per-sample power
// lands at the physical watt scale the gate judges; modelW only scales the
// absolute plausibility ceiling.
func simMeter(tel *telemetry.Telemetry, idleW, modelW float64) (*measure.Service, func(joules, durS float64), error) {
	sim, err := measure.NewSimBackend(idleW, 1, modelW*16, tel)
	if err != nil {
		return nil, nil, err
	}
	installMeterHealth(tel, sim.Service)
	announceMeter(sim.Service)
	return sim.Service, sim.Stimulus, nil
}

// raplMeter assembles the hardware backend: the hardened powercap
// reader, a real idle calibration (a few hundred ms at startup), host
// busy-fraction attribution, and the hot sampling loop.
func raplMeter(tel *telemetry.Telemetry, root string, modelW float64) (*measure.Service, error) {
	m, err := measure.NewRAPLMeter(root, 0)
	if err != nil {
		return nil, err
	}
	cal, err := measure.Calibrate(m, measure.CalibrationConfig{})
	if err != nil {
		return nil, fmt.Errorf("calibrating powercap counters: %w", err)
	}
	share := &linuxsys.CPUShare{}
	svc := measure.NewService(measure.ServiceConfig{
		Meter:    m,
		Gate:     guard.Config{MaxPower: modelW * 16},
		Baseline: cal,
		CPUShare: share.Sample,
		Tel:      tel,
	})
	svc.Start()
	installMeterHealth(tel, svc)
	announceMeter(svc)
	return svc, nil
}

// installMeterHealth publishes the live meter summary on /healthz.
func installMeterHealth(tel *telemetry.Telemetry, svc *measure.Service) {
	tel.SetMeter(func() telemetry.MeterInfo {
		st := svc.Status()
		return telemetry.MeterInfo{
			Backend:      st.Backend,
			BaselineW:    st.BaselineW,
			CV:           st.CalibrationCV,
			Trials:       st.CalibrationTrials,
			GateRejected: st.GateRejected,
			Quarantined:  st.Quarantined,
		}
	})
}

func announceMeter(svc *measure.Service) {
	st := svc.Status()
	fmt.Printf("meter: %s backend, idle baseline %.2f W (calibration cv %.4f over %d trials)\n",
		st.Backend, st.BaselineW, st.CalibrationCV, st.CalibrationTrials)
}

// newHTTPServer wraps a handler with the read-side limits every
// jouleguardd listener gets: a header deadline against slow-loris
// connection hoarding and a full-request read deadline. Request bodies
// are separately capped at 1 MiB by the wire decoders, and the cluster
// WAL tail endpoint bounds its batches, so no route needs a looser
// limit. Write timeouts stay off: /decisions and /debug/pprof stream.
func newHTTPServer(handler http.Handler) *http.Server {
	return &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
	}
}

// splitURLs parses a comma-separated coordinator list, trimming
// whitespace and trailing slashes; the first entry is the primary.
func splitURLs(s string) []string {
	var urls []string
	for _, u := range strings.Split(s, ",") {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		urls = []string{""}
	}
	return urls
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
