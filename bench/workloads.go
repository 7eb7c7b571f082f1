package main

// env is a workload after set-up.
type env interface {
	// run is the untraced timed part with every output check (only the
	// warm-up when the run is a set-up-only pass).
	run(rep *report)
	// traced drives the workload's own entry point for the traced pass.
	// It returns the untraced figure the ladder's top rung must match,
	// and the steady tenants whose stream the ladder should replay (nil:
	// the ladder uses its default stream).
	traced(rep *report, spans *spanLog) (ref reference, tenants []*tenant, digest uint64)
	close()
}

// workload is one named set of inputs. Names are final: later changes
// are compared workload by workload.
type workload struct {
	name  string
	why   string
	wire  string
	loop  string
	setup func(cfg runConfig) (env, error)
}

var workloads = []workload{
	{
		name: "inproc_steady", wire: "none", loop: "closed",
		why:   "direct Server calls: governor, session, broker and telemetry do all the work; wire, client and cluster do none",
		setup: func(cfg runConfig) (env, error) { return setupSteady(cfg, kindInproc, 2500000) },
	},
	{
		name: "v2_steady", wire: "v2-frames/loopback", loop: "closed",
		why:   "one daemon, v2 frame stream with DoneNext: transport and frame codec dominate, the decision path is the rest",
		setup: func(cfg runConfig) (env, error) { return setupSteady(cfg, kindV2, 450000) },
	},
	{
		name: "v1_steady", wire: "v1-json/loopback", loop: "closed",
		why:   "same daemon and tenants over v1 JSON/HTTP: JSON and net/http dominate; shows a change that helps one wire at the other's cost",
		setup: func(cfg runConfig) (env, error) { return setupSteady(cfg, kindV1, 65000) },
	},
	{
		name: "cluster_steady", wire: "v1-json/loopback", loop: "closed",
		why:   "coordinator and two members with live heartbeats and leases: the only workload where a cluster-path change shows",
		setup: func(cfg runConfig) (env, error) { return setupSteady(cfg, kindCluster, 70000) },
	},
	{
		name: "session_churn", wire: "v1-json+v2-frames/loopback", loop: "closed",
		why:   "register, 32 iterations, close, over and over: registration and teardown dominate, and the broker's tenant table grows to 1,024 names",
		setup: func(cfg runConfig) (env, error) { return setupChurn(cfg, 7000) },
	},
	{
		name: "recover_long", wire: "none", loop: "closed",
		why:   "snapshot, restore and adopt two long-lived sessions: the only workload where the length of the iteration log matters",
		setup: func(cfg runConfig) (env, error) { return setupRecover(cfg, recoverIters) },
	},
	{
		name: "paper_sweep", wire: "none", loop: "batch",
		why:   "the paper's own evaluation matrix through the library: bypasses the service stack, so only apps, sim, platform and par changes show",
		setup: func(cfg runConfig) (env, error) { return setupSweep(cfg) },
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
