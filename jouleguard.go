// Package jouleguard is a from-scratch reproduction of JouleGuard (Henry
// Hoffmann, SOSP 2015): a runtime control system that coordinates
// approximate applications with system resource usage to provide
// control-theoretic guarantees of energy consumption while maximising
// accuracy.
//
// The package exposes:
//
//   - The JouleGuard runtime itself (Testbed.NewJouleGuard): a
//     System Energy Optimizer (VDBE multi-armed bandit over system
//     configurations, paper Sec. 3.2) coupled to an Application Accuracy
//     Optimizer (adaptive-pole PI controller over the application's
//     accuracy/performance frontier, Sec. 3.3).
//   - The full simulated testbed the evaluation runs on: the paper's eight
//     approximate benchmarks as real miniature kernels, the three hardware
//     platforms, and their power instrumentation.
//   - The comparison governors (application-only, system-only,
//     uncoordinated) and the omniscient oracle.
//
// Quick start:
//
//	tb, _ := jouleguard.NewTestbed("x264", "Server")
//	gov, _ := tb.NewJouleGuard(2.0, 500, jouleguard.Options{}) // halve energy
//	rec, _ := tb.Run(gov, 500)
//	fmt.Println(rec.MeanAccuracy(), rec.EnergyPerIterAvg())
package jouleguard

import (
	"fmt"

	"jouleguard/internal/apps"
	"jouleguard/internal/apps/kernel"
	"jouleguard/internal/baselines"
	"jouleguard/internal/core"
	"jouleguard/internal/faults"
	"jouleguard/internal/guard"
	"jouleguard/internal/hwapprox"
	"jouleguard/internal/knob"
	"jouleguard/internal/learning"
	"jouleguard/internal/linuxsys"
	"jouleguard/internal/oracle"
	"jouleguard/internal/par"
	"jouleguard/internal/platform"
	"jouleguard/internal/sensors"
	"jouleguard/internal/sim"
	"jouleguard/internal/telemetry"
	"jouleguard/internal/workload"
)

// Re-exported types: the stable public surface over the internal packages.
type (
	// App is an approximate application under JouleGuard's control.
	App = apps.App
	// Platform is a simulated hardware platform.
	Platform = platform.Platform
	// Governor decides configurations each iteration and observes feedback.
	Governor = sim.Governor
	// Feedback is the per-iteration measurement a Governor observes.
	Feedback = sim.Feedback
	// Record captures one experiment run.
	Record = sim.Record
	// Runtime is the JouleGuard runtime (Algorithm 1).
	Runtime = core.Runtime
	// Options tunes the runtime; the zero value is the paper's behaviour.
	Options = core.Options
	// Frontier is a profiled application Pareto frontier.
	Frontier = knob.Frontier
	// FrontierPoint is one (config, speedup, accuracy) triple.
	FrontierPoint = knob.Point
	// Oracle answers optimal-accuracy queries.
	Oracle = oracle.Oracle
	// Trace describes a phased workload.
	Trace = workload.Trace
	// AppSpec is one row of the paper's Table 2.
	AppSpec = apps.Spec
	// SelectorKind names an SEO exploration policy.
	SelectorKind = core.SelectorKind
	// AppHardwareProfile characterises how an application exercises
	// hardware (parallel fraction, memory-boundness, hyperthreading gain);
	// register one with RegisterProfile before building a testbed for a
	// custom application.
	AppHardwareProfile = platform.AppProfile
	// FaultInjector bundles sensor, clock and actuator fault models for
	// one run (see RunFaulty and the internal/faults models).
	FaultInjector = faults.Injector
	// FaultScenario is one named, reproducible fault configuration from
	// the chaos suite.
	FaultScenario = faults.Scenario
	// SensorGuard is the hardened sensing layer: median/MAD outlier
	// rejection, stuck-sensor detection and model-based fallback over a
	// raw power/energy stream.
	SensorGuard = guard.Sensor
	// SensorGuardConfig tunes a SensorGuard; the zero value selects the
	// defaults.
	SensorGuardConfig = guard.Config
	// Telemetry is the live observability sink: a Prometheus-style metric
	// registry plus a flight recorder of controller decisions, with an
	// HTTP Handler exposing /metrics, /healthz and /decisions.
	Telemetry = telemetry.Telemetry
	// TelemetrySink receives instrumentation events from the control
	// path; pass one via Options.Telemetry and OnlineController.SetTelemetry.
	TelemetrySink = telemetry.Sink
	// Decision is one flight-recorder event: everything the runtime knew
	// and decided in a single control iteration.
	Decision = telemetry.Decision
)

// Exploration policies for Options.Selector.
const (
	SelectVDBE     = core.SelectVDBE
	SelectFixedEps = core.SelectFixedEps
	SelectUCB      = core.SelectUCB
)

// NewTelemetry builds a live telemetry sink whose flight recorder holds
// the last flightCapacity decisions (a default capacity if <= 0). Wire
// it into a runtime via Options.Telemetry, into an OnlineController via
// SetTelemetry, and serve its Handler to expose the run live.
func NewTelemetry(flightCapacity int) *Telemetry { return telemetry.New(flightCapacity) }

// SetRunnerTelemetry installs a process-wide sink on the parallel
// experiment runner: every experiment job reports start/completion and
// the queue depth behind it. Pass nil to disable.
func SetRunnerTelemetry(s TelemetrySink) { par.SetSink(s) }

// Benchmark returns one of the paper's eight approximate applications by
// name (Table 2): "x264", "swaptions", "bodytrack", "swish++", "radar",
// "canneal", "ferret", "streamcluster".
func Benchmark(name string) (App, error) { return apps.New(name) }

// Benchmarks lists the benchmark names in Table 2 order.
func Benchmarks() []string { return apps.Names() }

// PlatformByName returns a simulated platform: "Mobile", "Tablet" or
// "Server" (Table 3).
func PlatformByName(name string) (*Platform, error) { return platform.ByName(name) }

// Platforms lists the platform names.
func Platforms() []string { return platform.Names() }

// Table2 returns the paper's application characteristics.
func Table2() []AppSpec { return apps.Table2 }

// Testbed binds one application to one platform: it profiles the
// application into a Pareto frontier (the PowerDial calibration step),
// characterises the default configuration, and can construct governors and
// oracles for experiments.
type Testbed struct {
	App      App
	Platform *Platform
	Frontier *Frontier
	Profile  platform.AppProfile

	WorkPerIter   float64 // default-config work units per iteration
	DefaultRate   float64 // default/default iterations per second (true model)
	DefaultPower  float64 // default/default watts (true model)
	DefaultEnergy float64 // default/default joules per iteration (true model)

	Seed int64
}

// The (application, platform) testbed cache. Building a testbed means
// profiling the application into its calibrated frontier and probing its
// default-configuration characteristics — work that is deterministic per
// (app, platform) pair yet used to be repaid by every run of every sweep
// (the full evaluation builds 864+ testbeds). The cache holds one immutable
// template per pair, built once even when concurrent callers ask for it
// together; NewTestbed hands out shallow copies so per-run Seed mutations
// never leak between experiments. Platform, Frontier and App are shared
// read-only (the app kernels' Step methods are deterministic pure
// functions, safe under the concurrent sweeps in internal/experiments).
var testbeds kernel.OnceMap[[2]string, *Testbed]

// NewTestbed builds a testbed for (application, platform) by name, serving
// repeat requests from the process-wide template cache.
func NewTestbed(appName, platName string) (*Testbed, error) {
	tmpl, err := testbeds.Do([2]string{appName, platName}, func() (*Testbed, error) {
		app, err := apps.New(appName)
		if err != nil {
			return nil, err
		}
		plat, err := platform.ByName(platName)
		if err != nil {
			return nil, err
		}
		return NewTestbedFrom(app, plat)
	})
	if err != nil {
		return nil, err
	}
	tb := *tmpl
	return &tb, nil
}

// NewTestbedFrom builds a testbed from already-constructed parts (use this
// to plug in your own App implementation; see examples/customapp).
func NewTestbedFrom(app App, plat *Platform) (*Testbed, error) {
	prof, err := platform.ProfileFor(app.Name())
	if err != nil {
		return nil, err
	}
	frontier, err := apps.CalibratedFrontier(app)
	if err != nil {
		return nil, err
	}
	// Default-config work per iteration, averaged over a few inputs.
	const probe = 4
	var work float64
	for i := 0; i < probe; i++ {
		w, _ := app.Step(app.DefaultConfig(), i)
		work += w
	}
	work /= probe
	def := plat.DefaultConfig()
	rate := plat.Rate(def, prof) / work // iterations per second
	power := plat.Power(def, prof)
	return &Testbed{
		App:           app,
		Platform:      plat,
		Frontier:      frontier,
		Profile:       prof,
		WorkPerIter:   work,
		DefaultRate:   rate,
		DefaultPower:  power,
		DefaultEnergy: power / rate,
		Seed:          1,
	}, nil
}

// RegisterProfile registers a hardware-interaction profile for a custom
// application so testbeds can be built for it.
func RegisterProfile(p platform.AppProfile) {
	platform.Profiles[p.Name] = p
}

// priors returns the paper's optimistic initial models in iteration-rate
// units for this testbed.
func (tb *Testbed) priors() learning.Priors {
	return tb.Platform.PriorsPerIteration(tb.Profile, tb.WorkPerIter)
}

// Budget converts an energy-reduction factor f into a joule budget for the
// given number of iterations: E = iters * defaultEnergyPerIter / f
// (Sec. 5.2's methodology).
func (tb *Testbed) Budget(f float64, iters int) (float64, error) {
	if f <= 0 {
		return 0, fmt.Errorf("jouleguard: reduction factor %v must be positive", f)
	}
	if iters <= 0 {
		return 0, fmt.Errorf("jouleguard: iteration count %d must be positive", iters)
	}
	return float64(iters) * tb.DefaultEnergy / f, nil
}

// NewJouleGuard constructs the JouleGuard runtime for an energy-reduction
// factor f over iters iterations.
func (tb *Testbed) NewJouleGuard(f float64, iters int, opts Options) (*Runtime, error) {
	budget, err := tb.Budget(f, iters)
	if err != nil {
		return nil, err
	}
	if opts.Seed == 0 {
		opts.Seed = tb.Seed
	}
	return core.New(float64(iters), budget, tb.Frontier,
		tb.Platform.NumConfigs(), tb.priors(), tb.Platform.DefaultConfig(), opts)
}

// NewJouleGuardBudget constructs the runtime for an absolute joule budget.
func (tb *Testbed) NewJouleGuardBudget(budget float64, iters int, opts Options) (*Runtime, error) {
	if opts.Seed == 0 {
		opts.Seed = tb.Seed
	}
	return core.New(float64(iters), budget, tb.Frontier,
		tb.Platform.NumConfigs(), tb.priors(), tb.Platform.DefaultConfig(), opts)
}

// NewSystemOnly constructs the system-only baseline governor (Sec. 2.1).
func (tb *Testbed) NewSystemOnly() (Governor, error) {
	return baselines.NewSystemOnly(tb.App.DefaultConfig(), tb.Platform.NumConfigs(), tb.priors(), tb.Seed)
}

// NewAppOnly constructs the PowerDial-style application-only baseline
// (Sec. 2.2) for factor f over iters iterations.
func (tb *Testbed) NewAppOnly(f float64, iters int) (Governor, error) {
	budget, err := tb.Budget(f, iters)
	if err != nil {
		return nil, err
	}
	return baselines.NewAppOnly(float64(iters), budget, tb.Frontier,
		tb.Platform.DefaultConfig(), tb.DefaultRate, tb.DefaultPower)
}

// NewUncoordinated constructs the uncoordinated app+system baseline
// (Sec. 2.3).
func (tb *Testbed) NewUncoordinated(f float64, iters int) (Governor, error) {
	budget, err := tb.Budget(f, iters)
	if err != nil {
		return nil, err
	}
	return baselines.NewUncoordinated(float64(iters), budget, tb.Frontier,
		tb.Platform.NumConfigs(), tb.priors(), tb.DefaultRate, tb.DefaultPower, tb.Seed)
}

// The oracle cache. Constructing an oracle exhaustively profiles frontier x
// system configurations (up to 1024 on Server), and the metrics of every
// finished run consult one. Keyed by the identity of the testbed's shared
// parts, so cached testbeds for the same (app, platform) hit the same
// oracle while custom NewTestbedFrom testbeds (distinct Frontier pointers)
// get their own. Oracles are immutable after construction, and each is
// built once even when concurrent callers ask for it together.
type oracleKey struct {
	frontier *Frontier
	plat     *Platform
	prof     platform.AppProfile
	work     float64
}

var oracles kernel.OnceMap[oracleKey, *Oracle]

// NewOracle constructs the omniscient oracle for this testbed (Sec. 5.2),
// memoized process-wide per (frontier, platform, profile, work) identity.
func (tb *Testbed) NewOracle() (*Oracle, error) {
	key := oracleKey{tb.Frontier, tb.Platform, tb.Profile, tb.WorkPerIter}
	return oracles.Do(key, func() (*Oracle, error) {
		return oracle.New(tb.Frontier, tb.Platform, tb.Profile, tb.WorkPerIter)
	})
}

// Run executes iters iterations under the governor on a fresh simulation
// engine and returns the run record.
func (tb *Testbed) Run(gov Governor, iters int) (*Record, error) {
	return tb.RunTraced(gov, iters, nil)
}

// RunTraced is Run with an external difficulty trace applied to the
// workload (see ThreePhaseVideo for the Fig. 8 input).
func (tb *Testbed) RunTraced(gov Governor, iters int, tr *Trace) (*Record, error) {
	eng, err := sim.New(tb.App, tb.Platform, tb.Seed)
	if err != nil {
		return nil, err
	}
	eng.Trace = tr
	return eng.Run(iters, gov)
}

// RunDisturbed is Run with per-iteration multiplicative disturbances on the
// platform's rate and power — external interference (co-located load,
// thermal events) the runtime must absorb. disturb returns (1, 1) for an
// undisturbed iteration.
func (tb *Testbed) RunDisturbed(gov Governor, iters int, disturb func(iter int) (rateMul, powerMul float64)) (*Record, error) {
	eng, err := sim.New(tb.App, tb.Platform, tb.Seed)
	if err != nil {
		return nil, err
	}
	eng.Disturb = disturb
	return eng.Run(iters, gov)
}

// RunFaulty is Run with a fault injector corrupting the measurement and
// actuation channels and the hardened sensing guard cleaning the power
// stream before it reaches the governor — the configuration the chaos
// harness (cmd/chaos) exercises. Ground truth in the Record stays
// honest; only what the governor perceives is faulted.
func (tb *Testbed) RunFaulty(gov Governor, iters int, inj *FaultInjector) (*Record, error) {
	eng, err := sim.New(tb.App, tb.Platform, tb.Seed)
	if err != nil {
		return nil, err
	}
	eng.Faults = inj
	eng.Guard = guard.New(guard.Config{ModelPower: tb.DefaultPower})
	return eng.Run(iters, gov)
}

// NewSensorGuard builds a hardened sensing guard (see SensorGuardConfig).
func NewSensorGuard(cfg SensorGuardConfig) *SensorGuard { return guard.New(cfg) }

// FaultScenarios returns the chaos harness's standing fault suite: the
// scenarios every JouleGuard build must keep its energy guarantee under.
func FaultScenarios() []FaultScenario { return faults.DefaultSuite() }

// FaultScenariosByName filters the standing suite by name (empty = all).
func FaultScenariosByName(names []string) ([]FaultScenario, error) {
	return faults.SuiteByName(names)
}

// RunDefault runs the out-of-the-box configuration (the paper's baseline
// characterisation).
func (tb *Testbed) RunDefault(iters int) (*Record, error) {
	return tb.Run(sim.FixedGovernor{
		AppCfg: tb.App.DefaultConfig(),
		SysCfg: tb.Platform.DefaultConfig(),
	}, iters)
}

// ThreePhaseVideo reproduces the Fig. 8 input: three scenes of framesPer
// frames, the middle one ~40% easier.
func ThreePhaseVideo(framesPer int) *Trace { return workload.ThreePhaseVideo(framesPer) }

// PhasedX264 builds a fresh x264 instance whose scene content follows the
// three-phase difficulty (for Fig. 8-style experiments the encoder itself
// sees easier scenes, so the speedup is genuine early termination).
func PhasedX264(framesPer int) App {
	return apps.NewX264WithPhases(func(iter int) float64 {
		if iter >= framesPer && iter < 2*framesPer {
			return 0.55
		}
		return 1
	})
}

// LinuxTopology describes a real Linux host's actuatable CPU resources.
type LinuxTopology = linuxsys.Topology

// LinuxActuator applies (cores x frequency) configurations to a real host.
type LinuxActuator = linuxsys.Actuator

// DiscoverLinux reads the host's CPU topology and frequency ladder from
// sysfs — the configuration space the paper controls with affinity masks
// and cpufrequtils (Sec. 4.2).
func DiscoverLinux() (*LinuxTopology, error) { return linuxsys.Discover("") }

// NewLinuxActuator builds an actuator that pins the process via
// sched_setaffinity and writes cpufreq setpoints. Set DryRun to log the
// actions instead of performing them (useful without root).
func NewLinuxActuator(t *LinuxTopology) (*LinuxActuator, error) {
	return linuxsys.NewActuator(t, linuxsys.SchedAffinity)
}

// LinuxRAPL is a real energy reader over the Linux powercap interface
// (/sys/class/powercap): the same package-energy counters the paper reads
// on its Intel platforms. Combine its ReadEnergyAt with an
// OnlineController to drive JouleGuard on an actual machine; fixedW is the
// paper's constant adder for the components RAPL cannot see.
func LinuxRAPL(fixedW float64) (*sensors.LinuxRAPLReader, error) {
	return sensors.NewLinuxRAPLReader("", fixedW)
}

// ---------------------------------------------------------------------
// Approximate hardware (the paper's Sec. 3.7 extension).

// HardwareRuntime is the power-mode JouleGuard variant for approximate
// hardware: approximation scales power instead of timing.
type HardwareRuntime = core.HardwareRuntime

// HardwareUnit is a simulated voltage-overscaled functional unit whose
// accuracy is measured from real fault-injected arithmetic.
type HardwareUnit = hwapprox.Unit

// NewHardwareUnit builds an approximate functional unit with the given
// number of levels, scaling dynamic power down to minPowerScale.
func NewHardwareUnit(levels int, minPowerScale float64, seed int64) (*HardwareUnit, error) {
	return hwapprox.NewUnit(levels, minPowerScale, seed)
}

// HardwareTestbed binds an approximate-hardware unit to a platform.
type HardwareTestbed struct {
	Unit          *HardwareUnit
	Platform      *Platform
	WorkPerIter   float64
	DefaultEnergy float64 // default-config, exact-hardware joules/iteration
	Seed          int64
	profile       platform.AppProfile
}

// NewHardwareTestbed builds the Sec. 3.7 testbed.
func NewHardwareTestbed(unit *HardwareUnit, platName string) (*HardwareTestbed, error) {
	plat, err := platform.ByName(platName)
	if err != nil {
		return nil, err
	}
	prof, err := platform.ProfileFor("hwapprox")
	if err != nil {
		return nil, err
	}
	work, _, _ := unit.Compute(0, 0)
	def := plat.DefaultConfig()
	return &HardwareTestbed{
		Unit:          unit,
		Platform:      plat,
		WorkPerIter:   work,
		DefaultEnergy: plat.Power(def, prof) * work / plat.Rate(def, prof),
		Seed:          1,
		profile:       prof,
	}, nil
}

// NewJouleGuard constructs the power-mode runtime for an energy-reduction
// factor f over iters iterations.
func (tb *HardwareTestbed) NewJouleGuard(f float64, iters int, opts Options) (*HardwareRuntime, error) {
	if f <= 0 || iters <= 0 {
		return nil, fmt.Errorf("jouleguard: invalid factor %v / iterations %d", f, iters)
	}
	priors := tb.Platform.PriorsPerIteration(tb.profile, tb.WorkPerIter)
	if opts.Seed == 0 {
		opts.Seed = tb.Seed
	}
	budget := float64(iters) * tb.DefaultEnergy / f
	return core.NewHardware(float64(iters), budget, tb.Unit.MeasureFrontier(32),
		tb.Platform.NumConfigs(), priors, opts)
}

// Run executes iters iterations under the governor.
func (tb *HardwareTestbed) Run(gov Governor, iters int) (*Record, error) {
	eng, err := sim.New(hwapprox.Approx{Unit: tb.Unit}, tb.Platform, tb.Seed)
	if err != nil {
		return nil, err
	}
	return eng.Run(iters, gov)
}
