package main

import (
	"fmt"

	"jouleguard"
)

// model is the platform model one kind of tenant executes on: for every
// application configuration the (work, accuracy) of one iteration, and
// for every system configuration the platform's rate and power. It is
// built once in set-up from App.Step, so the timed part measures the
// daemon and never the application kernels.
type model struct {
	app, platform string
	tb            *jouleguard.Testbed
	work, acc     []float64 // by application configuration
	rate, power   []float64 // by system configuration
}

func newModel(app, platform string) (*model, error) {
	tb, err := jouleguard.NewTestbed(app, platform)
	if err != nil {
		return nil, err
	}
	m := &model{app: app, platform: platform, tb: tb}
	n := tb.App.NumConfigs()
	m.work, m.acc = make([]float64, n), make([]float64, n)
	for c := 0; c < n; c++ {
		m.work[c], m.acc[c] = tb.App.Step(c, 0)
	}
	ns := tb.Platform.NumConfigs()
	m.rate, m.power = make([]float64, ns), make([]float64, ns)
	for c := 0; c < ns; c++ {
		m.rate[c] = tb.Platform.Rate(c, tb.Profile)
		m.power[c] = tb.Platform.Power(c, tb.Profile)
	}
	return m, nil
}

// budget prices iters iterations at the regime's energy-reduction factor.
func (m *model) budget(iters int) float64 {
	b, err := m.tb.Budget(budgetFactor, iters)
	if err != nil {
		panic(err) // factor and iters are harness constants
	}
	return b
}

// budgetFactor is the energy-reduction factor every tenant is priced at:
// 2.0 is feasible for every benchmark the harness uses, so each tenant
// runs its workload to completion and the guarantee is checkable.
const budgetFactor = 2.0

// digestLen is how many leading decisions of a tenant feed its digest.
const digestLen = 10000

// tenant is the governed application: a virtual clock and energy meter
// advanced by the platform model. Given the same seed and the same
// decisions it reports the same readings, so a governor fed by it
// repeats its decision sequence exactly.
type tenant struct {
	m       *model
	name    string
	seed    int64 // the governor's exploration seed for this tenant
	iters   int
	budgetJ float64

	clockS  float64
	energyJ float64
	accSum  float64
	done    int
	digest  uint64 // FNV-1a over the first digestLen (appCfg, sysCfg) pairs
}

func newTenant(m *model, name string, seed int64, iters int) *tenant {
	return &tenant{m: m, name: name, seed: seed, iters: iters, budgetJ: m.budget(iters), digest: fnvOffset}
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// exec runs one iteration under the decided configurations and returns
// the accuracy the application reports for it.
func (t *tenant) exec(appCfg, sysCfg int) float64 {
	if t.done < digestLen {
		t.digest = (t.digest ^ uint64(appCfg)) * fnvPrime
		t.digest = (t.digest ^ uint64(sysCfg)) * fnvPrime
	}
	dur := t.m.work[appCfg] / t.m.rate[sysCfg]
	t.clockS += dur
	t.energyJ += t.m.power[sysCfg] * dur
	acc := t.m.acc[appCfg]
	t.accSum += acc
	t.done++
	return acc
}

func (t *tenant) readEnergy() (float64, error) { return t.energyJ, nil }
func (t *tenant) now() float64                 { return t.clockS }

// fresh returns a tenant with the same identity and zeroed instruments,
// for replaying the same stream through another entry point.
func (t *tenant) fresh() *tenant { return newTenant(t.m, t.name, t.seed, t.iters) }

// splitmix64 is the harness's only source of randomness: every tenant
// seed, churn name and application draw is a pure function of -seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// tenantSeed derives tenant i's governor seed from the run seed. It is
// never 0, which the daemon would read as "testbed default".
func tenantSeed(seed int64, i int) int64 {
	s := int64(splitmix64(uint64(seed)*1000003+uint64(i)) >> 1)
	if s == 0 {
		s = 1
	}
	return s
}

func tenantName(i int) string { return fmt.Sprintf("tenant-%02d", i) }
