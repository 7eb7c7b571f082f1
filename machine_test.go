package jouleguard_test

import (
	"math"
	"math/rand"
	"testing"

	"jouleguard"
)

// TestMachineMatchesInlinePhysics pins Machine to the arithmetic every
// simulated tenant used to write out for itself, bit for bit: the work's
// duration at the platform's rate first, then the platform's power over
// that duration, both accumulated in that order. Digests and goldens
// recorded on those copies replay on the machine only if it rounds
// exactly as they did. Radar is a periodic kernel (its accuracy moves with
// the input); x264 has no period.
func TestMachineMatchesInlinePhysics(t *testing.T) {
	const steps = 2000
	for _, c := range []struct{ app, plat string }{{"radar", "Tablet"}, {"x264", "Server"}} {
		tb, err := jouleguard.NewTestbed(c.app, c.plat)
		if err != nil {
			t.Fatal(err)
		}
		m := tb.Machine()
		rng := rand.New(rand.NewSource(int64(len(c.app))))
		var clockS, energyJ float64
		for i := 0; i < steps; i++ {
			appCfg, sysCfg := rng.Intn(tb.App.NumConfigs()), rng.Intn(tb.Platform.NumConfigs())
			work, wantAcc := tb.App.Step(appCfg, i)
			dur := work / tb.Platform.Rate(sysCfg, tb.Profile)
			clockS += dur
			energyJ += tb.Platform.Power(sysCfg, tb.Profile) * dur

			acc := m.Step(appCfg, sysCfg, i)
			joules, _ := m.ReadEnergy()
			if math.Float64bits(acc) != math.Float64bits(wantAcc) ||
				math.Float64bits(m.Now()) != math.Float64bits(clockS) ||
				math.Float64bits(joules) != math.Float64bits(energyJ) {
				t.Fatalf("%s/%s step %d at (%d, %d): accuracy %v, %v s, %v J; inline %v, %v s, %v J",
					c.app, c.plat, i, appCfg, sysCfg, acc, m.Now(), joules, wantAcc, clockS, energyJ)
			}
		}
	}
}
