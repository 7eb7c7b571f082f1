package server

import (
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jouleguard"
	"jouleguard/internal/qos"
	"jouleguard/internal/wire"
)

// TestQoSIsolationUnderChurn pins the tenant-protection headline
// property under -race churn: with the ladder enabled, a misbehaving
// tenant claiming ten honest tenants' worth of the pool and hammering
// registrations cannot move an honest tenant's budget fidelity or
// ladder state. Sixteen goroutines churn one daemon — twelve honest
// guaranteed-tier tenants running sessions to completion, three
// drivers hammering as the best-effort adversary, one observe ticker —
// and at the end every honest session must have spent within 105% of
// its grant and sit at rung ok, while the adversary (and only
// the adversary) drew enforcement denials.
func TestQoSIsolationUnderChurn(t *testing.T) {
	const (
		honest   = 12
		advDrv   = 3
		rounds   = 2
		iters    = 20
		minAcc   = 0.5
		slack    = 1.05
		tickGap  = time.Millisecond
		coolDown = 50 * time.Millisecond
	)
	tb, err := jouleguard.NewTestbed("radar", "Tablet")
	if err != nil {
		t.Fatal(err)
	}
	// Honest budgets are factor-priced like the smoke runs'; the
	// adversary claims ten honest tenants' worth. The pool fits both
	// (admission is claim-blind while it has room) with slack for the
	// adversary to re-register while its previous commitment lingers.
	perJ, err := tb.Budget(2, iters)
	if err != nil {
		t.Fatal(err)
	}
	advMulJ := 10 * perJ
	// The pool covers every joule the honest tenants will consume
	// across both rounds, their live commitments, and all three
	// adversary drivers' held 10x commitments at once — so an honest
	// registration can only be starved by an accounting bug, never by
	// sizing. The adversary never settles an iteration: a held
	// commitment is the hogging, and it keeps the arithmetic exact.
	globalJ := (rounds*honest*perJ + (honest*perJ+advDrv*advMulJ)*DefaultReserve) * 1.05
	srv, err := New(Config{
		GlobalBudgetJ: globalJ,
		SweepInterval: -1, // the test drives QoSTick itself
		QoS:           qos.Config{Enabled: true, ShedPressure: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The observe ticker: fast enough that the whole escalation arc
	// (3 overruns per rung) fits inside the churn window many times.
	tickStop := make(chan struct{})
	var tickWG sync.WaitGroup
	tickWG.Add(1)
	go func() {
		defer tickWG.Done()
		tick := time.NewTicker(tickGap)
		defer tick.Stop()
		for {
			select {
			case <-tickStop:
				return
			case <-tick.C:
				srv.QoSTick()
			}
		}
	}()

	var (
		mu         sync.Mutex
		honestErrs []error
		advDenials atomic.Int64
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		honestErrs = append(honestErrs, fmt.Errorf(format, args...))
		mu.Unlock()
	}
	isDenial := func(code string) bool {
		return code == wire.CodeTenantThrottled || code == wire.CodeTenantSuspended || code == wire.CodeTenantShed
	}

	var honestWG sync.WaitGroup
	for i := 0; i < honest; i++ {
		honestWG.Add(1)
		go func(i int) {
			defer honestWG.Done()
			tenant := fmt.Sprintf("honest-%02d", i)
			for r := 0; r < rounds; r++ {
				var reg wire.RegisterResponse
				status, werr := doJSON(t, ts, "POST", wire.BasePath, wire.RegisterRequest{
					Tenant: tenant, Tier: "guaranteed", App: "radar", Platform: "Tablet",
					Iterations: iters, BudgetJ: perJ, MinAccuracy: minAcc,
					Seed: int64(i*rounds + r + 1),
				}, &reg)
				if status != 201 {
					fail("honest %s round %d: register HTTP %d code %q: %s", tenant, r, status, werr.Code, werr.Error)
					return
				}
				m := tb.Machine()
				base := wire.BasePath + "/" + reg.SessionID
				for k := 0; k < iters; k++ {
					var next wire.NextResponse
					if status, werr := doJSON(t, ts, "POST", base+"/next", wire.NextRequest{NowS: m.ClockS}, &next); status != 200 {
						fail("honest %s iter %d: Next HTTP %d code %q", tenant, k, status, werr.Code)
						return
					}
					acc := m.Step(next.AppConfig, next.SysConfig, k)
					var dresp wire.DoneResponse
					if status, werr := doJSON(t, ts, "POST", base+"/done", wire.DoneRequest{
						NowS: m.ClockS, EnergyJ: m.EnergyJ, Accuracy: acc,
					}, &dresp); status != 200 {
						fail("honest %s iter %d: Done HTTP %d code %q", tenant, k, status, werr.Code)
						return
					}
				}
				var closed wire.CloseResponse
				if status, werr := doJSON(t, ts, "DELETE", base, nil, &closed); status != 200 {
					fail("honest %s round %d: close HTTP %d code %q", tenant, r, status, werr.Code)
					return
				}
				if closed.SpentJ > reg.GrantJ*slack {
					fail("honest %s round %d: spent %.2f J of a %.2f J grant (>%.0f%%)",
						tenant, r, closed.SpentJ, reg.GrantJ, slack*100)
				}
			}
		}(i)
	}

	// Adversary drivers: all hammer the same tenant, each registering a
	// 10x claim and then squatting on the grant — polling Next without
	// ever settling — until enforcement kills the session out from
	// under it, then re-registering straight through the denials.
	// Denials are the expected outcome; anything else is retried.
	advStop := make(chan struct{})
	var advWG sync.WaitGroup
	for d := 0; d < advDrv; d++ {
		advWG.Add(1)
		go func(d int) {
			defer advWG.Done()
			for {
				select {
				case <-advStop:
					return
				default:
				}
				var reg wire.RegisterResponse
				status, werr := doJSON(t, ts, "POST", wire.BasePath, wire.RegisterRequest{
					Tenant: "noisy", Tier: "best-effort", App: "radar", Platform: "Tablet",
					Iterations: iters, BudgetJ: advMulJ, Seed: int64(1000 + d),
				}, &reg)
				if status != 201 {
					if isDenial(werr.Code) {
						advDenials.Add(1)
					}
					time.Sleep(500 * time.Microsecond)
					continue
				}
				base := wire.BasePath + "/" + reg.SessionID
			hold:
				for {
					select {
					case <-advStop:
						doJSON(t, ts, "DELETE", base, nil, nil)
						return
					default:
					}
					// The first poll arms a decision; later ones bounce off
					// bad_sequence while the session is alive — both mean
					// the squat continues. A denial means the ladder or the
					// shedder got it.
					status, werr := doJSON(t, ts, "POST", base+"/next", wire.NextRequest{NowS: 0}, nil)
					switch {
					case status == 200 || werr.Code == wire.CodeBadSequence:
						time.Sleep(time.Millisecond)
					case isDenial(werr.Code):
						advDenials.Add(1)
						break hold
					default:
						break hold
					}
				}
				doJSON(t, ts, "DELETE", base, nil, nil)
			}
		}(d)
	}

	honestWG.Wait()
	// Keep the adversary and the ticker running a little longer: the
	// property must hold with hostile load still live, and the tail
	// guarantees the ladder has ticks to escalate even if the honest
	// workloads finished quickly.
	time.Sleep(coolDown)
	close(advStop)
	advWG.Wait()
	close(tickStop)
	tickWG.Wait()

	mu.Lock()
	defer mu.Unlock()
	for _, err := range honestErrs {
		t.Error(err)
	}
	if advDenials.Load() == 0 {
		t.Error("adversary ran unenforced: not one registration or decision was denied")
	}
	eng := srv.QoS()
	for i := 0; i < honest; i++ {
		tenant := fmt.Sprintf("honest-%02d", i)
		if st := eng.StateOf(tenant); st != qos.StateOK {
			t.Errorf("honest tenant %s ended at ladder state %v, want ok", tenant, st)
		}
	}
	info := srv.Broker().Info()
	if info.CommittedJ+info.ConsumedJ > info.GlobalJ+1e-6 {
		t.Errorf("broker over-committed under enforcement churn: %.2f + %.2f > %.2f",
			info.CommittedJ, info.ConsumedJ, info.GlobalJ)
	}
}
