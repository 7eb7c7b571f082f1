package server

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"jouleguard/internal/wire"
)

// TestConcurrentTenants hammers one daemon with 32 goroutine tenants
// registering, stepping and closing simultaneously (run under -race by
// `make race`). It pins the global conservation guarantee — the sum of
// per-tenant spend never exceeds the global budget — and that session
// IDs are never reused across the churn.
func TestConcurrentTenants(t *testing.T) {
	const (
		tenants = 32
		iters   = 25
		perJ    = 10.0
	)
	// Pool sized so every tenant fits (with reserve) but with little
	// slack to spare, so an accounting leak would overrun it.
	globalJ := tenants * perJ * DefaultReserve * 1.02
	srv := testServer(t, globalJ, nil)
	defer shutdown(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var (
		mu     sync.Mutex
		ids    = map[string]bool{}
		spent  float64
		errors []error
	)
	tb := testbed(t, "radar", "Tablet")
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var reg wire.RegisterResponse
			status, werr := doJSON(t, ts, "POST", wire.BasePath, wire.RegisterRequest{
				Tenant: "t", App: "radar", Platform: "Tablet",
				Iterations: iters, BudgetJ: perJ, Seed: int64(i + 1),
			}, &reg)
			if status != 201 {
				mu.Lock()
				errors = append(errors, &wire.Error{Code: werr.Code, Msg: werr.Error})
				mu.Unlock()
				return
			}
			mu.Lock()
			if ids[reg.SessionID] {
				errors = append(errors, &wire.Error{Code: "dup", Msg: "session id reused: " + reg.SessionID})
				mu.Unlock()
				return
			}
			ids[reg.SessionID] = true
			mu.Unlock()

			m := tb.Machine()
			base := wire.BasePath + "/" + reg.SessionID
			var last wire.DoneResponse
			for k := 0; k < iters; k++ {
				var next wire.NextResponse
				if status, _ := doJSON(t, ts, "POST", base+"/next", wire.NextRequest{NowS: m.ClockS}, &next); status != 200 {
					break
				}
				acc := m.Step(next.AppConfig, next.SysConfig, k)
				if status, _ := doJSON(t, ts, "POST", base+"/done", wire.DoneRequest{
					NowS: m.ClockS, EnergyJ: m.EnergyJ, Accuracy: acc,
				}, &last); status != 200 {
					break
				}
			}
			var closed wire.CloseResponse
			doJSON(t, ts, "DELETE", base, nil, &closed)
			mu.Lock()
			spent += closed.SpentJ
			mu.Unlock()
		}(i)
	}
	wg.Wait()

	for _, err := range errors {
		t.Error(err)
	}
	if spent > globalJ {
		t.Fatalf("conservation violated: tenants spent %.2f J of a %.2f J pool", spent, globalJ)
	}
	info := srv.Broker().Info()
	if info.CommittedJ+info.ConsumedJ > info.GlobalJ+1e-6 {
		t.Fatalf("broker over-committed: %.2f + %.2f > %.2f", info.CommittedJ, info.ConsumedJ, info.GlobalJ)
	}
	if info.Active != 0 {
		t.Fatalf("sessions leaked: %d still active", info.Active)
	}
	if len(ids) != tenants {
		t.Fatalf("expected %d distinct sessions, got %d", tenants, len(ids))
	}
}

// TestConcurrentRegisterDuringShutdown races registrations against
// Shutdown: every registration either succeeds (and its grant is later
// reclaimable) or is refused with the draining code — never half-admitted.
func TestConcurrentRegisterDuringShutdown(t *testing.T) {
	srv := testServer(t, 100000, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	admitted := make([]string, 0)
	var mu sync.Mutex
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var reg wire.RegisterResponse
			status, werr := doJSON(t, ts, "POST", wire.BasePath, wire.RegisterRequest{
				App: "radar", Platform: "Tablet", Iterations: 5, BudgetJ: 10,
			}, &reg)
			switch {
			case status == 201:
				mu.Lock()
				admitted = append(admitted, reg.SessionID)
				mu.Unlock()
			case status == 503 && werr.Code == wire.CodeDraining:
				// refused cleanly
			default:
				t.Errorf("register during shutdown: %d %+v", status, werr)
			}
		}(i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
	wg.Wait()

	// Everyone admitted holds a real grant; the ledger must balance.
	info := srv.Broker().Info()
	if info.Active != len(admitted) {
		t.Fatalf("broker sees %d active, %d sessions admitted", info.Active, len(admitted))
	}
	if info.CommittedJ+info.ConsumedJ > info.GlobalJ+1e-6 {
		t.Fatalf("over-committed during shutdown race")
	}
}
