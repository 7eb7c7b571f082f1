package client_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jouleguard"
	"jouleguard/internal/client"
	"jouleguard/internal/server"
	"jouleguard/internal/wire"
)

// newMachine is the modeled radar-on-Tablet machine a test's governed
// application runs on.
func newMachine(t *testing.T) *jouleguard.Machine {
	t.Helper()
	tb, err := jouleguard.NewTestbed("radar", "Tablet")
	if err != nil {
		t.Fatal(err)
	}
	return tb.Machine()
}

func newDaemon(t *testing.T, globalJ float64) *server.Server {
	t.Helper()
	srv, err := server.New(server.Config{GlobalBudgetJ: globalJ, SweepInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv
}

// TestClientSessionLoop drives a whole workload through the client
// library against a real daemon over HTTP.
func TestClientSessionLoop(t *testing.T) {
	ctx := context.Background()
	srv := newDaemon(t, 10000)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	m := newMachine(t)
	sess, err := client.Open(ctx, client.Options{
		BaseURL: ts.URL, Tenant: "t1", App: "radar", Platform: "Tablet",
		Iterations: 30, Factor: 2, Seed: 3,
	}, m.ReadEnergy, m.Now)
	if err != nil {
		t.Fatal(err)
	}
	if sess.ID() == "" || sess.GrantJ() <= 0 {
		t.Fatalf("session %q grant %.1f", sess.ID(), sess.GrantJ())
	}
	for i := 0; i < 30; i++ {
		appCfg, sysCfg, err := sess.Next(ctx)
		if err != nil {
			t.Fatalf("next %d: %v", i, err)
		}
		if err := sess.Done(ctx, m.Step(appCfg, sysCfg, i)); err != nil {
			t.Fatalf("done %d: %v", i, err)
		}
	}
	if st := sess.LastStatus(); !st.Complete || st.IterationsDone != 30 {
		t.Fatalf("final status %+v", st)
	}
	info, err := sess.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != "complete" || len(info.Estimates) == 0 {
		t.Fatalf("info %+v", info)
	}
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(ctx); err != nil { // idempotent client-side
		t.Fatalf("second close: %v", err)
	}
}

// TestClientRetriesTransientFailures pins the backoff layer: 5xx and
// draining replies are retried with exponential delays; protocol errors
// are not retried. Registration survives two outages on a session pinned
// to v1, and on one whose daemon refuses the v2 upgrade — the refusal
// sends the register to v1, whose retries carry it through.
func TestClientRetriesTransientFailures(t *testing.T) {
	for _, tc := range []struct {
		name      string
		disableV2 bool // the session never asks for a stream
		refuseV2  bool // the daemon answers every upgrade 503 draining
	}{
		{name: "v1 only", disableV2: true},
		{name: "upgrade refused", refuseV2: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			retriesTransientFailures(t, tc.disableV2, tc.refuseV2)
		})
	}
}

func retriesTransientFailures(t *testing.T, disableV2, refuseV2 bool) {
	ctx := context.Background()
	srv := newDaemon(t, 10000)
	inner := srv.Handler()
	var fail atomic.Int32 // fail the next N v1 requests with 503 draining
	drain := func(w http.ResponseWriter) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"code":"draining","error":"restarting"}`))
	}
	outer := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == wire.V2Path {
			if refuseV2 {
				drain(w)
				return
			}
			t.Errorf("a session with DisableV2 asked for a stream")
		}
		if fail.Load() > 0 {
			fail.Add(-1)
			drain(w)
			return
		}
		inner.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(outer)
	defer ts.Close()

	var mu sync.Mutex
	var delays []time.Duration
	retry := client.RetryPolicy{
		MaxAttempts: 5,
		BaseDelay:   time.Millisecond,
		MaxDelay:    4 * time.Millisecond,
		Sleep: func(d time.Duration) {
			mu.Lock()
			delays = append(delays, d)
			mu.Unlock()
		},
	}

	m := newMachine(t)
	fail.Store(2) // registration itself must survive two outages
	sess, err := client.Open(ctx, client.Options{
		BaseURL: ts.URL, App: "radar", Platform: "Tablet",
		Iterations: 5, BudgetJ: 10, Retry: retry, DisableV2: disableV2,
	}, m.ReadEnergy, m.Now)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if len(delays) != 2 || delays[0] != time.Millisecond || delays[1] != 2*time.Millisecond {
		t.Fatalf("backoff delays %v", delays)
	}
	mu.Unlock()

	// Exhausting the attempts surfaces the last transient error.
	fail.Store(100)
	if _, _, err := sess.Next(ctx); err == nil || !strings.Contains(err.Error(), "after 5 attempts") {
		t.Fatalf("expected retries-exhausted error, got %v", err)
	}
	fail.Store(0)

	// Protocol errors do not retry: closing twice server-side is Gone
	// immediately (one request, no sleeps).
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	before := len(delays)
	mu.Unlock()
	_, err = client.Open(ctx, client.Options{
		BaseURL: ts.URL, App: "radar", Platform: "Tablet",
		Iterations: 5, BudgetJ: 1e9, Retry: retry, DisableV2: disableV2,
	}, m.ReadEnergy, m.Now)
	if !client.IsCode(err, wire.CodeBudgetExhausted) {
		t.Fatalf("over-budget registration: got %v, want budget-exhausted", err)
	}
	mu.Lock()
	if len(delays) != before {
		t.Fatalf("protocol error was retried: %d sleeps added", len(delays)-before)
	}
	mu.Unlock()
}

// TestClientRidesThroughRestart pins the recovery protocol: the daemon
// dies with an iteration armed, a restored daemon comes back at the last
// completed iteration, and the client's Done re-brackets transparently.
func TestClientRidesThroughRestart(t *testing.T) {
	ctx := context.Background()
	srv1 := newDaemon(t, 10000)
	var handler atomic.Value
	handler.Store(srv1.Handler())
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer ts.Close()

	m := newMachine(t)
	sess, err := client.Open(ctx, client.Options{
		BaseURL: ts.URL, App: "radar", Platform: "Tablet",
		Iterations: 20, Factor: 2, Seed: 5,
		Retry: client.RetryPolicy{BaseDelay: time.Millisecond, Sleep: func(time.Duration) {}},
	}, m.ReadEnergy, m.Now)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		appCfg, sysCfg, err := sess.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Done(ctx, m.Step(appCfg, sysCfg, i)); err != nil {
			t.Fatal(err)
		}
	}

	// Arm iteration 10, then kill the daemon before Done reaches it.
	appCfg, sysCfg, err := sess.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	acc := m.Step(appCfg, sysCfg, 10)

	var snap strings.Builder
	if err := srv1.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	srv2 := newDaemon(t, 1)
	if err := srv2.Restore(strings.NewReader(snap.String())); err != nil {
		t.Fatal(err)
	}
	handler.Store(srv2.Handler())

	// Done hits the restored daemon, which sits at iteration 10 with no
	// armed bracket: the client re-brackets and the work is accounted.
	if err := sess.Done(ctx, acc); err != nil {
		t.Fatalf("done across restart: %v", err)
	}
	if st := sess.LastStatus(); st.IterationsDone != 11 {
		t.Fatalf("iterations after recovery: %+v", st)
	}

	// The rest of the workload runs to completion on the new daemon.
	for i := 11; i < 20; i++ {
		appCfg, sysCfg, err := sess.Next(ctx)
		if err != nil {
			t.Fatalf("next %d after restart: %v", i, err)
		}
		if err := sess.Done(ctx, m.Step(appCfg, sysCfg, i)); err != nil {
			t.Fatalf("done %d after restart: %v", i, err)
		}
	}
	if st := sess.LastStatus(); !st.Complete {
		t.Fatalf("workload incomplete after restart: %+v", st)
	}
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if wire.Version != "v1" {
		t.Fatal("wire version drifted")
	}
}

// TestClientContextCancelsBackoff pins the context contract: a caller
// cancelling mid-retry gets control back immediately — the backoff
// sleep and any in-flight request are abandoned, not ridden out.
func TestClientContextCancelsBackoff(t *testing.T) {
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"code":"draining","error":"down"}`))
	}))
	defer down.Close()

	m := newMachine(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := client.Open(ctx, client.Options{
		BaseURL: down.URL, App: "radar", Platform: "Tablet",
		Iterations: 5, Factor: 2,
		// Delays so long that only cancellation can end the call quickly.
		Retry: client.RetryPolicy{MaxAttempts: 100, BaseDelay: 10 * time.Second, MaxDelay: time.Minute},
	}, m.ReadEnergy, m.Now)
	if err == nil {
		t.Fatal("open against a permanently draining daemon succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("cancellation took %v — backoff was not interrupted", waited)
	}
}

// TestClientRotatesPastStandbyAtOnce pins the error contract's Rotate
// class on the placement path: a coordinator list that starts with a
// standby answering 503 not_primary moves on to the primary after one
// request and no backoff sleep — a 503 alone does not mean "retry here".
func TestClientRotatesPastStandbyAtOnce(t *testing.T) {
	ctx := context.Background()
	daemon := httptest.NewServer(newDaemon(t, 10000).Handler())
	defer daemon.Close()
	var standbyHits atomic.Int32
	standby := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		standbyHits.Add(1)
		wire.WriteError(w, &wire.Error{Code: wire.CodeNotPrimary, Msg: "standby coordinator; retry against the primary"})
	}))
	defer standby.Close()
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		wire.WriteJSON(w, http.StatusOK, wire.PlacementResponse{Key: "k", Node: "n1", Addr: daemon.URL, Fence: 1})
	}))
	defer primary.Close()

	var sleeps atomic.Int32
	m := newMachine(t)
	sess, err := client.Open(ctx, client.Options{
		CoordinatorURL: standby.URL, CoordinatorURLs: []string{primary.URL}, Key: "k",
		App: "radar", Platform: "Tablet", Iterations: 5, Factor: 2,
		Retry: client.RetryPolicy{Sleep: func(time.Duration) { sleeps.Add(1) }},
	}, m.ReadEnergy, m.Now)
	if err != nil {
		t.Fatal(err)
	}
	if n := standbyHits.Load(); n != 1 {
		t.Errorf("standby saw %d placement requests, want 1", n)
	}
	if n := sleeps.Load(); n != 0 {
		t.Errorf("%d backoff sleeps before rotating, want 0", n)
	}
	if sess.CoordFailovers() != 1 || sess.Fence() != 1 {
		t.Errorf("coordinator failovers %d fence %d, want 1 and 1", sess.CoordFailovers(), sess.Fence())
	}
}
