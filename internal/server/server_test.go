package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"jouleguard"
	"jouleguard/internal/wire"
)

// testServer builds a Server with the background sweeper disabled (tests
// drive expiry explicitly) and an injectable clock.
func testServer(t *testing.T, globalJ float64, clock *time.Time) *Server {
	t.Helper()
	cfg := Config{GlobalBudgetJ: globalJ, SweepInterval: -1}
	if clock != nil {
		cfg.Clock = func() time.Time { return *clock }
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// shutdown tears a test server down without waiting on sessions a test
// deliberately left armed.
func shutdown(s *Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_ = s.Shutdown(ctx)
}

// testbed is app on plat; its Machine is the governed application the
// tests drive.
func testbed(t testing.TB, app, plat string) *jouleguard.Testbed {
	t.Helper()
	tb, err := jouleguard.NewTestbed(app, plat)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// doJSON is a bare-bones wire client for protocol-shape assertions.
func doJSON(t *testing.T, ts *httptest.Server, method, path string, body, out any) (int, wire.ErrorResponse) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode < 300 {
		if out != nil {
			if err := json.Unmarshal(raw, out); err != nil {
				t.Fatalf("decoding %s %s: %v (%s)", method, path, err, raw)
			}
		}
		return resp.StatusCode, wire.ErrorResponse{}
	}
	var werr wire.ErrorResponse
	_ = json.Unmarshal(raw, &werr)
	return resp.StatusCode, werr
}

// TestProtocolRoundTrip drives one session end to end over real HTTP:
// register, bracket every iteration, complete, introspect, close.
func TestProtocolRoundTrip(t *testing.T) {
	srv := testServer(t, 10000, nil)
	defer shutdown(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const iters = 40
	var reg wire.RegisterResponse
	status, _ := doJSON(t, ts, "POST", wire.BasePath, wire.RegisterRequest{
		Tenant: "t1", App: "radar", Platform: "Tablet", Iterations: iters, Factor: 2,
	}, &reg)
	if status != http.StatusCreated {
		t.Fatalf("register status %d", status)
	}
	if reg.SessionID == "" || reg.GrantJ <= 0 || reg.AppConfigs <= 0 || reg.SysConfigs <= 0 {
		t.Fatalf("register response %+v", reg)
	}

	m := testbed(t, "radar", "Tablet").Machine()
	base := wire.BasePath + "/" + reg.SessionID
	var last wire.DoneResponse
	for i := 0; i < iters; i++ {
		var next wire.NextResponse
		if status, werr := doJSON(t, ts, "POST", base+"/next", wire.NextRequest{NowS: m.ClockS}, &next); status != http.StatusOK {
			t.Fatalf("next %d: status %d %+v", i, status, werr)
		}
		acc := m.Step(next.AppConfig, next.SysConfig, i)
		if status, werr := doJSON(t, ts, "POST", base+"/done", wire.DoneRequest{
			NowS: m.ClockS, EnergyJ: m.EnergyJ, Accuracy: acc,
		}, &last); status != http.StatusOK {
			t.Fatalf("done %d: status %d %+v", i, status, werr)
		}
	}
	if !last.Complete || last.IterationsDone != iters {
		t.Fatalf("final done %+v", last)
	}
	if last.SpentJ > reg.GrantJ*1.05 {
		t.Fatalf("spent %.1f J of a %.1f J grant", last.SpentJ, reg.GrantJ)
	}

	// Next past completion is a conflict with a stable code.
	if status, werr := doJSON(t, ts, "POST", base+"/next", wire.NextRequest{NowS: m.ClockS}, nil); status != http.StatusConflict || werr.Code != wire.CodeSessionComplete {
		t.Fatalf("next past complete: %d %+v", status, werr)
	}

	// Introspection includes the learned estimates.
	var info wire.SessionInfo
	if status, _ := doJSON(t, ts, "GET", base, nil, &info); status != http.StatusOK {
		t.Fatalf("info status %d", status)
	}
	if info.State != "complete" || len(info.Estimates) == 0 {
		t.Fatalf("info %+v", info)
	}

	// Close reclaims the grant and the session is gone afterwards.
	var closed wire.CloseResponse
	if status, _ := doJSON(t, ts, "DELETE", base, nil, &closed); status != http.StatusOK {
		t.Fatalf("close status %d", status)
	}
	if status, werr := doJSON(t, ts, "DELETE", base, nil, nil); status != http.StatusGone || werr.Code != wire.CodeSessionClosed {
		t.Fatalf("double close: %d %+v", status, werr)
	}
	if avail := srv.Broker().Available(); avail <= 0 {
		t.Fatalf("grant not reclaimed: available %.1f", avail)
	}
}

// TestProtocolErrors pins the error surface: bad registrations, unknown
// sessions, sequencing conflicts, budget exhaustion.
func TestProtocolErrors(t *testing.T) {
	srv := testServer(t, 100, nil)
	defer shutdown(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, bad := range []wire.RegisterRequest{
		{App: "x264", Platform: "Server", Iterations: 0},                          // no iterations
		{App: "nope", Platform: "Server", Iterations: 10},                         // unknown app
		{App: "x264", Platform: "Server", Iterations: 10, Factor: 2, BudgetJ: 10}, // both goals
		{App: "x264", Platform: "Server", Iterations: 10, Factor: -1},             // negative
	} {
		if status, werr := doJSON(t, ts, "POST", wire.BasePath, bad, nil); status != http.StatusBadRequest || werr.Code != wire.CodeBadRequest {
			t.Fatalf("bad register %+v: %d %+v", bad, status, werr)
		}
	}

	// Unknown session.
	if status, werr := doJSON(t, ts, "POST", wire.BasePath+"/s-000099/next", wire.NextRequest{}, nil); status != http.StatusNotFound || werr.Code != wire.CodeUnknownSession {
		t.Fatalf("unknown session: %d %+v", status, werr)
	}

	// Sequencing: Done before Next, then Next twice.
	var reg wire.RegisterResponse
	doJSON(t, ts, "POST", wire.BasePath, wire.RegisterRequest{
		App: "radar", Platform: "Tablet", Iterations: 10, BudgetJ: 5,
	}, &reg)
	base := wire.BasePath + "/" + reg.SessionID
	if status, werr := doJSON(t, ts, "POST", base+"/done", wire.DoneRequest{}, nil); status != http.StatusConflict || werr.Code != wire.CodeBadSequence {
		t.Fatalf("done before next: %d %+v", status, werr)
	}
	doJSON(t, ts, "POST", base+"/next", wire.NextRequest{}, nil)
	if status, werr := doJSON(t, ts, "POST", base+"/next", wire.NextRequest{}, nil); status != http.StatusConflict || werr.Code != wire.CodeBadSequence {
		t.Fatalf("next twice: %d %+v", status, werr)
	}

	// Budget exhaustion: the 100 J pool cannot honor 200 J more.
	if status, werr := doJSON(t, ts, "POST", wire.BasePath, wire.RegisterRequest{
		App: "radar", Platform: "Tablet", Iterations: 10, BudgetJ: 200,
	}, nil); status != http.StatusTooManyRequests || werr.Code != wire.CodeBudgetExhausted {
		t.Fatalf("exhaustion: %d %+v", status, werr)
	}
}

// TestDrainingRefusesNewWork pins graceful shutdown: registrations and
// Next calls get the retryable draining code, in-flight Done settles.
func TestDrainingRefusesNewWork(t *testing.T) {
	srv := testServer(t, 1000, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var reg wire.RegisterResponse
	doJSON(t, ts, "POST", wire.BasePath, wire.RegisterRequest{
		App: "radar", Platform: "Tablet", Iterations: 10, BudgetJ: 100,
	}, &reg)
	base := wire.BasePath + "/" + reg.SessionID
	m := testbed(t, "radar", "Tablet").Machine()
	var next wire.NextResponse
	doJSON(t, ts, "POST", base+"/next", wire.NextRequest{NowS: m.ClockS}, &next)

	// Shutdown with an armed iteration outstanding: the drain must wait
	// for its Done, which is still accepted.
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- srv.Shutdown(ctx)
	}()
	time.Sleep(20 * time.Millisecond)

	if status, werr := doJSON(t, ts, "POST", wire.BasePath, wire.RegisterRequest{
		App: "radar", Platform: "Tablet", Iterations: 10, BudgetJ: 10,
	}, nil); status != http.StatusServiceUnavailable || werr.Code != wire.CodeDraining {
		t.Fatalf("register while draining: %d %+v", status, werr)
	}

	acc := m.Step(next.AppConfig, next.SysConfig, 0)
	if status, werr := doJSON(t, ts, "POST", base+"/done", wire.DoneRequest{
		NowS: m.ClockS, EnergyJ: m.EnergyJ, Accuracy: acc,
	}, nil); status != http.StatusOK {
		t.Fatalf("done while draining: %d %+v", status, werr)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if status, werr := doJSON(t, ts, "POST", base+"/next", wire.NextRequest{NowS: m.ClockS}, nil); status != http.StatusServiceUnavailable || werr.Code != wire.CodeDraining {
		t.Fatalf("next after drain: %d %+v", status, werr)
	}
}

// TestIdleExpiry pins the watchdog: a session with no wire activity past
// its timeout is expired and its grant reclaimed.
func TestIdleExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	srv := testServer(t, 1000, &now)
	defer shutdown(srv)

	resp, err := srv.Register(wire.RegisterRequest{
		App: "radar", Platform: "Tablet", Iterations: 10, BudgetJ: 100,
		IdleTimeoutS: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	availBefore := srv.Broker().Available()

	now = now.Add(20 * time.Second)
	if n := srv.ExpireIdle(); n != 0 {
		t.Fatalf("expired %d sessions before the timeout", n)
	}
	now = now.Add(11 * time.Second)
	if n := srv.ExpireIdle(); n != 1 {
		t.Fatalf("expired %d sessions after the timeout", n)
	}
	if avail := srv.Broker().Available(); avail <= availBefore {
		t.Fatalf("grant not reclaimed: %.1f -> %.1f", availBefore, avail)
	}
	// The expired session answers with a terminal code.
	sess, _ := srv.lookup(resp.SessionID)
	if _, werr := sess.next(wire.NextRequest{}, monoNS()); werr == nil || werr.Code != wire.CodeSessionClosed {
		t.Fatalf("next on expired session: %+v", werr)
	}
}

// TestIdleExpiryAfterDone pins idle expiry's resolution now that Done
// reads no clock: the expiry sweep dates a Done, so with a sweep every
// interval a session whose last call was a Done at t is never expired by
// a sweep at or before t+timeout, and is by the first sweep after
// t+timeout+interval. Next is stamped 10 s before the Done, so a Done the
// sweep failed to date would expire the session 10 s early.
func TestIdleExpiryAfterDone(t *testing.T) {
	const timeout, interval = 30 * time.Second, time.Second
	now := time.Unix(1000, 0)
	srv := testServer(t, 1000, &now)
	defer shutdown(srv)
	resp, err := srv.Register(wire.RegisterRequest{
		App: "radar", Platform: "Tablet", Iterations: 10, BudgetJ: 100,
		IdleTimeoutS: timeout.Seconds(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sweep := func(until time.Time) {
		t.Helper()
		for ; !now.After(until); now = now.Add(interval) {
			if n := srv.ExpireIdle(); n != 0 {
				t.Fatalf("sweep at %v expired %d sessions", now, n)
			}
		}
	}
	if _, err := srv.Next(resp.SessionID, wire.NextRequest{NowS: 0}); err != nil {
		t.Fatal(err)
	}
	sweep(now.Add(10 * time.Second))
	done := now
	if _, err := srv.Done(resp.SessionID, wire.DoneRequest{NowS: 10, EnergyJ: 10, Accuracy: 1}); err != nil {
		t.Fatal(err)
	}
	sweep(done.Add(timeout))
	now = done.Add(timeout + interval + time.Nanosecond)
	if n := srv.ExpireIdle(); n != 1 {
		t.Fatalf("sweep one interval after the timeout expired %d sessions, want 1", n)
	}
}

// TestMetricsAndSessionDecisions pins the observability wiring: broker
// and session metrics appear on /metrics, and /decisions?session=
// filters the flight recorder by the session tag.
func TestMetricsAndSessionDecisions(t *testing.T) {
	srv := testServer(t, 1000, nil)
	defer shutdown(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var reg wire.RegisterResponse
	doJSON(t, ts, "POST", wire.BasePath, wire.RegisterRequest{
		App: "radar", Platform: "Tablet", Iterations: 10, BudgetJ: 100,
	}, &reg)
	m := testbed(t, "radar", "Tablet").Machine()
	base := wire.BasePath + "/" + reg.SessionID
	for i := 0; i < 5; i++ {
		var next wire.NextResponse
		doJSON(t, ts, "POST", base+"/next", wire.NextRequest{NowS: m.ClockS}, &next)
		acc := m.Step(next.AppConfig, next.SysConfig, i)
		doJSON(t, ts, "POST", base+"/done", wire.DoneRequest{NowS: m.ClockS, EnergyJ: m.EnergyJ, Accuracy: acc}, nil)
	}

	scrape, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(scrape.Body)
	scrape.Body.Close()
	for _, want := range []string{
		"jouleguardd_broker_global_joules",
		"jouleguardd_broker_committed_joules",
		"jouleguardd_sessions_opened_total 1",
		"jouleguardd_decision_seconds",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}

	dec, err := ts.Client().Get(ts.URL + "/decisions?session=" + reg.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	lines, _ := io.ReadAll(dec.Body)
	dec.Body.Close()
	n := 0
	for _, line := range bytes.Split(bytes.TrimSpace(lines), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var d struct {
			Session string `json:"session"`
		}
		if err := json.Unmarshal(line, &d); err != nil {
			t.Fatalf("decision line %q: %v", line, err)
		}
		if d.Session != reg.SessionID {
			t.Fatalf("decision tagged %q, want %q", d.Session, reg.SessionID)
		}
		n++
	}
	if n != 5 {
		t.Fatalf("filtered decisions: %d, want 5", n)
	}
	// A bogus session filter yields nothing.
	dec2, _ := ts.Client().Get(ts.URL + "/decisions?session=s-999999")
	lines2, _ := io.ReadAll(dec2.Body)
	dec2.Body.Close()
	if len(bytes.TrimSpace(lines2)) != 0 {
		t.Fatalf("bogus filter returned %q", lines2)
	}
}

// TestListSessions pins the fleet listing: broker ledger plus sessions in
// creation order.
func TestListSessions(t *testing.T) {
	srv := testServer(t, 10000, nil)
	defer shutdown(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		doJSON(t, ts, "POST", wire.BasePath, wire.RegisterRequest{
			Tenant: fmt.Sprintf("t%d", i), App: "radar", Platform: "Tablet",
			Iterations: 10, BudgetJ: 100,
		}, nil)
	}
	var list wire.ListResponse
	if status, _ := doJSON(t, ts, "GET", wire.BasePath, nil, &list); status != http.StatusOK {
		t.Fatalf("list status %d", status)
	}
	if list.Broker.Active != 3 || len(list.Sessions) != 3 {
		t.Fatalf("list %+v", list)
	}
	for i := 1; i < len(list.Sessions); i++ {
		if list.Sessions[i-1].SessionID >= list.Sessions[i].SessionID {
			t.Fatalf("sessions out of order: %s >= %s", list.Sessions[i-1].SessionID, list.Sessions[i].SessionID)
		}
	}
}

// TestNaNClockDoneRetries: a Done whose clock is NaN is refused without
// settling the iteration, and the session stays armed, so the client's
// retry with a good clock settles it and the session carries on.
func TestNaNClockDoneRetries(t *testing.T) {
	srv := testServer(t, 1000, nil)
	defer shutdown(srv)
	resp, err := srv.Register(wire.RegisterRequest{App: "radar", Platform: "Tablet", Iterations: 10, BudgetJ: 100})
	if err != nil {
		t.Fatal(err)
	}
	id := resp.SessionID
	if _, err := srv.Next(id, wire.NextRequest{NowS: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Done(id, wire.DoneRequest{NowS: math.NaN(), EnergyJ: 1, Accuracy: 1}); err == nil {
		t.Fatal("Done on a NaN clock was accepted")
	}
	done, err := srv.Done(id, wire.DoneRequest{NowS: 1, EnergyJ: 1, Accuracy: 1})
	if err != nil {
		t.Fatalf("retrying Done on a good clock: %v", err)
	}
	if done.IterationsDone != 1 {
		t.Fatalf("retried Done settled %d iterations, want 1", done.IterationsDone)
	}
	if _, err := srv.Next(id, wire.NextRequest{NowS: 1}); err != nil {
		t.Fatalf("Next after the retried Done: %v", err)
	}
}

// TestNonFiniteAccuracyRefused: an in-process Done whose accuracy is NaN
// or infinite is refused as bad_request with the iteration still armed,
// so nothing non-finite reaches the session's mean accuracy and the
// introspection endpoints keep answering JSON; a retry with a finite
// accuracy settles the iteration.
func TestNonFiniteAccuracyRefused(t *testing.T) {
	srv := testServer(t, 1000, nil)
	defer shutdown(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := srv.Register(wire.RegisterRequest{App: "radar", Platform: "Tablet", Iterations: 10, BudgetJ: 100})
	if err != nil {
		t.Fatal(err)
	}
	id := resp.SessionID
	if _, err := srv.Next(id, wire.NextRequest{NowS: 0}); err != nil {
		t.Fatal(err)
	}
	for _, acc := range []float64{math.NaN(), math.Inf(1), math.NaN()} {
		_, err := srv.Done(id, wire.DoneRequest{NowS: 1, EnergyJ: 1, Accuracy: acc})
		if wire.CodeOf(err) != wire.CodeBadRequest {
			t.Fatalf("Done with accuracy %v: %v, want bad_request", acc, err)
		}
	}
	var list wire.ListResponse
	if status, werr := doJSON(t, ts, "GET", wire.BasePath, nil, &list); status != http.StatusOK || len(list.Sessions) != 1 {
		t.Fatalf("GET %s: HTTP %d %+v, %d sessions", wire.BasePath, status, werr, len(list.Sessions))
	}
	var info wire.SessionInfo
	if status, werr := doJSON(t, ts, "GET", wire.BasePath+"/"+id, nil, &info); status != http.StatusOK || info.State != "armed" {
		t.Fatalf("GET %s/%s: HTTP %d %+v, state %q; want 200 and armed", wire.BasePath, id, status, werr, info.State)
	}
	done, err := srv.Done(id, wire.DoneRequest{NowS: 1, EnergyJ: 1, Accuracy: 0.75})
	if err != nil {
		t.Fatalf("retrying Done with a finite accuracy: %v", err)
	}
	if done.IterationsDone != 1 {
		t.Fatalf("retried Done settled %d iterations, want 1", done.IterationsDone)
	}
	if status, _ := doJSON(t, ts, "GET", wire.BasePath+"/"+id, nil, &info); status != http.StatusOK || info.MeanAcc != 0.75 {
		t.Fatalf("after the retry: HTTP %d, mean accuracy %v; want 200 and 0.75", status, info.MeanAcc)
	}
}
