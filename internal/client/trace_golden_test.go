package client_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"

	"jouleguard/internal/client"
	"jouleguard/internal/telemetry"
)

// runTracedWorkload drives one fixed-seed v2 workload and returns the
// daemon's snapshot taken right after the final settle — the full
// event-sourced daemon state (ledger header, session, iteration log) as
// bytes — plus how many spans the daemon recorded.
func runTracedWorkload(t *testing.T, traceEvery int, tracer *telemetry.SpanBuffer) ([]byte, int) {
	t.Helper()
	const iters = 40
	srv := newDaemon(t, 20000)
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		srv.CloseV2Streams()
		ts.Close()
	}()

	ctx := context.Background()
	m := newMachine(t)
	sess, err := client.Open(ctx, client.Options{
		BaseURL: ts.URL, Tenant: "golden", App: "radar", Platform: "Tablet",
		Iterations: iters, Factor: 2, Seed: 77,
		TraceEvery: traceEvery, Tracer: tracer,
	}, m.ReadEnergy, m.Now)
	if err != nil {
		t.Fatal(err)
	}
	appCfg, sysCfg, err := sess.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < iters; i++ {
		acc := m.Step(appCfg, sysCfg, i)
		if i == iters-1 {
			if err := sess.Done(ctx, acc); err != nil {
				t.Fatalf("final done: %v", err)
			}
			break
		}
		appCfg, sysCfg, err = sess.DoneNext(ctx, acc)
		if err != nil {
			t.Fatalf("done+next %d: %v", i, err)
		}
	}
	// Snapshot before Close: the session's whole replay log is the state
	// under comparison.
	var snap bytes.Buffer
	if err := srv.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	spans := len(srv.Telemetry().Spans.Snapshot(0))
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	return snap.Bytes(), spans
}

// TestTracedExchangeGoldenState pins the tracing layer's zero-effect
// contract: a v2 exchange with every round traced (trace contexts on
// the wire, spans recorded at each hop) must land the daemon on
// byte-identical state to the same exchange untraced. Tracing observes
// the decision path; it must never perturb it.
func TestTracedExchangeGoldenState(t *testing.T) {
	tracer := telemetry.NewSpanBuffer(64)
	tracer.SetNode("golden-client")
	traced, tracedSpans := runTracedWorkload(t, 1, tracer)
	untraced, untracedSpans := runTracedWorkload(t, -1, nil)

	// Prove the traced run actually traced and the untraced run did not.
	if tracedSpans == 0 {
		t.Fatal("traced run recorded no daemon spans")
	}
	if untracedSpans != 0 {
		t.Fatalf("untraced run recorded %d daemon spans", untracedSpans)
	}
	if len(tracer.Snapshot(0)) == 0 {
		t.Fatal("traced run recorded no client root spans")
	}
	if !bytes.Equal(traced, untraced) {
		t.Fatalf("traced exchange diverged from untraced golden state:\n traced:   %s\n untraced: %s",
			firstDiffLine(traced, untraced), firstDiffLine(untraced, traced))
	}
}

// firstDiffLine returns the first JSONL line of a that differs from b's
// corresponding line, for a readable failure.
func firstDiffLine(a, b []byte) []byte {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := range al {
		if i >= len(bl) || !bytes.Equal(al[i], bl[i]) {
			return al[i]
		}
	}
	return nil
}
