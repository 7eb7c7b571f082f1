package client_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"jouleguard/internal/client"
	"jouleguard/internal/wire"
)

// wireCounts is what one golden run sent over v1 JSON: per-iteration
// calls (next/done) and lifecycle calls (register, close).
type wireCounts struct {
	decisions atomic.Int64
	lifecycle atomic.Int64
}

// countingHandler wraps a daemon handler and counts the v1 JSON calls
// that carry a session, so tests can prove which protocol carried it.
func countingHandler(inner http.Handler) (http.Handler, *wireCounts) {
	var n wireCounts
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasSuffix(r.URL.Path, "/next") || strings.HasSuffix(r.URL.Path, "/done"):
			n.decisions.Add(1)
		case r.Method == http.MethodPost && r.URL.Path == wire.BasePath,
			r.Method == http.MethodDelete && strings.HasPrefix(r.URL.Path, wire.BasePath+"/"):
			n.lifecycle.Add(1)
		}
		inner.ServeHTTP(w, r)
	})
	return h, &n
}

// goldenRun is one golden workload's outcome: the session's live view
// before Close, the daemon's whole listing (broker ledger and the closed
// session) after it, and the v1 calls the wire saw.
type goldenRun struct {
	live      wire.SessionInfo
	final     []byte
	decisions int64
	lifecycle int64
}

// runGoldenWorkload drives one full fixed-seed workload, Open to Close,
// against a fresh daemon.
func runGoldenWorkload(t *testing.T, disableV2 bool) goldenRun {
	t.Helper()
	const iters = 40
	srv := newDaemon(t, 20000)
	h, counts := countingHandler(srv.Handler())
	ts := httptest.NewServer(h)
	defer func() {
		// Hijacked v2 streams are invisible to httptest's teardown.
		srv.CloseV2Streams()
		ts.Close()
	}()

	ctx := context.Background()
	m := newMachine(t)
	sess, err := client.Open(ctx, client.Options{
		BaseURL: ts.URL, Tenant: "golden", App: "radar", Platform: "Tablet",
		Iterations: iters, Factor: 2, Seed: 77,
		DisableV2: disableV2,
	}, m.ReadEnergy, m.Now)
	if err != nil {
		t.Fatal(err)
	}
	// The steady-state loop every governed application runs: the v2
	// client batches Done+Next into one frame; the v1 client issues two
	// JSON POSTs. Both must produce the same governor trajectory.
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
	if st := sess.LastStatus(); !st.Complete || st.IterationsDone != iters {
		t.Fatalf("final status %+v", st)
	}
	info, err := sess.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if sess.LastStatus().SpentJ <= 0 {
		t.Fatalf("close settled %v J", sess.LastStatus().SpentJ)
	}
	resp, err := http.Get(ts.URL + wire.BasePath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	final, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("listing after close: HTTP %d, %v", resp.StatusCode, err)
	}
	return goldenRun{live: info, final: final, decisions: counts.decisions.Load(), lifecycle: counts.lifecycle.Load()}
}

// TestV2ReplayMatchesV1Golden pins the compatibility contract of the v2
// frame protocol: a session run over the stream — registered, replayed
// over batched binary DoneNext frames and closed there — must land the
// daemon on EXACTLY the state the v1 JSON protocol produces: same
// iteration count, same spend, same learned per-arm estimates while
// live, and the same broker ledger and closed-session record after
// Close, bit for bit. Floats cross the v2 wire as raw IEEE-754 bits and
// cross v1 as shortest-round-trip JSON, so any divergence here means one
// of the codecs is lossy.
func TestV2ReplayMatchesV1Golden(t *testing.T) {
	v1 := runGoldenWorkload(t, true)
	v2 := runGoldenWorkload(t, false)

	// Prove the two runs actually took different transports: v1 pays two
	// JSON decision calls per iteration plus a register and a close; v2
	// moves all of them onto the stream.
	if v1.decisions == 0 || v1.lifecycle != 2 {
		t.Fatalf("v1 run made %d JSON decision calls and %d registers or closes; want some and 2", v1.decisions, v1.lifecycle)
	}
	if v2.decisions != 0 || v2.lifecycle != 0 {
		t.Fatalf("v2 run leaked %d decision calls and %d registers or closes onto the v1 JSON wire", v2.decisions, v2.lifecycle)
	}

	v1JSON, err := json.Marshal(v1.live)
	if err != nil {
		t.Fatal(err)
	}
	v2JSON, err := json.Marshal(v2.live)
	if err != nil {
		t.Fatal(err)
	}
	if string(v1JSON) != string(v2JSON) {
		t.Fatalf("v2 session state diverged from v1 golden:\n v1: %s\n v2: %s", v1JSON, v2JSON)
	}
	if !strings.Contains(string(v2.final), `"state":"closed"`) {
		t.Fatalf("listing after close shows no closed session: %s", v2.final)
	}
	if string(v1.final) != string(v2.final) {
		t.Fatalf("daemon state after close diverged:\n v1: %s\n v2: %s", v1.final, v2.final)
	}
}
