package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"jouleguard/internal/telemetry"
	"jouleguard/internal/wire"
)

// getDecisions reads one /decisions response. It runs on the reader
// goroutine, so it reports with t.Error and returns nil on failure.
func getDecisions(t *testing.T, ts *httptest.Server, query string) []telemetry.Decision {
	req, err := http.NewRequest("GET", ts.URL+"/decisions"+query, nil)
	if err != nil {
		t.Error(err)
		return nil
	}
	req.Header.Set("Accept-Encoding", "identity") // plain JSONL: gzip would dominate the test's time
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Error(err)
		return nil
	}
	defer resp.Body.Close()
	var out []telemetry.Decision
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var d telemetry.Decision
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Errorf("/decisions%s: %v", query, err)
			return nil
		}
		out = append(out, d)
	}
	return out
}

// checkSeq reports a response whose Seq is not strictly increasing from
// above since.
func checkSeq(t *testing.T, query string, ds []telemetry.Decision, since uint64) {
	for _, d := range ds {
		if d.Seq <= since {
			t.Errorf("/decisions%s: seq %d after %d", query, d.Seq, since)
			return
		}
		since = d.Seq
	}
}

// checkWindow reports a session window that is not one run of the
// session's consecutive iterations.
func checkWindow(t *testing.T, id string, ds []telemetry.Decision) {
	for i, d := range ds {
		if d.Session != id {
			t.Errorf("window of %s holds a decision of %q", id, d.Session)
			return
		}
		if i > 0 && d.Iter != ds[i-1].Iter+1 {
			t.Errorf("window of %s jumps from iter %d to %d", id, ds[i-1].Iter, d.Iter)
			return
		}
	}
}

// TestSessionDecisionWindows has two sessions decide without pause
// while a reader polls the merged decision stream, a ?since= tail, each
// session's window and its provenance chain. Every response must be in
// strictly increasing Seq, the tail must only move forward, each window
// must be a contiguous run of its own session's iterations, and the
// iterations layer — the window against the ledger, read in one
// critical section — must balance exactly. Afterwards each window holds
// its session's last min(64, iterations) decisions (a third, short
// session covers the under-the-bound case), and a closed or shed
// session's window still answers.
func TestSessionDecisionWindows(t *testing.T) {
	const window = 64 // the telemetry package's per-session bound
	const polls = 12
	srv := testServer(t, 1e9, nil)
	defer shutdown(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The two long sessions declare more iterations than the test runs:
	// their goroutines stop when the reader has finished polling.
	iters := []int{1 << 30, 1 << 30, window / 2}
	ids := make([]string, len(iters))
	for i, n := range iters {
		resp, err := srv.Register(wire.RegisterRequest{Tenant: fmt.Sprintf("t%d", i), App: "radar",
			Platform: "Tablet", Iterations: n, BudgetJ: 1e6, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = resp.SessionID
	}

	stop := make(chan struct{})
	done := make([]int, len(ids)) // iterations each worker settled
	var workers sync.WaitGroup
	for i := range ids {
		m := newSimMachine(t, "radar", "Tablet")
		workers.Add(1)
		go func(i int) {
			defer workers.Done()
			for k := 0; k < iters[i]; k++ {
				select {
				case <-stop:
					return
				default:
				}
				next, err := srv.Next(ids[i], wire.NextRequest{NowS: m.clockS})
				if err != nil {
					t.Errorf("%s next %d: %v", ids[i], k, err)
					return
				}
				acc := m.step(next.AppConfig, next.SysConfig, k)
				if _, err := srv.Done(ids[i], wire.DoneRequest{NowS: m.clockS, EnergyJ: m.energyJ, Accuracy: acc}); err != nil {
					t.Errorf("%s done %d: %v", ids[i], k, err)
					return
				}
				done[i] = k + 1
			}
		}(i)
	}

	var cursor uint64
	for p := 0; p < polls && !t.Failed(); p++ {
		checkSeq(t, "", getDecisions(t, ts, ""), 0)
		q := fmt.Sprintf("?since=%d", cursor)
		tail := getDecisions(t, ts, q)
		checkSeq(t, q, tail, cursor)
		if len(tail) > 0 {
			cursor = tail[len(tail)-1].Seq
		}
		for _, id := range ids {
			q := "?session=" + id
			own := getDecisions(t, ts, q)
			checkSeq(t, q, own, 0)
			checkWindow(t, id, own)

			var prov wire.SessionProvenance
			doJSON(t, ts, "GET", wire.ProvenancePath+"?session="+id, nil, &prov)
			for _, l := range prov.Layers {
				if l.Layer == "iterations" && l.DriftJ != 0 {
					t.Errorf("%s: iterations layer drifted %g J (ledger %v, window %v)", id, l.DriftJ, l.ExpectJ, l.SumJ)
				}
			}
		}
	}
	close(stop)
	workers.Wait()
	if t.Failed() {
		return
	}

	all := getDecisions(t, ts, "")
	want := 0
	for i, id := range ids {
		own := getDecisions(t, ts, "?session="+id)
		keep := min(window, done[i])
		want += keep
		if len(own) != keep || len(own) > 0 && own[len(own)-1].Iter != done[i]-1 {
			t.Errorf("window of %s holds %d decisions, want the last %d of %d", id, len(own), keep, done[i])
		}
	}
	if done[0] < window || done[1] < window || done[2] != iters[2] {
		t.Errorf("workers settled %v iterations: the long sessions must pass the bound, the short one finish", done)
	}
	if len(all) != want {
		t.Errorf("merged stream holds %d decisions, want %d", len(all), want)
	}
	if last := getDecisions(t, ts, "?n=5"); len(last) != 5 || last[4].Seq != all[len(all)-1].Seq {
		t.Errorf("?n=5 returned %d decisions, not the newest five", len(last))
	}

	if _, err := srv.Close(ids[0]); err != nil {
		t.Fatal(err)
	}
	if n := srv.shedTenant("t1"); n != 1 {
		t.Fatalf("shed %d sessions of t1, want 1", n)
	}
	for i, id := range ids[:2] {
		if kept := getDecisions(t, ts, "?session="+id); len(kept) != window || kept[window-1].Iter != done[i]-1 {
			t.Errorf("terminal session %s serves %d decisions, want its last %d", id, len(kept), window)
		}
	}
	t.Logf("settled %v iterations over %d polls; tail cursor at seq %d", done, polls, cursor)
}
