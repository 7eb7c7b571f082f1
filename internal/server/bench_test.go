package server

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"jouleguard/internal/wire"
)

// BenchmarkInprocDecision measures the daemon's decision path alone —
// Server.Next + Server.Done through the shard map, session lock, and
// governor — with no HTTP and no codec. This is the floor under every
// wire-level latency number; BENCH_experiments.json pins its mean ns/op
// and its 0 allocs/op, and make bench-check fails it past +20%.
func BenchmarkInprocDecision(b *testing.B) {
	srv := benchServer(b, 1)
	id := benchRegister(b, srv, 0, b.N)
	clockS, energyJ := 0.0, 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Next(id, wire.NextRequest{NowS: clockS}); err != nil {
			b.Fatalf("next %d: %v", i, err)
		}
		clockS += 0.01
		energyJ += 0.2
		if _, err := srv.Done(id, wire.DoneRequest{NowS: clockS, EnergyJ: energyJ, Accuracy: 0.9}); err != nil {
			b.Fatalf("done %d: %v", i, err)
		}
	}
}

// BenchmarkInprocDecisionParallel drives many sessions concurrently to
// exercise the sharded registry: the decision path takes no server-wide
// lock, so throughput should track GOMAXPROCS, not collapse on a global
// mutex.
func BenchmarkInprocDecisionParallel(b *testing.B) {
	srv := benchServer(b, 64)
	var ids []string
	for i := 0; i < 64; i++ {
		ids = append(ids, benchRegister(b, srv, i, b.N+1))
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Each worker owns one session: the wire contract is strictly
		// alternating Next/Done per session.
		mine := ids[int(next.Add(1)-1)%len(ids)]
		clockS, energyJ := 0.0, 0.0
		for pb.Next() {
			if _, err := srv.Next(mine, wire.NextRequest{NowS: clockS}); err != nil {
				b.Errorf("next: %v", err)
				return
			}
			clockS += 0.01
			energyJ += 0.2
			if _, err := srv.Done(mine, wire.DoneRequest{NowS: clockS, EnergyJ: energyJ, Accuracy: 0.9}); err != nil {
				b.Errorf("done: %v", err)
				return
			}
		}
	})
}

// BenchmarkSessionLookup isolates the shard-map read that starts every
// decision.
func BenchmarkSessionLookup(b *testing.B) {
	srv := benchServer(b, 64)
	var ids []string
	for i := 0; i < 64; i++ {
		ids = append(ids, benchRegister(b, srv, i, 1000))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if srv.sessions.get(ids[i%len(ids)]) == nil {
			b.Fatal("session vanished")
		}
	}
}

// BenchmarkRegisterClose is one session's fixed cost on the daemon:
// admission, building the governor stack (a bandit over every system
// configuration — 1,024 arms on Server, 44 on Tablet), and teardown. A
// 32-iteration session pays it once per 32 decisions, so it is pinned
// in time and in allocations.
func BenchmarkRegisterClose(b *testing.B) {
	for _, c := range []struct{ app, platform string }{{"x264", "Server"}, {"radar", "Tablet"}} {
		b.Run(c.app+"_"+c.platform, func(b *testing.B) {
			srv := benchServer(b, 1)
			req := wire.RegisterRequest{Tenant: "bench", App: c.app, Platform: c.platform,
				Iterations: 32, BudgetJ: 1e3, Seed: 1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := srv.Register(req)
				if err != nil {
					b.Fatalf("register %d: %v", i, err)
				}
				if _, err := srv.Close(resp.SessionID); err != nil {
					b.Fatalf("close %d: %v", i, err)
				}
			}
		})
	}
}

// BenchmarkRestoreSession is one restore of a snapshot holding one
// x264/Server session (1,024 arms) with iters settled iterations: a
// thousand (no checkpoint yet, every record replayed) and a million (a
// checkpoint and the 576 records since). What a restore costs is the
// retained tail, not the history: parsing it, replaying it, and loading
// the checkpoint, random register included.
func BenchmarkRestoreSession(b *testing.B) {
	for _, iters := range []int{1_000, 1_000_000} {
		b.Run(fmt.Sprintf("iters=%d", iters), func(b *testing.B) {
			src := cutServer(b, nil)
			resp, err := src.Register(wire.RegisterRequest{Tenant: "bench", App: "x264", Platform: "Server",
				Key: "bench", Iterations: iters + 1, Factor: 2, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			sess, werr := src.lookup(resp.SessionID)
			if werr != nil {
				b.Fatal(werr)
			}
			m := testbed(b, "x264", "Server").Machine()
			for k := 0; k < iters; k++ {
				next, werr := sess.next(wire.NextRequest{NowS: m.ClockS}, monoNS())
				if werr != nil {
					b.Fatal(werr)
				}
				acc := m.Step(next.AppConfig, next.SysConfig, 0)
				if _, werr := sess.done(wire.DoneRequest{NowS: m.ClockS, EnergyJ: m.EnergyJ, Accuracy: acc}); werr != nil {
					b.Fatal(werr)
				}
			}
			var snap bytes.Buffer
			if err := src.Snapshot(&snap); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer() // a fresh server's span buffer is most of New
				dst, err := New(Config{GlobalBudgetJ: 1e9, SweepInterval: -1})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := dst.Restore(bytes.NewReader(snap.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchServer(b *testing.B, sessions int) *Server {
	b.Helper()
	srv, err := New(Config{
		// Budget sized so no session exhausts it inside b.N iterations.
		GlobalBudgetJ: 1e12,
		SweepInterval: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.CloseV2Streams() })
	return srv
}

func benchRegister(b *testing.B, srv *Server, i, iters int) string {
	b.Helper()
	resp, err := srv.Register(wire.RegisterRequest{
		Tenant: fmt.Sprintf("bench-%02d", i), App: "x264", Platform: "Server",
		Iterations: iters + 1, BudgetJ: 1e9, Seed: int64(i + 1),
	})
	if err != nil {
		b.Fatal(err)
	}
	return resp.SessionID
}

// TestInprocDecisionZeroAlloc pins a warm in-process session's Next+Done
// at zero allocations: the decision is recorded into the runtime's own
// Decision and copied once into the session's window, and an untraced
// Next reads no wall clock. The measured iterations sit between two log
// folds (checkpointEvery), past the first, so the log has reached its
// working capacity and no fold falls inside the run.
func TestInprocDecisionZeroAlloc(t *testing.T) {
	srv, err := New(Config{GlobalBudgetJ: 1e12, SweepInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.CloseV2Streams()
	resp, err := srv.Register(wire.RegisterRequest{Tenant: "t", App: "x264", Platform: "Server",
		Iterations: 4 * checkpointEvery, BudgetJ: 1e9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	id := resp.SessionID
	clockS, energyJ := 0.0, 0.0
	iterate := func() {
		if _, err := srv.Next(id, wire.NextRequest{NowS: clockS}); err != nil {
			t.Fatalf("next: %v", err)
		}
		clockS += 0.01
		energyJ += 0.2
		if _, err := srv.Done(id, wire.DoneRequest{NowS: clockS, EnergyJ: energyJ, Accuracy: 0.9}); err != nil {
			t.Fatalf("done: %v", err)
		}
	}
	for i := 0; i < checkpointEvery+8; i++ {
		iterate()
	}
	const runs = checkpointEvery / 2 // AllocsPerRun adds one warm-up call
	if allocs := testing.AllocsPerRun(runs, iterate); allocs != 0 {
		t.Fatalf("warm Next+Done allocates %v per iteration, want 0", allocs)
	}
}

// TestRegisterCloseBytes pins a session's fixed cost in memory: Register
// then Close of x264/Server — admission, the governor stack with its
// 1,024-arm bandit, teardown — with no iteration between. A bandit holds
// only the arms it has pulled, so that is the zeroed arm index, the
// random generator's register and the stack around them; a bandit that
// copies its prior table's 1,024 arms does not fit.
func TestRegisterCloseBytes(t *testing.T) {
	srv, err := New(Config{GlobalBudgetJ: 1e12, SweepInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.CloseV2Streams()
	req := wire.RegisterRequest{Tenant: "t", App: "x264", Platform: "Server", Iterations: 32, BudgetJ: 1e3, Seed: 1}
	cycle := func() {
		resp, err := srv.Register(req)
		if err != nil {
			t.Fatalf("register: %v", err)
		}
		if _, err := srv.Close(resp.SessionID); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
	for range 8 {
		cycle()
	}
	const runs, limit = 64, 16 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		cycle()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > limit {
		t.Fatalf("Register+Close allocates %d B per session, want at most %d", per, limit)
	}
}
