package server

import (
	"fmt"
	"sync/atomic"
	"testing"

	"jouleguard/internal/wire"
)

// BenchmarkInprocDecision measures the daemon's decision path alone —
// Server.Next + Server.Done through the shard map, session lock, and
// governor — with no HTTP and no codec. This is the floor under every
// wire-level latency number; BENCH_experiments.json pins its p50 under
// 100µs.
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
