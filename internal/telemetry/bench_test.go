package telemetry

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
)

// benchDecision is one iteration's decision, stepping the controller and
// updating an estimate, as most governed iterations do.
var benchDecision = Decision{Iter: 1, AppConfig: 2, SysConfig: 3, SEURate: 10, SEUPower: 20,
	TargetRate: 12, PIError: 0.5, Pole: 0.1, Stepped: true, Updated: true, UpdatedGain: 0.85}

// BenchmarkTelemetryNopSink pins the cost of instrumentation when
// telemetry is disabled: one full iteration's worth of sink calls
// through the no-op implementation. The acceptance bar is 0 allocs/op;
// `make bench` lands this in BENCH_experiments.json so overhead
// regressions are visible across sessions.
func BenchmarkTelemetryNopSink(b *testing.B) {
	var s Sink = Nop{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Record(&benchDecision)
		s.FaultInjected(0)
		s.IterationDone(0.01, true, 0, 20)
	}
}

// BenchmarkTelemetryLiveSink is the enabled-path counterpart: the same
// event mix through the unbound Telemetry, into its process sink.
func BenchmarkTelemetryLiveSink(b *testing.B) {
	var s Sink = New(DefaultFlightCapacity)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Record(&benchDecision)
		s.FaultInjected(0)
		s.IterationDone(0.01, true, 0, 20)
	}
}

// BenchmarkTelemetryLiveSinkParallel is the daemon's shape: the same
// event mix from every core at once, each goroutine reporting through a
// session sink of its own into one Telemetry, holding its session's
// owner mutex around one iteration's three calls as the daemon holds the
// session mutex. The sink tallies under that mutex and keeps its own
// decision window, so the one thing the cores still write in common is
// the Seq counter.
func BenchmarkTelemetryLiveSinkParallel(b *testing.B) {
	tel := New(DefaultFlightCapacity)
	var sessions atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		var owner sync.Mutex
		s := WithSession(tel, fmt.Sprintf("s-%06d", sessions.Add(1)), 0, &owner, nil)
		for pb.Next() {
			owner.Lock()
			s.Record(&benchDecision)
			s.FaultInjected(0)
			s.IterationDone(0.01, true, 0, 20)
			owner.Unlock()
		}
	})
}

// BenchmarkPrometheusExposition measures a full /metrics render of the
// standard metric set.
func BenchmarkPrometheusExposition(b *testing.B) {
	tel := New(64)
	exercise(tel, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := tel.Registry.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
