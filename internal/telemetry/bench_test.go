package telemetry

import (
	"fmt"
	"io"
	"sync/atomic"
	"testing"
)

// BenchmarkTelemetryNopSink pins the cost of instrumentation when
// telemetry is disabled: one full iteration's worth of sink calls
// through the no-op implementation. The acceptance bar is 0 allocs/op;
// `make bench` lands this in BENCH_experiments.json so overhead
// regressions are visible across sessions.
func BenchmarkTelemetryNopSink(b *testing.B) {
	var s Sink = Nop{}
	d := Decision{Iter: 1, AppConfig: 2, SysConfig: 3, SEURate: 10, SEUPower: 20}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.RecordDecision(d)
		s.ControlStep(12, 11.5, 0.5, 0.1, 1.5)
		s.EstimatorUpdate(3, 10, 20, 0.85)
		s.GuardVerdict(true, 0, 20)
		s.FaultInjected(0)
		s.IterationDone(0.01, false)
	}
}

// BenchmarkTelemetryLiveSink is the enabled-path counterpart: the same
// event mix against the live registry and flight recorder.
func BenchmarkTelemetryLiveSink(b *testing.B) {
	var s Sink = New(DefaultFlightCapacity)
	d := Decision{Iter: 1, AppConfig: 2, SysConfig: 3, SEURate: 10, SEUPower: 20}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.RecordDecision(d)
		s.ControlStep(12, 11.5, 0.5, 0.1, 1.5)
		s.EstimatorUpdate(3, 10, 20, 0.85)
		s.GuardVerdict(true, 0, 20)
		s.FaultInjected(0)
		s.IterationDone(0.01, false)
	}
}

// BenchmarkTelemetryLiveSinkParallel is the daemon's shape: the same
// event mix from every core at once, each goroutine reporting through a
// session sink of its own into one Telemetry. Counters and histograms
// are striped, each session keeps its own decision window and sets no
// gauges, so the one thing the cores still write in common is the Seq
// counter.
func BenchmarkTelemetryLiveSinkParallel(b *testing.B) {
	tel := New(DefaultFlightCapacity)
	d := Decision{Iter: 1, AppConfig: 2, SysConfig: 3, SEURate: 10, SEUPower: 20}
	var sessions atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		s := WithSession(tel, fmt.Sprintf("s-%06d", sessions.Add(1)), 0)
		for pb.Next() {
			s.RecordDecision(d)
			s.ControlStep(12, 11.5, 0.5, 0.1, 1.5)
			s.EstimatorUpdate(3, 10, 20, 0.85)
			s.GuardVerdict(true, 0, 20)
			s.FaultInjected(0)
			s.IterationDone(0.01, false)
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
