package jouleguard

import "testing"

// BenchmarkNewTestbedCacheHit measures the cost a sweep pays per testbed
// once the (app, platform) template exists: a map lookup and a shallow
// struct copy.
func BenchmarkNewTestbedCacheHit(b *testing.B) {
	if _, err := NewTestbed("x264", "Server"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewTestbed("x264", "Server"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewTestbedCacheMiss measures template construction with the
// testbed/oracle caches dropped each iteration (the application kernel and
// frontier caches in internal/apps stay warm — those are profiled once per
// process by design).
func BenchmarkNewTestbedCacheMiss(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resetExperimentCaches()
		if _, err := NewTestbed("x264", "Server"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewOracleCacheHit measures the memoized oracle path; the miss
// case re-profiles the frontier x 1024 Server configurations every call.
func BenchmarkNewOracleCacheHit(b *testing.B) {
	tb, err := NewTestbed("x264", "Server")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := tb.NewOracle(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tb.NewOracle(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestNewTestbedCopiesTemplate(t *testing.T) {
	a, err := NewTestbed("radar", "Tablet")
	if err != nil {
		t.Fatal(err)
	}
	a.Seed = 999
	c, err := NewTestbed("radar", "Tablet")
	if err != nil {
		t.Fatal(err)
	}
	if c.Seed == 999 {
		t.Fatal("Seed mutation leaked through the testbed cache")
	}
	if a == c {
		t.Fatal("NewTestbed returned the same instance twice; copies expected")
	}
	if a.Frontier != c.Frontier || a.Platform != c.Platform {
		t.Fatal("testbed copies should share the immutable frontier and platform")
	}
}

func TestNewOracleMemoised(t *testing.T) {
	a, err := NewTestbed("radar", "Tablet")
	if err != nil {
		t.Fatal(err)
	}
	o1, err := a.NewOracle()
	if err != nil {
		t.Fatal(err)
	}
	o2, err := a.NewOracle()
	if err != nil {
		t.Fatal(err)
	}
	if o1 != o2 {
		t.Fatal("NewOracle rebuilt the oracle for an unchanged testbed")
	}
}

// resetExperimentCaches drops the testbed and oracle caches (benchmarks
// measuring cold-path construction cost).
func resetExperimentCaches() {
	testbedMu.Lock()
	testbedCache = map[[2]string]*Testbed{}
	testbedMu.Unlock()
	oracleMu.Lock()
	oracleCache = map[oracleKey]*Oracle{}
	oracleMu.Unlock()
}
