package linuxsys

import (
	"os"
	"path/filepath"
	"testing"
)

// writeStat materialises a synthetic /proc/stat with one aggregate line.
func writeStat(t *testing.T, dir, cpuLine string) {
	t.Helper()
	body := cpuLine + "\ncpu0 1 2 3 4 5 6 7 8 0 0\nintr 12345\nctxt 678\n"
	if err := os.WriteFile(filepath.Join(dir, "stat"), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestReadCPUTime(t *testing.T) {
	dir := t.TempDir()
	// user nice system idle iowait irq softirq steal guest guest_nice
	writeStat(t, dir, "cpu  100 10 50 800 40 5 5 10 0 0")
	c, err := ReadCPUTime(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(100 + 10 + 50 + 5 + 5 + 10); c.BusyJiffies != want {
		t.Fatalf("BusyJiffies = %d, want %d", c.BusyJiffies, want)
	}
	if want := uint64(100 + 10 + 50 + 800 + 40 + 5 + 5 + 10); c.TotalJiffies != want {
		t.Fatalf("TotalJiffies = %d, want %d", c.TotalJiffies, want)
	}
}

func TestReadCPUTimeErrors(t *testing.T) {
	if _, err := ReadCPUTime(t.TempDir()); err == nil {
		t.Fatal("want error for missing stat file")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "stat"), []byte("intr 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCPUTime(dir); err == nil {
		t.Fatal("want error for stat without aggregate cpu line")
	}
}

func TestBusyFraction(t *testing.T) {
	prev := CPUTime{BusyJiffies: 100, TotalJiffies: 1000}
	cur := CPUTime{BusyJiffies: 160, TotalJiffies: 1100}
	if got := BusyFraction(prev, cur); got != 0.6 {
		t.Fatalf("BusyFraction = %v, want 0.6", got)
	}
	// Backwards / identical totals: unattributable, not a divide-by-zero.
	if got := BusyFraction(cur, cur); got != 0 {
		t.Fatalf("identical snapshots: got %v, want 0", got)
	}
	if got := BusyFraction(cur, prev); got != 0 {
		t.Fatalf("backwards counter: got %v, want 0", got)
	}
	// Clamped to [0,1] even if busy outruns total (torn reads).
	weird := CPUTime{BusyJiffies: 5000, TotalJiffies: 1100}
	if got := BusyFraction(prev, weird); got != 1 {
		t.Fatalf("clamp: got %v, want 1", got)
	}
}

func TestCPUShareSample(t *testing.T) {
	dir := t.TempDir()
	writeStat(t, dir, "cpu  100 0 0 900 0 0 0 0 0 0")
	s := &CPUShare{Root: dir}
	// First call primes the baseline: fallback (default 1).
	if got := s.Sample(); got != 1 {
		t.Fatalf("priming call = %v, want fallback 1", got)
	}
	writeStat(t, dir, "cpu  150 0 0 950 0 0 0 0 0 0")
	if got := s.Sample(); got != 0.5 {
		t.Fatalf("delta call = %v, want 0.5", got)
	}
	// No elapsed jiffies between calls: fall back, don't report 0.
	if got := s.Sample(); got != 1 {
		t.Fatalf("stale call = %v, want fallback 1", got)
	}
	// Fallback when the file disappears.
	s2 := &CPUShare{Root: t.TempDir()}
	if got := s2.Sample(); got != 1 {
		t.Fatalf("missing stat = %v, want fallback 1", got)
	}
}
