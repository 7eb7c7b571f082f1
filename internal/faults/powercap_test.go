package faults

import (
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func readUJ(t *testing.T, dir string, zone int) uint64 {
	t.Helper()
	path := filepath.Join(dir, "intel-rapl:"+strconv.Itoa(zone), "energy_uj")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	v, err := strconv.ParseUint(strings.TrimSpace(string(raw)), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestFakePowercapCleanAdvance(t *testing.T) {
	dir := t.TempDir()
	f, err := NewFakePowercap(dir, 2, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Advance(2.0); err != nil { // 1 J per zone
		t.Fatal(err)
	}
	if got := readUJ(t, dir, 0); got != 1000000 {
		t.Fatalf("zone 0 = %d uJ, want 1000000", got)
	}
	if got := f.TrueJoules(); math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("TrueJoules = %v, want 2", got)
	}
	// Subzone decoys exist (a correct reader must skip them).
	if _, err := os.Stat(filepath.Join(dir, "intel-rapl:0:0", "energy_uj")); err != nil {
		t.Fatalf("missing decoy subzone: %v", err)
	}
}

func TestFakePowercapWrap(t *testing.T) {
	dir := t.TempDir()
	f, err := NewFakePowercap(dir, 1, 1000000) // 1 J wrap range
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Advance(0.9); err != nil {
		t.Fatal(err)
	}
	if err := f.Advance(0.3); err != nil { // true 1.2 J: counter wraps to 200000
		t.Fatal(err)
	}
	if got := readUJ(t, dir, 0); got != 200000 {
		t.Fatalf("wrapped counter = %d uJ, want 200000", got)
	}
	if got := f.TrueJoules(); math.Abs(got-1.2) > 1e-9 {
		t.Fatalf("TrueJoules = %v, want 1.2 (wraps must not lose truth)", got)
	}
}

func TestFakePowercapStuckFault(t *testing.T) {
	dir := t.TempDir()
	f, err := NewFakePowercap(dir, 1, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	f.SetFault(NewDropout(1.0, 1)) // every write dropped: counter frozen
	before := readUJ(t, dir, 0)
	if err := f.Advance(5); err != nil {
		t.Fatal(err)
	}
	if got := readUJ(t, dir, 0); got != before {
		t.Fatalf("frozen counter moved: %d -> %d", before, got)
	}
	// Truth keeps accruing even while the shown counter is wedged.
	if got := f.TrueJoules(); math.Abs(got-5) > 1e-9 {
		t.Fatalf("TrueJoules = %v, want 5", got)
	}
}

func TestFakePowercapSpikeFault(t *testing.T) {
	dir := t.TempDir()
	f, err := NewFakePowercap(dir, 1, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	f.SetFault(NewSpike(1.0, 3, 0, 42)) // every shown counter tripled
	if err := f.Advance(1); err != nil {
		t.Fatal(err)
	}
	if got := readUJ(t, dir, 0); got != 3000000 {
		t.Fatalf("spiked counter = %d uJ, want 3000000", got)
	}
	if got := f.TrueJoules(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("TrueJoules = %v, want 1 (spikes are lies, not energy)", got)
	}
}
