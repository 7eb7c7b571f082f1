package linuxsys

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// fakeSys builds a synthetic /sys tree with the given CPUs and frequencies.
func fakeSys(t *testing.T, cpus int, freqs []int, availFile bool) string {
	t.Helper()
	root := t.TempDir()
	for c := 0; c < cpus; c++ {
		dir := filepath.Join(root, "devices", "system", "cpu", "cpu"+strconv.Itoa(c), "cpufreq")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if availFile {
			var parts []string
			for _, f := range freqs {
				parts = append(parts, strconv.Itoa(f))
			}
			if err := os.WriteFile(filepath.Join(dir, "scaling_available_frequencies"),
				[]byte(strings.Join(parts, " ")+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		} else {
			os.WriteFile(filepath.Join(dir, "scaling_min_freq"),
				[]byte(strconv.Itoa(freqs[0])+"\n"), 0o644)
			os.WriteFile(filepath.Join(dir, "scaling_max_freq"),
				[]byte(strconv.Itoa(freqs[len(freqs)-1])+"\n"), 0o644)
		}
		if err := os.WriteFile(filepath.Join(dir, "scaling_setspeed"), []byte("0\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Distractor entries Discover must skip.
	os.MkdirAll(filepath.Join(root, "devices", "system", "cpu", "cpufreq"), 0o755)
	os.MkdirAll(filepath.Join(root, "devices", "system", "cpu", "cpuidle"), 0o755)
	return root
}

func TestDiscover(t *testing.T) {
	root := fakeSys(t, 4, []int{800000, 1200000, 2000000}, true)
	topo, err := Discover(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.CPUs) != 4 || topo.CPUs[0] != 0 || topo.CPUs[3] != 3 {
		t.Fatalf("cpus: %v", topo.CPUs)
	}
	if len(topo.Freqs) != 3 || topo.Freqs[0] != 800000 || topo.Freqs[2] != 2000000 {
		t.Fatalf("freqs: %v", topo.Freqs)
	}
	if topo.NumConfigs() != 12 || topo.DefaultConfig() != 11 {
		t.Fatalf("configs: %d default %d", topo.NumConfigs(), topo.DefaultConfig())
	}
}

func TestDiscoverMinMaxFallback(t *testing.T) {
	root := fakeSys(t, 2, []int{1000000, 3000000}, false)
	topo, err := Discover(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Freqs) < 2 {
		t.Fatalf("synthesised ladder too small: %v", topo.Freqs)
	}
	if topo.Freqs[0] != 1000000 || topo.Freqs[len(topo.Freqs)-1] != 3000000 {
		t.Fatalf("ladder endpoints: %v", topo.Freqs)
	}
}

func TestDiscoverErrors(t *testing.T) {
	if _, err := Discover(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("want error for missing root")
	}
	// CPUs but no cpufreq at all.
	root := t.TempDir()
	os.MkdirAll(filepath.Join(root, "devices", "system", "cpu", "cpu0"), 0o755)
	if _, err := Discover(root); err == nil {
		t.Error("want error for missing cpufreq")
	}
}

func TestConfigsShape(t *testing.T) {
	root := fakeSys(t, 3, []int{1, 2}, true)
	topo, _ := Discover(root)
	cfgs := topo.Configs()
	if len(cfgs) != 6 {
		t.Fatalf("configs: %d", len(cfgs))
	}
	// Highest index = all cores at max clock (the Fig. 3 convention).
	last := cfgs[len(cfgs)-1]
	if last.Cores != 3 || last.FreqKHz != 2 {
		t.Fatalf("default config: %+v", last)
	}
	first := cfgs[0]
	if first.Cores != 1 || first.FreqKHz != 1 {
		t.Fatalf("lowest config: %+v", first)
	}
}

// TestActuatorAppliesDefaultConfig checks the three writes the default
// configuration makes on a two-CPU host: one affinity call pinning both
// CPUs, and each CPU's frequency setpoint at the top of the ladder.
func TestActuatorAppliesDefaultConfig(t *testing.T) {
	root := fakeSys(t, 2, []int{500, 900}, true)
	topo, _ := Discover(root)
	var pinned [][]int
	a, err := NewActuator(topo, func(cpus []int) error {
		pinned = append(pinned, append([]int(nil), cpus...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Apply(topo.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if len(pinned) != 1 || len(pinned[0]) != 2 || pinned[0][0] != 0 || pinned[0][1] != 1 {
		t.Fatalf("affinity calls: %v, want one pinning [0 1]", pinned)
	}
	for _, cpu := range []string{"cpu0", "cpu1"} {
		raw, err := os.ReadFile(filepath.Join(root, "devices", "system", "cpu", cpu, "cpufreq", "scaling_setspeed"))
		if err != nil {
			t.Fatal(err)
		}
		if strings.TrimSpace(string(raw)) != "900" {
			t.Fatalf("%s setspeed: %q, want 900", cpu, raw)
		}
	}
}

func TestActuatorAppliesWrites(t *testing.T) {
	root := fakeSys(t, 2, []int{500, 900}, true)
	topo, _ := Discover(root)
	var pinned []int
	a, err := NewActuator(topo, func(cpus []int) error {
		pinned = append([]int(nil), cpus...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Apply(0); err != nil { // 1 core at 500
		t.Fatal(err)
	}
	if len(pinned) != 1 || pinned[0] != 0 {
		t.Fatalf("pinned: %v", pinned)
	}
	raw, err := os.ReadFile(filepath.Join(root, "devices", "system", "cpu", "cpu1", "cpufreq", "scaling_setspeed"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(raw)) != "500" {
		t.Fatalf("setspeed: %q", raw)
	}
}

func TestActuatorErrors(t *testing.T) {
	root := fakeSys(t, 2, []int{500}, true)
	topo, _ := Discover(root)
	if _, err := NewActuator(nil, nil); err == nil {
		t.Error("want error for nil topology")
	}
	a, _ := NewActuator(topo, nil)
	if err := a.Apply(-1); err == nil {
		t.Error("want error for bad index")
	}
	if err := a.Apply(0); err == nil {
		t.Error("want error without affinity function")
	}
	failing, _ := NewActuator(topo, func([]int) error { return errors.New("denied") })
	if err := failing.Apply(0); err == nil {
		t.Error("want propagated affinity error")
	}
}
