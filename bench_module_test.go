package jouleguard_test

import (
	"context"
	"os/exec"
	"testing"
	"time"
)

// TestBenchModuleCompiles type-checks and vets the benchmark harness.
// bench/ is a module of its own (bench/go.mod, replacing jouleguard with
// this tree), so `go build ./...` and `go test ./...` here never compile
// it: a product signature it calls could change and leave every
// benchmark run failing while the rest of the suite passes. This runs
// what `make vet` runs on it, in about a second with a warm build cache.
func TestBenchModuleCompiles(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH, so bench/ cannot be compiled here:", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	out, err := exec.CommandContext(ctx, goTool, "vet", "-C", "bench", "./...").CombinedOutput()
	if err != nil {
		t.Fatalf("go vet -C bench ./... failed: %v\n%s", err, out)
	}
}
