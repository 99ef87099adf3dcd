package sspubsub

import (
	"os/exec"
	"testing"
)

// TestBenchModuleVets guards the benchmark: bench/ is a module of its own
// (BENCHMARK.json's `bash bench/run.sh` builds it), so `go build ./...` and
// `go test ./...` here never compile it, and an internal-API change that
// breaks it would otherwise surface only as a failed benchmark run. Vetting
// it from the root's tier-1 suite type-checks every package and test in it
// against the tree as it is.
func TestBenchModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("vets a second module; skipped under -short")
	}
	cmd := exec.Command("go", "vet", "./...")
	cmd.Dir = "bench"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in bench/: %v\n%s", err, out)
	}
}
