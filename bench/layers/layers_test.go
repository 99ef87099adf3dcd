package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestSmoke traces one short live workload and the psim scenario end to end:
// no timing assertions, only that every per-layer metric is emitted by name,
// the span file is written and the correctness checks pass.
func TestSmoke(t *testing.T) {
	for _, name := range []string{"fanout.concurrent", "recover.concurrent"} {
		r := traceWorkload(name, 1, 1, t.TempDir())
		if !r.Correct() {
			t.Errorf("%s: %v", name, r.Violations)
		}
		for _, metric := range perLayer {
			if _, ok := r.Get(metric); !ok {
				t.Errorf("%s: metric %s missing", name, metric)
			}
		}
		var line map[string]any
		if err := json.Unmarshal([]byte(r.DriverLine(perLayer)), &line); err != nil {
			t.Errorf("%s: driver line: %v", name, err)
		}
	}
}

func TestBenchmarkJSONAgrees(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	var spec struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d here", len(spec.PerLayer), len(perLayer))
	}
	for i, name := range perLayer {
		if spec.PerLayer[i].Name != name {
			t.Errorf("per_layer %d: json %q, go %q", i, spec.PerLayer[i].Name, name)
		}
	}
}
