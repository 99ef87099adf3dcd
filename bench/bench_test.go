package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"sspubsub/bench/load"
)

// TestSmoke runs every workload at about a twentieth of its size. It asserts
// nothing about time — only that each run is correct, that every metric is
// emitted under its name, and that the driver's result line parses — so that
// a change to the public API that would break the benchmark fails here.
func TestSmoke(t *testing.T) {
	want := map[string][]string{
		"fanout.concurrent":  {"deliver_p50_ms", "complete_p50_ms", "pubs_per_s"},
		"fanout.net":         {"deliver_p50_ms", "complete_p50_ms", "pubs_per_s"},
		"bulk.net":           {"delivered_mb_per_s"},
		"recover.concurrent": {"restabilize_p50_ms"},
		"scale.psim":         {"sim_wall_s"},
	}
	p := params{seed: 1, seconds: 0.4, setups: 1, small: true}
	for _, w := range load.Workloads {
		r := run[w.Name](p)
		if !r.Correct() {
			t.Errorf("%s: %v", w.Name, r.Violations)
		}
		if r.Attempted < 1 || r.Failed != 0 {
			t.Errorf("%s: attempted %d, failed %d", w.Name, r.Attempted, r.Failed)
		}
		for _, name := range append(endToEndNames(), want[w.Name]...) {
			if v, ok := r.Get(name); !ok || !(v > 0) {
				t.Errorf("%s: metric %s = %v, present %v", w.Name, name, v, ok)
			}
		}
		var line struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(r.DriverLine(endToEndNames())), &line); err != nil {
			t.Fatalf("%s: driver line: %v", w.Name, err)
		}
		if len(line.Metrics) != len(endToEnd) {
			t.Errorf("%s: driver line carries %d metrics, want %d", w.Name, len(line.Metrics), len(endToEnd))
		}
	}
}

// benchmarkJSON is the part of ../BENCHMARK.json the Go tables repeat.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []metricDef                  `json:"end_to_end"`
}

func TestBenchmarkJSONAgrees(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end:\n json %+v\n go   %+v", spec.EndToEnd, endToEnd)
	}
	if len(spec.Workloads) != len(load.Workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in load.Workloads", len(spec.Workloads), len(load.Workloads))
	}
	for i, w := range load.Workloads {
		if spec.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: json %q, go %q", i, spec.Workloads[i].Name, w.Name)
		}
	}
}
