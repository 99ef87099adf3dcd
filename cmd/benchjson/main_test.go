package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func rep(results ...Result) Report { return Report{Results: results} }

func res(name string, metrics map[string]float64) Result {
	return Result{Name: name, Iterations: 1000, Metrics: metrics}
}

// TestParseRecordsAllocMetrics: a -benchmem result line yields B/op and
// allocs/op series alongside ns/op and custom metrics.
func TestParseRecordsAllocMetrics(t *testing.T) {
	text := `goos: linux
goarch: amd64
BenchmarkHotPathPublishFanout/net-8   1000   249800 ns/op   19007 B/op   114 allocs/op   7.5 extra/metric
some unrelated line
`
	var r Report
	parse(strings.NewReader(text), &r)
	if len(r.Results) != 1 {
		t.Fatalf("parsed %d results, want 1", len(r.Results))
	}
	got := r.Results[0]
	if got.Name != "BenchmarkHotPathPublishFanout/net" || got.Iterations != 1000 {
		t.Fatalf("parsed %+v", got)
	}
	for unit, want := range map[string]float64{
		"ns/op": 249800, "B/op": 19007, "allocs/op": 114, "extra/metric": 7.5,
	} {
		if got.Metrics[unit] != want {
			t.Errorf("metric %s = %v, want %v", unit, got.Metrics[unit], want)
		}
	}
	if r.GoOS != "linux" || r.GoArch != "amd64" {
		t.Errorf("platform = %s/%s", r.GoOS, r.GoArch)
	}
}

// TestCompareGating pins the regression gate: only gated units fail,
// direction respects rate units, and the threshold is relative.
func TestCompareGating(t *testing.T) {
	old := rep(
		res("BenchA", map[string]float64{"allocs/op": 100, "ns/op": 1000, "pubs/s": 500}),
		res("BenchGone", map[string]float64{"allocs/op": 1}),
	)
	cases := []struct {
		name       string
		cur        Report
		gate       string
		wantHits   int
		wantSubstr string
	}{
		{"within threshold", rep(res("BenchA", map[string]float64{"allocs/op": 110})), "allocs/op", 0, ""},
		{"alloc regression", rep(res("BenchA", map[string]float64{"allocs/op": 120})), "allocs/op", 1, "allocs/op"},
		{"improvement never gates", rep(res("BenchA", map[string]float64{"allocs/op": 10})), "allocs/op", 0, ""},
		{"ungated unit ignored", rep(res("BenchA", map[string]float64{"ns/op": 5000})), "allocs/op", 0, ""},
		{"gate all", rep(res("BenchA", map[string]float64{"ns/op": 5000})), "all", 1, "ns/op"},
		{"rate drop is a regression", rep(res("BenchA", map[string]float64{"pubs/s": 100})), "all", 1, "pubs/s"},
		{"rate rise is fine", rep(res("BenchA", map[string]float64{"pubs/s": 900})), "all", 0, ""},
		{"new series never gates", rep(res("BenchNew", map[string]float64{"allocs/op": 9999})), "all", 0, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sb strings.Builder
			regs := compare(&sb, old, tc.cur, 0.15, tc.gate)
			if len(regs) != tc.wantHits {
				t.Fatalf("regressions = %v, want %d", regs, tc.wantHits)
			}
			if tc.wantHits > 0 && !strings.Contains(regs[0], tc.wantSubstr) {
				t.Fatalf("regression %q does not mention %q", regs[0], tc.wantSubstr)
			}
			if !strings.Contains(sb.String(), "| benchmark |") {
				t.Fatal("no markdown table emitted")
			}
			if !strings.Contains(sb.String(), "BenchGone") || !strings.Contains(sb.String(), "removed") {
				t.Fatal("removed series not listed")
			}
		})
	}
}

// TestCompareZeroBaseline: growing from a zero baseline counts as
// unbounded regression rather than dividing by zero.
func TestCompareZeroBaseline(t *testing.T) {
	old := rep(res("BenchA", map[string]float64{"allocs/op": 0}))
	var sb strings.Builder
	regs := compare(&sb, old, rep(res("BenchA", map[string]float64{"allocs/op": 3})), 0.15, "allocs/op")
	if len(regs) != 1 {
		t.Fatalf("regressions = %v, want 1", regs)
	}
}

// Every series unit the repository's benchmarks and sweeps emit must have
// an explicit direction: rates up, everything else down. One subtest per
// unit so a future series added without a table entry fails by name.
func TestUnitDirections(t *testing.T) {
	cases := []struct {
		unit   string
		higher bool
	}{
		{"subs/s", true},
		{"joins/s", true},
		{"pubs/s", true},
		{"msgs/s", true},
		{"ops/s", true},
		{"ns/op", false},
		{"B/op", false},
		{"allocs/op", false},
		{"p50-rounds", false},
		{"p95-rounds", false},
		{"max-rounds", false},
		{"stabilize-rounds", false},
		{"db-bytes", false},
		{"trie-bytes", false},
		{"queue-bytes", false},
		{"wall-sec", false},
		{"rounds", false},
		{"msgs", false},
	}
	for _, c := range cases {
		t.Run(c.unit, func(t *testing.T) {
			if _, listed := unitDirection[c.unit]; !listed {
				t.Fatalf("unit %q missing from the explicit direction table", c.unit)
			}
			if got := higherIsBetter(c.unit); got != c.higher {
				t.Fatalf("higherIsBetter(%q) = %v, want %v", c.unit, got, c.higher)
			}
		})
	}
	// Unlisted units fall back to the rate-suffix heuristic.
	if !higherIsBetter("widgets/s") {
		t.Fatal("unlisted rate unit should default to higher-is-better")
	}
	if higherIsBetter("widgets") {
		t.Fatal("unlisted non-rate unit should default to lower-is-better")
	}
}

// A regression in a higher-is-better scale series (throughput drop) must
// gate, and an increase must not — the direction table, not the suffix,
// decides.
func TestCompareGatesScaleSeries(t *testing.T) {
	old := Report{Results: []Result{{
		Name: "BenchmarkScaleJoin/n=1000", Iterations: 1,
		Metrics: map[string]float64{"joins/s": 1000, "p95-rounds": 3},
	}}}
	slower := Report{Results: []Result{{
		Name: "BenchmarkScaleJoin/n=1000", Iterations: 1,
		Metrics: map[string]float64{"joins/s": 100, "p95-rounds": 9},
	}}}
	regs := compare(io.Discard, old, slower, 0.15, "all")
	if len(regs) != 2 {
		t.Fatalf("expected both joins/s drop and p95-rounds rise to gate, got %v", regs)
	}
	faster := Report{Results: []Result{{
		Name: "BenchmarkScaleJoin/n=1000", Iterations: 1,
		Metrics: map[string]float64{"joins/s": 2000, "p95-rounds": 1},
	}}}
	if regs := compare(io.Discard, old, faster, 0.15, "all"); len(regs) != 0 {
		t.Fatalf("improvements must not gate, got %v", regs)
	}
}

// TestSeriesNameDropsGOMAXPROCSSuffix: a multi-core go-test run names its
// series BenchmarkX/sim-8, a GOMAXPROCS=1 run BenchmarkX/sim; both must
// land on one series, on ingest and when an artifact recorded with the
// suffix is the -compare baseline — or the gate silently compares nothing.
func TestSeriesNameDropsGOMAXPROCSSuffix(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkHotPathPublishFanout/sim-8":      "BenchmarkHotPathPublishFanout/sim",
		"BenchmarkHotPathPublishFanout/sim":        "BenchmarkHotPathPublishFanout/sim",
		"BenchmarkHotPathPublishFanout/sim-4sup-2": "BenchmarkHotPathPublishFanout/sim-4sup",
		"BenchmarkHotPathPublishFanout/sim-4sup":   "BenchmarkHotPathPublishFanout/sim-4sup",
		"BenchmarkFailoverConvergence/rf=0/n=16":   "BenchmarkFailoverConvergence/rf=0/n=16",
		"BenchmarkScaleJoin/n=2048/p=4":            "BenchmarkScaleJoin/n=2048/p=4",
		"BenchmarkTrieInsert-16":                   "BenchmarkTrieInsert",
		"BenchmarkOdd-":                            "BenchmarkOdd-",
	} {
		if got := seriesName(in); got != want {
			t.Errorf("seriesName(%q) = %q, want %q", in, got, want)
		}
	}

	var multi Report
	parse(strings.NewReader("BenchmarkHotPathPublishFanout/sim-8 1000 5 ns/op 60 allocs/op\n"), &multi)
	base := rep(res("BenchmarkHotPathPublishFanout/sim", map[string]float64{"allocs/op": 45}))
	if hits := compare(io.Discard, base, multi, 0.15, "allocs/op"); len(hits) != 1 {
		t.Errorf("8-core run against a 1-core baseline: %d regressions reported, want 1", len(hits))
	}

	path := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(path, []byte(`{"results":[{"name":"BenchmarkHotPathPublishFanout/sim-2","iterations":1,"metrics":{"allocs/op":45}}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	old, err := loadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if hits := compare(io.Discard, old, multi, 0.15, "allocs/op"); len(hits) != 1 {
		t.Errorf("baseline recorded with a suffix: %d regressions reported, want 1", len(hits))
	}
}
