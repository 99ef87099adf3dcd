// Command benchjson converts `go test -bench` text output into a JSON
// artifact, so CI runs can accumulate a machine-readable performance
// trajectory (BENCH_<sha>.json files) instead of throwaway logs, and
// compares two artifacts as a regression gate.
//
// Usage:
//
//	go test -bench . -benchmem | go run ./cmd/benchjson -commit $SHA -o BENCH_$SHA.json
//	go run ./cmd/benchjson -o out.json bench1.txt bench2.txt
//	go run ./cmd/benchjson -compare BENCH_old.json -o out.json bench1.txt
//	go run ./cmd/benchjson -compare BENCH_old.json BENCH_new.json
//
// Every benchmark result line of the form
//
//	BenchmarkName-8   1234   5678 ns/op   90 B/op   2 allocs/op   3.4 extra/metric
//
// becomes one JSON object with the benchmark name, iteration count and a
// metrics map keyed by unit (run benchmarks with -benchmem, or with
// b.ReportAllocs() in the benchmark, so B/op and allocs/op are part of
// every series); the -<GOMAXPROCS> suffix go test appends to the name on
// a multi-core run is dropped, so series recorded on machines with
// different core counts (or with GOMAXPROCS=1, which appends none) carry
// the same name. Non-benchmark lines are ignored, so raw `go test`
// output can be piped in unfiltered. Inputs ending in .json are loaded
// as previously written artifacts and merged, so two artifacts can be
// compared directly. When the same benchmark name appears more than once
// (e.g. a 1x smoke pass and a dedicated high-iteration pass of the same
// package), the last occurrence wins, so feed inputs lowest-fidelity
// first.
//
// With -compare OLD.json the assembled report is diffed against the
// baseline artifact: a markdown delta table goes to stdout (ready for a
// CI job summary), and the process exits with status 2 if any gated
// series regressed by more than -threshold (default 0.15 = 15%). The
// gate defaults to the allocation metrics (allocs/op, B/op), which are
// stable across machines; pass -gate all to also gate wall-clock and
// custom series, or -gate "ns/op,allocs/op" to pick your own. Series
// whose unit ends in "/s" are rates (higher is better); every other
// metric counts lower as better.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark measurement.
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the artifact schema.
type Report struct {
	Commit  string   `json:"commit,omitempty"`
	GoOS    string   `json:"goos,omitempty"`
	GoArch  string   `json:"goarch,omitempty"`
	Results []Result `json:"results"`
}

func main() {
	commit := flag.String("commit", "", "commit SHA to stamp into the artifact")
	out := flag.String("o", "", "output file (default stdout; suppressed in -compare mode unless set)")
	compareWith := flag.String("compare", "", "baseline artifact (.json) to diff against; exits 2 on regression")
	threshold := flag.Float64("threshold", 0.15, "relative regression beyond which a gated series fails")
	gate := flag.String("gate", "allocs/op,B/op", `comma-separated metric units to gate on, or "all"`)
	flag.Parse()

	rep := Report{Commit: *commit}
	if flag.NArg() == 0 {
		parse(os.Stdin, &rep)
	}
	for _, path := range flag.Args() {
		if strings.HasSuffix(path, ".json") {
			old, err := loadReport(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
				os.Exit(1)
			}
			rep.Results = append(rep.Results, old.Results...)
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		parse(f, &rep)
		f.Close()
	}
	rep.Results = dedupeKeepLast(rep.Results)

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	switch {
	case *out != "":
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: wrote %d results to %s\n", len(rep.Results), *out)
	case *compareWith == "":
		os.Stdout.Write(enc)
	}

	if *compareWith != "" {
		base, err := loadReport(*compareWith)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		regressions := compare(os.Stdout, base, rep, *threshold, *gate)
		if len(regressions) > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d series regressed beyond %.0f%%:\n", len(regressions), *threshold*100)
			for _, r := range regressions {
				fmt.Fprintf(os.Stderr, "  %s\n", r)
			}
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "benchjson: no gated series regressed beyond %.0f%%\n", *threshold*100)
	}
}

func loadReport(path string) (Report, error) {
	var rep Report
	b, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	for i := range rep.Results { // artifacts written before names were normalised
		rep.Results[i].Name = seriesName(rep.Results[i].Name)
	}
	return rep, nil
}

// procsSuffix is the -<GOMAXPROCS> go test appends to a benchmark's name:
// a trailing all-digit segment after the last '-'. "n=16", "/p=4" and
// "sim-4sup" are parts of the name.
var procsSuffix = regexp.MustCompile(`-[0-9]+$`)

// seriesName strips procsSuffix (BenchmarkX/sim-8 → BenchmarkX/sim).
func seriesName(name string) string { return procsSuffix.ReplaceAllString(name, "") }

// unitDirection is the explicit improvement direction per metric unit:
// true = higher is better (throughput rates), false = lower is better
// (times, bytes, allocations, rounds). Every unit a benchmark in this
// repository emits must be listed — the suffix heuristic this table
// replaced silently classified a typoed rate unit ("joins/sec") as
// lower-is-better and let a 10× throughput collapse pass the gate.
var unitDirection = map[string]bool{
	// Throughput rates: higher is better.
	"subs/s":  true,
	"joins/s": true,
	"pubs/s":  true,
	"msgs/s":  true,
	"ops/s":   true,
	// Standard go-bench series: lower is better.
	"ns/op":     false,
	"B/op":      false,
	"allocs/op": false,
	// Scale-sweep series (cmd/srsim scale -bench): lower is better.
	"p50-rounds":       false,
	"p95-rounds":       false,
	"max-rounds":       false,
	"stabilize-rounds": false,
	"db-bytes":         false,
	"trie-bytes":       false,
	"queue-bytes":      false,
	"wall-sec":         false,
	// Protocol experiment series: lower is better.
	"rounds":   false,
	"msgs":     false,
	"hops":     false,
	"messages": false,
}

// higherIsBetter resolves a unit's direction from the explicit table;
// unlisted units fall back to the per-second heuristic so ad-hoc local
// benchmarks still compare sensibly.
func higherIsBetter(unit string) bool {
	if hb, ok := unitDirection[unit]; ok {
		return hb
	}
	return strings.HasSuffix(unit, "/s")
}

// compare writes a markdown delta table for every series present in both
// reports and returns a description of each gated series that regressed
// beyond threshold. Series appearing in only one report are listed but
// never gate (a renamed or new benchmark is not a regression).
func compare(w io.Writer, old, cur Report, threshold float64, gate string) []string {
	gateAll := gate == "all"
	gated := map[string]bool{}
	for _, u := range strings.Split(gate, ",") {
		if u = strings.TrimSpace(u); u != "" {
			gated[u] = true
		}
	}
	oldBy := map[string]Result{}
	for _, r := range old.Results {
		oldBy[r.Name] = r
	}
	var regressions, added []string
	fmt.Fprintf(w, "| benchmark | metric | old | new | delta | |\n|---|---|---:|---:|---:|---|\n")
	for _, nr := range cur.Results {
		or, ok := oldBy[nr.Name]
		if !ok {
			added = append(added, nr.Name)
			continue
		}
		delete(oldBy, nr.Name)
		units := make([]string, 0, len(nr.Metrics))
		for u := range nr.Metrics {
			if _, both := or.Metrics[u]; both {
				units = append(units, u)
			}
		}
		sort.Strings(units)
		for _, u := range units {
			ov, nv := or.Metrics[u], nr.Metrics[u]
			var delta float64
			switch {
			case ov == nv:
				delta = 0
			case ov == 0:
				delta = math.Inf(1) // 0 → nonzero: treat as unbounded growth
			default:
				delta = nv/ov - 1
			}
			worse := delta > 0
			if higherIsBetter(u) {
				worse = delta < 0
			}
			mark := ""
			if worse && math.Abs(delta) > threshold {
				mark = "⚠"
				if gateAll || gated[u] {
					mark = "❌"
					regressions = append(regressions,
						fmt.Sprintf("%s %s: %.4g → %.4g (%+.1f%%)", nr.Name, u, ov, nv, delta*100))
				}
			}
			fmt.Fprintf(w, "| %s | %s | %.4g | %.4g | %+.1f%% | %s |\n", nr.Name, u, ov, nv, delta*100, mark)
		}
	}
	for _, name := range added {
		fmt.Fprintf(w, "| %s | | | | | new |\n", name)
	}
	removed := make([]string, 0, len(oldBy))
	for name := range oldBy {
		removed = append(removed, name)
	}
	sort.Strings(removed)
	for _, name := range removed {
		fmt.Fprintf(w, "| %s | | | | | removed |\n", name)
	}
	return regressions
}

// dedupeKeepLast collapses repeated benchmark names to their final
// measurement, preserving first-appearance order.
func dedupeKeepLast(results []Result) []Result {
	last := make(map[string]Result, len(results))
	for _, r := range results {
		last[r.Name] = r
	}
	out := make([]Result, 0, len(last))
	seen := make(map[string]bool, len(last))
	for _, r := range results {
		if !seen[r.Name] {
			seen[r.Name] = true
			out = append(out, last[r.Name])
		}
	}
	return out
}

func parse(r io.Reader, rep *Report) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, iterations, then (value, unit) pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		res := Result{Name: seriesName(fields[0]), Iterations: iters, Metrics: map[string]float64{}}
		ok := true
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				ok = false
				break
			}
			res.Metrics[fields[i+1]] = v
		}
		if ok {
			rep.Results = append(rep.Results, res)
		}
	}
}
