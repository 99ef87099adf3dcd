// Command bench is the end-to-end half of the repository's benchmark: it
// drives the five named workloads through the public sspubsub facade (plus
// internal/scale for scale.psim) with tracing off, checks the outputs, and
// prints every end-to-end metric by name and unit. The traced half, which
// attributes time to layers, is ./layers. See README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"sspubsub/bench/load"
)

// metricDef is one gated end-to-end metric. BENCHMARK.json repeats this
// table for the driver; bench_test.go checks that the two agree.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEnd are the metrics every workload reports. latency_p50_ms and
// throughput_per_s are each workload's own headline numbers under one name
// (README.md has the table): complete_p50_ms and pubs_per_s on fanout.* and
// bulk.net, restabilize_p50_ms and cycles/s on recover.concurrent,
// sim_wall_s and simulated subscribers/s on scale.psim. The bounds are the
// largest the driver allows: identical work varies by a tenth from minute to
// minute on the shared reference box (README.md, "Bounds").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and print the result line the benchmark driver reads")
		all     = flag.Bool("all", false, "run every workload once")
		aa      = flag.Bool("aa", false, "run two sets of every workload back to back and fail if they disagree by more than a metric's bound")
		runs    = flag.Int("runs", 1, "with -aa: runs per workload and set, each with its own seed")
		compare = flag.String("compare", "", "a.json,b.json: compare two -out files (parent, change) by the -aa rule")
		seed    = flag.Int64("seed", 1, "workload seed: SimOptions.Seed, publisher rotation, crash victims")
		seconds = flag.Float64("seconds", 16, "measured seconds per run")
		out     = flag.String("out", "", "write the machine-readable results to this file")
		trace   = flag.Int("trace", 0, "must be 0 here; traced runs are ./layers (run.sh dispatches)")
	)
	flag.Parse()
	if *trace != 0 {
		fatal("bench: -trace 1 is the ./layers binary; use bench/run.sh")
	}
	p := params{seed: *seed, seconds: *seconds, setups: 9}
	var results []*load.Result
	var driver *load.Result // set in driver mode: its result line goes last
	ok := true
	switch {
	case *compare != "":
		a, b, found := strings.Cut(*compare, ",")
		if !found {
			fatal("bench: -compare wants a.json,b.json")
		}
		parent, err := load.ReadResults(a)
		if err != nil {
			fatal("bench: %v", err)
		}
		change, err := load.ReadResults(b)
		if err != nil {
			fatal("bench: %v", err)
		}
		ok = agree(parent, change, false)
	case *aa:
		var a, b []*load.Result
		a, b, ok = runAA(p, *runs)
		results = append(a, b...)
		ok = agree(a, b, true) && ok
	case *all:
		for _, w := range load.Workloads {
			r := run[w.Name](p)
			r.Print(os.Stdout)
			results = append(results, r)
			ok = ok && r.Correct()
		}
	case *name != "":
		scenario, found := run[*name]
		if !found {
			fatal("bench: unknown workload %q", *name)
		}
		driver = scenario(p)
		driver.Print(os.Stdout)
		results = append(results, driver)
		ok = driver.Correct()
	default:
		flag.Usage()
		os.Exit(2)
	}
	if *out != "" {
		if err := load.WriteResults(*out, results); err != nil {
			fatal("bench: write %s: %v", *out, err)
		}
	}
	if driver != nil {
		fmt.Println(driver.DriverLine(endToEndNames()))
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

func endToEndNames() []string {
	names := make([]string, len(endToEnd))
	for i, m := range endToEnd {
		names[i] = m.Name
	}
	return names
}
