package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"sspubsub/internal/metrics"
	"sspubsub/internal/scale"
)

// runFailover executes the supervisor-failover sweep: for each n it builds
// a sharded supervisor plane hosting n pooled subscribers, crashes the
// topic's owner, and measures rounds until the hashdht successor's
// database is exact and every survivor reports to it. -rf selects the
// directory replication factor: 0 measures the cold rebuild-from-
// subscribers baseline, ≥ 1 the warm-replica adoption path. With -bench
// the points are also printed as go-bench result lines for cmd/benchjson:
//
//	srsim failover -ns 1000,10000,100000 -rf 2 -bench | go run ./cmd/benchjson
func runFailover(args []string) {
	fs := flag.NewFlagSet("failover", flag.ExitOnError)
	nsFlag := fs.String("ns", "1000,10000,100000", "comma-separated subscriber counts to sweep")
	rf := fs.Int("rf", 2, "directory replication factor (0 = cold Reregister rebuild baseline)")
	supervisors := fs.Int("supervisors", 4, "supervisor-plane size")
	seed := fs.Int64("seed", 1, "random seed (runs are reproducible)")
	poolSize := fs.Int("poolsize", 1024, "virtual subscribers per pool node")
	cull := fs.Int("cull", 0, "supervisor cull budget per timeout (0 = auto, n/64)")
	maxRounds := fs.Int("maxrounds", 0, "max rounds per convergence wait (0 = default)")
	bench := fs.Bool("bench", false, "emit go-bench result lines (pipe into cmd/benchjson)")
	workers := fs.Int("workers", 0, "lane workers executing the engine (results are identical for every value); 0 = engine default, one per CPU")
	lanes := fs.Int("lanes", 0, "engine lane count (part of the schedule identity; 0 = default 16)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile covering the whole sweep to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile (taken after the sweep) to this file")
	fs.Parse(args)

	if *workers < 0 {
		fail("failover: -workers must be >= 0, got %d", *workers)
	}
	stopCPU := startCPUProfile(*cpuprofile)
	defer stopCPU()
	defer writeMemProfile(*memprofile)

	var ns []int
	for _, part := range strings.Split(*nsFlag, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			fail("failover: -ns entries must be positive integers, got %q", part)
		}
		ns = append(ns, n)
	}
	if len(ns) == 0 {
		fail("failover: -ns is empty")
	}
	if *rf < 0 {
		fail("failover: -rf must be non-negative, got %d", *rf)
	}
	if *supervisors < 2 {
		fail("failover: -supervisors must be at least 2 (there must be a successor to fail over to), got %d", *supervisors)
	}

	results := make([]scale.FailoverResult, 0, len(ns))
	for _, n := range ns {
		fmt.Printf("# n=%d rf=%d: join → settle → crash owner → converge...\n", n, *rf)
		res := scale.RunFailover(scale.FailoverConfig{
			N:                 n,
			PoolSize:          *poolSize,
			Seed:              *seed,
			Supervisors:       *supervisors,
			ReplicationFactor: *rf,
			CullPerTimeout:    *cull,
			MaxRounds:         *maxRounds,
			Workers:           *workers,
			Lanes:             *lanes,
		})
		results = append(results, res)
		if !res.Converged {
			fmt.Printf("# n=%d: DID NOT CONVERGE — curve below excludes it\n", n)
		}
		if *bench {
			// The rounds are schedule-determined — identical for every
			// -workers value — so the series name carries no worker count.
			fmt.Printf("BenchmarkFailoverConvergence/rf=%d/n=%d 1 %d failover-rounds %d relabelled %d setup-rounds\n",
				res.RepFactor, res.N, res.FailoverRounds, res.Relabelled, res.SetupRounds)
		}
	}

	tbl := metrics.NewTable("n", "rf", "replica warm", "failover (rounds)", "relabelled", "setup (rounds)")
	for _, r := range results {
		tbl.AddRow(r.N, r.RepFactor, r.ReplicaWarm, r.FailoverRounds, r.Relabelled, r.SetupRounds)
	}
	fmt.Println()
	fmt.Print(tbl.String())

	var xs, fo []float64
	for _, r := range results {
		if !r.Converged {
			continue
		}
		xs = append(xs, float64(r.N))
		fo = append(fo, float64(r.FailoverRounds))
	}
	if len(xs) < 2 {
		fmt.Println("\n(fewer than two converged points: no exponent fit)")
		return
	}
	_, b := scale.FitPowerLaw(xs, fo)
	fmt.Printf("\nPower-law fit failover-rounds = a·n^b: b = %+.3f", b)
	if *rf > 0 {
		fmt.Printf("   (warm adoption: expected ≈ 0 — the replica ships no per-subscriber traffic)\n")
	} else {
		fmt.Printf("   (cold rebuild: grows with n — every survivor Reregisters)\n")
	}
}
