package main

import (
	"flag"
	"fmt"

	"sspubsub/internal/metrics"
	"sspubsub/internal/scale"
)

// runFailover executes the supervisor-failover sweep: for each n it builds
// a sharded supervisor plane hosting n pooled subscribers, crashes the
// topic's owner, and measures rounds until the hashdht successor's
// database is exact and every survivor reports to it. -rf selects the
// directory replication factor: 0 measures the cold rebuild-from-
// subscribers baseline, ≥ 1 the warm-replica adoption path.
func runFailover(args []string) {
	fs := flag.NewFlagSet("failover", flag.ExitOnError)
	sw := sweepFlags(fs)
	fs.IntVar(&sw.cfg.ReplicationFactor, "rf", 2, "directory replication factor (0 = cold Reregister rebuild baseline)")
	fs.IntVar(&sw.cfg.Supervisors, "supervisors", 4, "supervisor-plane size")
	fs.Parse(args)

	ns, stop := sw.start("failover")
	defer stop()
	rf := sw.cfg.ReplicationFactor
	if rf < 0 {
		fail("failover: -rf must be non-negative, got %d", rf)
	}
	if sw.cfg.Supervisors < 2 {
		fail("failover: -supervisors must be at least 2 (there must be a successor to fail over to), got %d", sw.cfg.Supervisors)
	}

	results := make([]scale.FailoverResult, 0, len(ns))
	for _, n := range ns {
		fmt.Printf("# n=%d rf=%d: join → settle → crash owner → converge...\n", n, rf)
		sw.cfg.N = n
		res := scale.RunFailover(sw.cfg)
		results = append(results, res)
		if !res.Converged {
			fmt.Printf("# n=%d: DID NOT CONVERGE — curve below excludes it\n", n)
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
	if rf > 0 {
		fmt.Printf("   (warm adoption: expected ≈ 0 — the replica ships no per-subscriber traffic)\n")
	} else {
		fmt.Printf("   (cold rebuild: grows with n — every survivor Reregisters)\n")
	}
}
