package main

import (
	"flag"
	"fmt"

	"sspubsub/internal/metrics"
	"sspubsub/internal/ordering"
	"sspubsub/internal/scale"
)

// runScale executes the scale sweep: for each n it drives n real-protocol
// subscribers (multiplexed into pools, see internal/scale), measures join
// latency, publish fan-out and post-crash stabilization, accounts memory
// (element counts × sizes, see scale.Result), then fits power-law growth
// exponents across the sweep. The table's wall-second
// columns are the only time numbers here; the gated ones come from
// bench/run.sh.
//
// The sweep runs on the deterministic lane-sharded engine; -workers only
// chooses how many goroutines execute it (0 = one per CPU) and every value
// produces bit-identical results. -digest prints a canonical per-point
// DIGEST line — CI diffs those lines across worker counts to enforce the
// P-independence invariant.
func runScale(args []string) {
	fs := flag.NewFlagSet("scale", flag.ExitOnError)
	sw := sweepFlags(fs)
	mode := fs.String("mode", "besteffort", "delivery mode: besteffort | fifo | causal (ordered modes time fan-out on actual deliveries)")
	digest := fs.Bool("digest", false, "print a DIGEST line per point (canonical schedule-determined fields, for divergence diffing)")
	fs.Parse(args)

	ns, stop := sw.start("scale")
	defer stop()
	var err error
	if sw.cfg.DeliveryMode, err = ordering.ParseMode(*mode); err != nil {
		fail("scale: %v", err)
	}

	results := make([]scale.Result, 0, len(ns))
	for _, n := range ns {
		fmt.Printf("# n=%d: running join → fan-out → crash-burst scenario...\n", n)
		sw.cfg.N = n
		res := scale.Run(sw.cfg)
		results = append(results, res)
		if !res.Converged {
			fmt.Printf("# n=%d: DID NOT CONVERGE — curves below exclude it\n", n)
		}
		if *digest {
			fmt.Printf("DIGEST %s\n", res.Digest())
		}
	}

	tbl := metrics.NewTable("n", "join p50/p95/max (rounds)", "joins/s",
		"fanout p50/p95/max (rounds)", "stabilize (rounds)", "db bytes", "trie bytes",
		"join s", "fanout s", "stabilize s")
	for _, r := range results {
		tbl.AddRow(r.N,
			fmt.Sprintf("%.0f / %.0f / %.0f", r.JoinRounds.P50, r.JoinRounds.P95, r.JoinRounds.Max),
			fmt.Sprintf("%.0f", r.JoinsPerSec),
			fmt.Sprintf("%.0f / %.0f / %.0f", r.FanoutRounds.P50, r.FanoutRounds.P95, r.FanoutRounds.Max),
			r.StabilizeRounds, r.SupDBBytes, r.SubTrieBytes,
			r.JoinWallSec, r.FanoutWallSec, r.StabilizeWallSec)
	}
	fmt.Println()
	fmt.Print(tbl.String())

	// Exponent fits need at least two converged points.
	var xs, joinP95, fanP95, stab, db, jps []float64
	for _, r := range results {
		if !r.Converged {
			continue
		}
		xs = append(xs, float64(r.N))
		joinP95 = append(joinP95, r.JoinRounds.P95)
		fanP95 = append(fanP95, r.FanoutRounds.P95)
		stab = append(stab, float64(r.StabilizeRounds))
		db = append(db, float64(r.SupDBBytes))
		jps = append(jps, r.JoinsPerSec)
	}
	if len(xs) < 2 {
		fmt.Println("\n(fewer than two converged points: no exponent fit)")
		return
	}
	fmt.Println("\nPower-law fits y = a·n^b across the sweep (b ≈ 1 linear; b ≪ 1 consistent with O(log n)):")
	fit := func(name string, ys []float64, expect string) {
		_, b := scale.FitPowerLaw(xs, ys)
		fmt.Printf("  %-28s b = %+.3f   (paper: %s)\n", name, b, expect)
	}
	fit("join latency p95", joinP95, "O(log n)")
	fit("publish fan-out p95", fanP95, "O(log n)")
	fit("stabilize after 1% crash", stab, "O(n/cull-budget) sweep; ~flat with the n/64 budget")
	fit("supervisor DB bytes", db, "Θ(n)")
	fit("joins/s", jps, "per-join work O(log n) → mildly sub-linear decay")
}
