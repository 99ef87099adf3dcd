// Command experiments prints the paper's tables (internal/experiments:
// E1–E14 and the ablations A1–A3, reproducing each figure, lemma, theorem
// and comparative claim of Feldmann et al., "Self-Stabilizing Supervised
// Publish-Subscribe Systems"). Run with -quick for a fast pass or select
// one experiment with -only. The -quick pass is pinned by
// internal/experiments/testdata/quick.golden; regenerate it with
//
//	go run ./cmd/experiments -quick > internal/experiments/testdata/quick.golden
//
// Usage:
//
//	experiments [-quick] [-seed N] [-only E3]
package main

import (
	"flag"
	"os"

	"sspubsub/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "smaller sweeps for a fast pass")
	seed := flag.Int64("seed", 1, "base random seed")
	only := flag.String("only", "", "run only the experiment with this ID (e.g. E5, or ablations)")
	flag.Parse()
	experiments.Report(os.Stdout, *quick, *seed, *only)
}
