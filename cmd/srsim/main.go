// Command srsim runs the self-stabilizing supervised publish-subscribe
// system: fault scenarios on any execution substrate, scale and failover
// sweeps on the deterministic engine, and real multi-process deployments
// over TCP. A bare `srsim` prints the subcommands and exits 2.
//
// Scenarios (Theorem 8's arbitrary initial states and every other fault
// script, each run from a converged SR(n) and judged by the invariant
// probes):
//
//	srsim chaos -scenario=state-corruption -n=32        # deterministic (-runtime=sim)
//	srsim chaos -scenario=db-corruption -runtime=concurrent -interval=1ms
//	srsim chaos -scenario=garbage-channels -runtime=net # every message crosses TCP loopback
//	srsim chaos -scenario=crash-burst -supervisors=4    # crash-tolerant sharded supervisor plane
//	srsim chaos -scenario=split-states -trace           # every delivery and timeout (sim only)
//	srsim chaos -list                                   # list scenarios
//
// E5's measured convergence rows, fresh-join-burst included, are
// `go run ./cmd/experiments -only E5`.
//
// Scale sweeps (the empirical O(log n) curves):
//
//	srsim scale -ns 1000,10000,100000       # sweep, table + exponent fits
//	srsim scale -ns 100000 -workers 8       # eight lane workers (bit-identical for any -workers)
//	srsim failover -ns 1000,10000 -rf 2     # supervisor failover-to-convergence sweep
//
// Scale and failover sweeps run the deterministic engine (internal/psim)
// with one lane worker per CPU by default (-workers 0); results are
// bit-identical for every -workers value, so parallelism never costs
// reproducibility.
// -cpuprofile/-memprofile write pprof profiles of a sweep.
//
// Networked deployment across processes:
//
//	srsim serve -listen 127.0.0.1:7411 -topic news -local 2 -expect 5 -pubs 3
//	srsim join  -hub 127.0.0.1:7411 -topic news -local 3 -pubs 2 -waitpubs 5
//
// The serve process hosts the supervisor and relays traffic; each join
// process receives a node-ID block and runs its own subscribers. All
// processes converge onto one skip ring and disseminate each other's
// publications.
package main

import (
	"fmt"
	"os"
)

const usage = `usage: srsim <subcommand> [flags]

subcommands:
  chaos     run named or seed-generated fault scenarios on sim, concurrent or net
  scale     sweep the subscriber count: join, fan-out and crash-burst curves
  failover  sweep supervisor failover to convergence on a sharded plane
  serve     host the supervisor of a networked deployment
  join      attach subscribers to a running serve process

'srsim <subcommand> -h' lists a subcommand's flags.
`

// fail prints a usage error and exits non-zero: invalid flag combinations
// must be loud, not silently ignored.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "srsim: "+format+"\n", args...)
	os.Exit(2)
}

// fatalf reports a runtime failure (as opposed to a usage error) and
// exits 1.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "srsim: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprint(os.Stderr, usage)
		os.Exit(2)
	}
	switch cmd, args := os.Args[1], os.Args[2:]; cmd {
	case "serve":
		runServe(args)
	case "join":
		runJoin(args)
	case "chaos":
		runChaos(args)
	case "scale":
		runScale(args)
	case "failover":
		runFailover(args)
	default:
		fail("unknown subcommand %q (subcommands: chaos, scale, failover, serve, join)", cmd)
	}
}
