package main

// srsim chaos: the chaos scenario engine as a command. Runs named or
// seed-generated random scenarios on any execution substrate, prints the
// per-run convergence report, and — for failing random scenarios on the
// deterministic substrate — shrinks the action list to a 1-minimal failing
// core and prints the exact replay command.
//
//	srsim chaos -scenario=partition-heal -runtime=net
//	srsim chaos -scenario=random -count=200 -seed=1
//	srsim chaos -scenario=random-ordering -count=60 -seed=1
//	srsim chaos -scenario=message-reorder -mode=fifo
//	srsim chaos -scenario=random -seed=1337 -shrink
//	srsim chaos -scenario=state-corruption -n=8 -seed=3 -trace
//	srsim chaos -list

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"sspubsub/internal/chaos"
	"sspubsub/internal/metrics"
	"sspubsub/internal/ordering"
)

func runChaos(args []string) {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	scenario := fs.String("scenario", "random", "scenario name, 'random' for seed-generated scenarios, or 'random-ordering' for seed-generated ordered-delivery scenarios")
	mode := fs.String("mode", "besteffort", "delivery mode: besteffort | fifo | causal (a scenario's own mode wins when set)")
	runtime := fs.String("runtime", "sim", "execution substrate: sim | concurrent | net")
	n := fs.Int("n", 12, "initial member count")
	supervisors := fs.Int("supervisors", 1, "supervisor-plane size (a scenario's own supervisor count wins when set)")
	repFactor := fs.Int("repfactor", 0, "directory replication factor (a scenario's own ReplicationFactor wins when set)")
	seed := fs.Int64("seed", 1, "scenario seed (random scenarios replay exactly from it on -runtime=sim)")
	count := fs.Int("count", 1, "number of runs; run i uses seed+i-1")
	interval := fs.Duration("interval", 2*time.Millisecond, "timeout interval (concurrent/net substrates)")
	shrink := fs.Bool("shrink", false, "on a random-scenario failure, shrink the action list to a minimal failing core (sim runtime only)")
	list := fs.Bool("list", false, "list named scenarios and exit")
	verbose := fs.Bool("v", false, "log every applied action")
	trace := fs.Bool("trace", false, "print every delivered message and timeout to stderr in execution order: time-sorted per lane, lane after lane within each lookahead window (-runtime=sim, -count=1)")
	failuresOut := fs.String("failures-out", "", "append failing runs as JSON lines to this file (soak artifact)")
	fs.Parse(args)

	if *list {
		for _, sc := range chaos.Registry {
			fmt.Printf("%-22s %s\n", sc.Name, sc.Note)
		}
		return
	}

	// Strict validation: a typo must be loud, not a silently different
	// experiment.
	if *n < 3 {
		fail("-n must be at least 3, got %d", *n)
	}
	if *supervisors < 1 {
		fail("-supervisors must be at least 1, got %d", *supervisors)
	}
	if *repFactor < 0 {
		fail("-repfactor must be non-negative, got %d", *repFactor)
	}
	if *count < 1 {
		fail("-count must be positive, got %d", *count)
	}
	sub, err := chaos.ParseSubstrate(*runtime)
	if err != nil {
		fail("%v", err)
	}
	dm, err := ordering.ParseMode(*mode)
	if err != nil {
		fail("%v", err)
	}
	random := *scenario == "random"
	randomOrdering := *scenario == "random-ordering"
	var named chaos.Scenario
	if !random && !randomOrdering {
		var ok bool
		if named, ok = chaos.Lookup(*scenario); !ok {
			fail("unknown scenario %q (use -list; 'random' and 'random-ordering' generate from -seed)", *scenario)
		}
	}
	if *shrink && (!(random || randomOrdering) || sub != chaos.SubstrateSim) {
		fail("-shrink requires -scenario=random or -scenario=random-ordering and -runtime=sim (shrinking replays candidate action lists, which is only exact on the deterministic substrate)")
	}
	if *trace && (sub != chaos.SubstrateSim || *count != 1) {
		fail("-trace requires -runtime=sim and -count=1 (live runs have no deterministic event order to trace)")
	}

	var agg metrics.Convergence
	failures := 0
	for i := 0; i < *count; i++ {
		runSeed := *seed + int64(i)
		sc := named
		if random {
			sc = chaos.Generate(runSeed)
		} else if randomOrdering {
			sc = chaos.GenerateOrdering(runSeed)
		}
		cfg := chaos.Config{
			Substrate:         sub,
			N:                 *n,
			Supervisors:       *supervisors,
			ReplicationFactor: *repFactor,
			Seed:              runSeed,
			Interval:          *interval,
			DeliveryMode:      dm,
		}
		if *trace {
			cfg.Trace = os.Stderr
		}
		if *verbose {
			cfg.Log = func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			}
		}
		res := chaos.Run(sc, cfg)
		fmt.Println(res)
		agg.Observe(res.Rounds, res.Converged)
		if res.Converged {
			continue
		}
		failures++
		// The replay command must carry every flag that shaped the run, or
		// "exact replay" silently runs a different experiment.
		replay := fmt.Sprintf("srsim chaos -scenario=%s -runtime=%s -n=%d -seed=%d", *scenario, sub, *n, runSeed)
		if dm != ordering.BestEffort {
			replay += fmt.Sprintf(" -mode=%s", dm)
		}
		if *supervisors != 1 {
			replay += fmt.Sprintf(" -supervisors=%d", *supervisors)
		}
		if *repFactor != 0 {
			replay += fmt.Sprintf(" -repfactor=%d", *repFactor)
		}
		if sub != chaos.SubstrateSim {
			replay += fmt.Sprintf(" -interval=%s", *interval)
		}
		fmt.Printf("  replay: %s\n", replay)
		recordFailure(*failuresOut, res)
		if *shrink && (random || randomOrdering) {
			fmt.Printf("  shrinking %d actions…\n", len(res.Actions))
			cfg.Trace = nil // the candidate replays print nothing
			minimal := chaos.Shrink(res.Actions, func(actions []Action) bool {
				r := chaos.Run(chaos.Scenario{Name: sc.Name, DeliveryMode: sc.DeliveryMode, Actions: actions}, cfg)
				return !r.Converged
			})
			fmt.Printf("  minimal failing action list (%d actions):\n", len(minimal))
			for _, a := range minimal {
				fmt.Printf("    %s\n", a)
			}
		}
	}

	if *count > 1 {
		fmt.Printf("\nchaos summary: %s\n", agg.String())
	}
	if failures > 0 {
		fatalf("%d of %d runs failed to converge", failures, *count)
	}
}

// Action aliases the chaos action type for the shrink callback signature.
type Action = chaos.Action

// recordFailure appends one failing result as a JSON line (the nightly
// soak uploads the file as an artifact, so a red run always carries its
// replay seeds).
func recordFailure(path string, res chaos.Result) {
	if path == "" {
		return
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		fmt.Fprintf(os.Stderr, "srsim: failures-out: %v\n", err)
		return
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "srsim: failures-out: %v\n", err)
	}
}
