// Command srsim runs the self-stabilizing supervised publish-subscribe
// system: single-process simulations on any execution substrate, and real
// multi-process deployments over TCP.
//
// One-shot simulation:
//
//	srsim -n 32 -scenario corrupted-states [-seed 7] [-rounds 20000] [-trace]
//	srsim -n 32 -runtime concurrent [-interval 2ms]
//	srsim -n 16 -runtime net [-pubs 8]      # every message crosses TCP loopback
//	srsim -n 24 -supervisors 4              # crash-tolerant sharded supervisor plane
//	srsim -scenarios                        # list scenarios
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
// With -runtime=sim (the default) the run is a deterministic
// discrete-event simulation (the same engine, run inline) and every
// corruption scenario is available.
// With -runtime=concurrent the same protocol code runs on the live
// goroutine-per-node runtime (`srsim chaos -scenario=crash-restart-storm
// -runtime=concurrent` drives crash/restart churn against it). With
// -runtime=net the live nodes exchange every message as binary wire
// frames over a loopback TCP socket.
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
	"flag"
	"fmt"
	"os"
	"time"

	"sspubsub/internal/cluster"
	"sspubsub/internal/experiments"
	"sspubsub/internal/psim"
	"sspubsub/internal/runtime/nettransport"
	"sspubsub/internal/sim"
)

const topic sim.Topic = 1

// fail prints a usage error and exits non-zero: invalid flag combinations
// must be loud, not silently ignored.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "srsim: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	if len(os.Args) > 1 {
		switch arg := os.Args[1]; arg {
		case "serve":
			runServe(os.Args[2:])
			return
		case "join":
			runJoin(os.Args[2:])
			return
		case "chaos":
			runChaos(os.Args[2:])
			return
		case "scale":
			runScale(os.Args[2:])
			return
		case "failover":
			runFailover(os.Args[2:])
			return
		default:
			// Anything that is not a flag must be a known subcommand: a typo
			// like `srsim chaso` silently running the one-shot simulation
			// would make the operator believe they ran something they did
			// not.
			if len(arg) > 0 && arg[0] != '-' {
				fail("unknown subcommand %q (subcommands: serve, join, chaos, scale, failover; run without a subcommand for a one-shot simulation)", arg)
			}
		}
	}
	runOneShot()
}

func runOneShot() {
	n := flag.Int("n", 32, "number of subscribers")
	supervisors := flag.Int("supervisors", 1, "supervisor-plane size: topics shard over this many supervisors by consistent hashing")
	seed := flag.Int64("seed", 1, "random seed (sim runs are reproducible)")
	runtime := flag.String("runtime", "sim", "execution substrate: sim | concurrent | net")
	interval := flag.Duration("interval", 2*time.Millisecond, "timeout interval (concurrent/net runtimes)")
	scenario := flag.String("scenario", "fresh-join-burst", "initial state scenario")
	rounds := flag.Int("rounds", 20000, "max rounds before giving up")
	trace := flag.Bool("trace", false, "print every delivered message and timeout in execution order: time-sorted per lane, lane after lane within each lookahead window (sim runtime)")
	list := flag.Bool("scenarios", false, "list scenarios and exit")
	pubs := flag.Int("pubs", 0, "publish this many items after convergence and wait for full dissemination")
	crash := flag.Float64("crash", 0, "crash this fraction of nodes after convergence")
	flag.Parse()

	if *list {
		for _, s := range experiments.AllScenarios {
			fmt.Println(string(s))
		}
		return
	}

	// Validate flag combinations before anything starts: a silently
	// ignored flag makes the operator believe they measured something
	// they did not.
	if *n <= 0 {
		fail("-n must be positive, got %d", *n)
	}
	if *supervisors < 1 {
		fail("-supervisors must be at least 1, got %d", *supervisors)
	}
	if *crash < 0 || *crash >= 1 {
		fail("-crash must be in [0, 1), got %g", *crash)
	}
	sc := experiments.E5Scenario(*scenario)
	known := false
	for _, s := range experiments.AllScenarios {
		if s == sc {
			known = true
			break
		}
	}
	if !known {
		fail("unknown scenario %q (use -scenarios to list)", *scenario)
	}
	switch *runtime {
	case "sim":
	case "concurrent":
		if sc != experiments.ScenarioFresh {
			fail("scenario %q requires -runtime=sim (live state cannot be corrupted in place)", *scenario)
		}
		if *trace {
			fail("-trace requires -runtime=sim (live runs have no deterministic event order to trace)")
		}
	case "net":
		if sc != experiments.ScenarioFresh {
			fail("scenario %q requires -runtime=sim (live state cannot be corrupted in place)", *scenario)
		}
		if *trace {
			fail("-trace requires -runtime=sim")
		}
	default:
		fail("unknown -runtime %q (use sim, concurrent or net)", *runtime)
	}

	var tr cluster.Substrate
	if *trace {
		tr = traced{psim.New(psim.Options{Seed: *seed, Workers: 1})}
	} else {
		var err error
		if tr, err = cluster.NewSubstrate(*runtime, *seed, *interval); err != nil {
			fatalf("%v", err)
		}
	}
	defer tr.Close()
	run(cluster.New(tr, cluster.Options{Supervisors: *supervisors}), *n, sc, *seed, *rounds, *pubs, *crash)
}

// traced decorates the deterministic engine for -trace: every handler
// registered through it prints its deliveries and timeouts to stderr, in
// the order the inline engine executes them.
type traced struct{ *psim.Engine }

func (t traced) AddNode(id sim.NodeID, h sim.Handler) { t.Engine.AddNode(id, tracedHandler{h}) }

type tracedHandler struct{ sim.Handler }

func (h tracedHandler) OnMessage(ctx sim.Context, m sim.Message) {
	fmt.Fprintf(os.Stderr, "%.3f deliver %s\n", ctx.Now(), m)
	h.Handler.OnMessage(ctx, m)
}

func (h tracedHandler) OnTimeout(ctx sim.Context) {
	fmt.Fprintf(os.Stderr, "%.3f timeout %d\n", ctx.Now(), ctx.Self())
	h.Handler.OnTimeout(ctx)
}

// run executes the one-shot scenario on whatever substrate l was built on:
// a round is virtual time on the deterministic engine and one -interval of
// wall clock on the live runtimes, and every state read is a frozen
// snapshot — l's driver surface hides the difference.
func run(l *cluster.Live, n int, sc experiments.E5Scenario, seed int64, rounds int, pubs int, crash float64) {
	explain := func() string {
		out := "system did not quiesce"
		l.Freeze(func() { out = l.Explain(topic) })
		return out
	}
	l.AddClients(n)
	l.JoinAll(topic)

	if sc != experiments.ScenarioFresh {
		if _, ok := l.RunUntilConverged(topic, n, 5000); !ok {
			fatalf("setup convergence failed: %s", explain())
		}
		fmt.Printf("setup: legitimate SR(%d) built; injecting %s\n", n, sc)
	}

	start := l.Now()
	// The rounds the injection spends (the garbage round) count.
	experiments.Inject(l, sc, n, seed)
	if r, ok := l.RunUntilConverged(topic, n, rounds); !ok {
		fatalf("NOT converged after %d rounds: %s", r, explain())
	}
	elapsed := l.Now() - start
	fmt.Printf("converged to legitimate SR(%d) in %.0f rounds (%d messages, %.1f per node per round)\n",
		n, elapsed, l.Delivered(), float64(l.Delivered())/float64(n)/(elapsed+1))

	if crash > 0 {
		members := l.Members(topic)
		k := int(crash * float64(n))
		for i := 0; i < k; i++ {
			l.Crash(members[i*len(members)/k])
		}
		fmt.Printf("crashed %d nodes; waiting for recovery…\n", k)
		r, ok := l.RunUntilConverged(topic, n-k, rounds)
		if !ok {
			fatalf("no recovery: %s", explain())
		}
		fmt.Printf("recovered to legitimate SR(%d) in %d rounds\n", n-k, r)
	}

	if pubs > 0 {
		members := l.Members(topic)
		for i := 0; i < pubs; i++ {
			l.Publish(members[i%len(members)], topic, fmt.Sprintf("pub-%d", i))
		}
		r, ok := l.RunUntil(rounds, func() bool {
			return l.AllHavePubs(topic, pubs) && l.TriesEqual(topic)
		})
		if !ok {
			fatalf("publications never converged")
		}
		fmt.Printf("%d publications disseminated to all %d subscribers in %d rounds\n",
			pubs, len(members), r)
	}

	if nt, ok := l.Tr.(*nettransport.Transport); ok {
		fmt.Printf("wire: %d frames garbage, %d frames lost\n", nt.GarbageFrames(), nt.LostFrames())
	}
	fmt.Println("\nfinal state:")
	l.Freeze(func() {
		for _, id := range l.Members(topic) {
			if st, ok := l.Clients[id].StateOf(topic); ok {
				fmt.Printf("  node %-4d label %-8s left %-12s right %-12s ring %-12s shortcuts %d\n",
					id, st.Label, st.Left, st.Right, st.Ring, len(st.Shortcuts))
			}
		}
	})
}

// fatalf reports a runtime failure (as opposed to a usage error) and
// exits 1.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "srsim: "+format+"\n", args...)
	os.Exit(1)
}
