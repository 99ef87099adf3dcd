package sspubsub

// Benchmark harness: one benchmark per experiment (per paper artifact;
// see DESIGN.md's experiment index and EXPERIMENTS.md for recorded
// results). Custom metrics carry the quantities the paper's claims are
// stated in (rounds, messages per round, hops), so
//
//	go test -bench=. -benchmem
//
// regenerates every series. Micro-benchmarks for the hot data structures
// (label algebra, Patricia trie) follow at the end.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"sspubsub/internal/baseline"
	"sspubsub/internal/cluster"
	"sspubsub/internal/core"
	"sspubsub/internal/experiments"
	"sspubsub/internal/label"
	"sspubsub/internal/metrics"
	"sspubsub/internal/ordering"
	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
	"sspubsub/internal/topology"
	"sspubsub/internal/trie"
)

const benchTopic sim.Topic = 1

// BenchmarkE1_Figure1Topology constructs SR(16) and verifies its edge
// census against Figure 1 on every iteration.
func BenchmarkE1_Figure1Topology(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E1Figure1()
		if res.ByLevel[4] != 16 || res.ByLevel[1] != 1 {
			b.Fatal("Figure 1 mismatch")
		}
	}
}

// BenchmarkE2_DegreeStats builds SR(n) and reports Lemma 3's quantities.
func BenchmarkE2_DegreeStats(b *testing.B) {
	for _, n := range []int{16, 256, 4096, 65536} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var st topology.DegreeStats
			for i := 0; i < b.N; i++ {
				st = topology.New(n).Stats()
			}
			b.ReportMetric(float64(st.MaxDegree), "maxdeg")
			b.ReportMetric(st.AvgDegree, "avgdeg")
			b.ReportMetric(float64(st.Directed), "edges")
		})
	}
}

// BenchmarkE3_ConfigRequestRate measures Theorem 5's request rate in a
// legitimate steady state.
func BenchmarkE3_ConfigRequestRate(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			c := benchConverge(b, n, 100+int64(n))
			c.ResetCounters()
			b.ResetTimer()
			rounds := 0
			for i := 0; i < b.N; i++ {
				c.RunRounds(1)
				rounds++
			}
			b.ReportMetric(float64(c.CountByType("proto.GetConfiguration"))/float64(rounds), "requests/round")
		})
	}
}

// BenchmarkE4_SubscribeOverhead measures one join through full
// re-convergence (Theorem 7's constant supervisor work per operation).
func BenchmarkE4_SubscribeOverhead(b *testing.B) {
	c := benchConverge(b, 16, 11)
	n := 16
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := c.AddClient()
		c.Join(id, benchTopic)
		n++
		if _, ok := c.RunUntilConverged(benchTopic, n, 2000); !ok {
			b.Fatalf("join %d did not converge", i)
		}
	}
	b.ReportMetric(float64(c.SentBy(cluster.SupervisorID))/float64(b.N), "sup-msgs/join(total)")
}

// BenchmarkE5_Convergence measures rounds-to-legitimacy per initial-state
// scenario (Theorem 8).
func BenchmarkE5_Convergence(b *testing.B) {
	for _, sc := range experiments.AllScenarios {
		for _, n := range []int{16, 64} {
			b.Run(fmt.Sprintf("%s/n=%d", sc, n), func(b *testing.B) {
				totalRounds := 0
				for i := 0; i < b.N; i++ {
					rounds, ok := benchScenario(sc, n, int64(i)*17+3)
					if !ok {
						b.Fatalf("scenario %s n=%d seed=%d did not converge", sc, n, i)
					}
					totalRounds += rounds
				}
				b.ReportMetric(float64(totalRounds)/float64(b.N), "rounds")
			})
		}
	}
}

func benchScenario(sc experiments.E5Scenario, n int, seed int64) (int, bool) {
	if sc == experiments.ScenarioFresh {
		c := cluster.NewSim(cluster.Options{Seed: seed})
		c.AddClients(n)
		c.JoinAll(benchTopic)
		return c.RunUntilConverged(benchTopic, n, 5000)
	}
	c := cluster.NewSim(cluster.Options{Seed: seed})
	c.AddClients(n)
	c.JoinAll(benchTopic)
	if _, ok := c.RunUntilConverged(benchTopic, n, 5000); !ok {
		return 0, false
	}
	switch sc {
	case experiments.ScenarioCorrupt:
		c.CorruptSubscriberStates(benchTopic, c.Rand())
	case experiments.ScenarioPartition:
		c.PartitionStates(benchTopic, 3)
	case experiments.ScenarioBadDB:
		c.CorruptSupervisorDB(benchTopic, c.Rand())
	case experiments.ScenarioGarbageMsg:
		// The garbage is spread over the following round: it must land
		// before the predicate is first polled, and that round counts.
		c.SendGarbageMessages(benchTopic, 5*n, c.Rand())
		c.RunRounds(1)
		rounds, ok := c.RunUntilConverged(benchTopic, n, 20000)
		return rounds + 1, ok
	}
	return c.RunUntilConverged(benchTopic, n, 20000)
}

// BenchmarkE6_Closure runs a converged system and reports the steady-state
// maintenance message rate (Theorem 13's quiet state).
func BenchmarkE6_Closure(b *testing.B) {
	c := benchConverge(b, 64, 13)
	c.ResetCounters()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.RunRounds(1)
	}
	if !c.ConvergedWith(benchTopic, 64) {
		b.Fatal("legitimacy lost during closure run")
	}
	b.ReportMetric(float64(c.Delivered())/float64(b.N)/64, "msgs/node/round")
}

// BenchmarkE7_PublicationConvergence measures anti-entropy-only
// reconciliation (Theorem 17).
func BenchmarkE7_PublicationConvergence(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			totalRounds := 0
			for i := 0; i < b.N; i++ {
				c := cluster.NewSim(cluster.Options{
					Seed:       int64(i)*7 + int64(n),
					ClientOpts: core.Options{DisableFlooding: true},
				})
				c.AddClients(n)
				c.JoinAll(benchTopic)
				if _, ok := c.RunUntilConverged(benchTopic, n, 2000); !ok {
					b.Fatal("setup failed")
				}
				members := c.Members(benchTopic)
				for p := 0; p < 10; p++ {
					c.Publish(members[p%len(members)], benchTopic, fmt.Sprintf("p%d", p))
				}
				rounds, ok := c.RunUntil(20000, func() bool {
					return c.AllHavePubs(benchTopic, 10) && c.TriesEqual(benchTopic)
				})
				if !ok {
					b.Fatal("anti-entropy did not converge")
				}
				totalRounds += rounds
			}
			b.ReportMetric(float64(totalRounds)/float64(b.N), "rounds")
		})
	}
}

// BenchmarkE8_FloodingVsRing reports broadcast depth on SR(n) versus the
// plain ring (Section 4.3 vs the PSVR-style baselines).
func BenchmarkE8_FloodingVsRing(b *testing.B) {
	for _, n := range []int{64, 1024, 16384} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var skip, ring int
			for i := 0; i < b.N; i++ {
				skip = len(baseline.FloodHops(baseline.NewSkipRing(n), 0)) - 1
				ring = len(baseline.FloodHops(baseline.NewRing(n), 0)) - 1
			}
			b.ReportMetric(float64(skip), "skipring-hops")
			b.ReportMetric(float64(ring), "ring-hops")
		})
	}
}

// BenchmarkE9_Figure2TrieSync replays the Figure 2 reconciliation.
func BenchmarkE9_Figure2TrieSync(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E9Figure2()
		if !res.P4Delivered {
			b.Fatal("P4 not delivered")
		}
	}
}

// BenchmarkE10_Congestion reports the balance comparison of Section 1.3.
func BenchmarkE10_Congestion(b *testing.B) {
	const n, keys = 512, 100000
	b.Run("position-balance", func(b *testing.B) {
		var srb, chb baseline.PositionBalance
		for i := 0; i < b.N; i++ {
			rng := rand.New(rand.NewSource(int64(i)))
			srb = baseline.KeyLoad("skip-ring", baseline.NewSkipRing(n).Positions(), keys, rng)
			chb = baseline.KeyLoad("chord", baseline.NewChord(n, rng).Positions(), keys, rng)
		}
		b.ReportMetric(srb.MaxOverAvg, "skipring-max/avg")
		b.ReportMetric(chb.MaxOverAvg, "chord-max/avg")
	})
}

// BenchmarkE11_JoinLocality measures configuration changes per pre-existing
// node while n doubles (Section 4.1).
func BenchmarkE11_JoinLocality(b *testing.B) {
	var res experiments.E11Result
	for i := 0; i < b.N; i++ {
		res, _ = experiments.E11JoinLocality(16, int64(i)+5)
	}
	b.ReportMetric(res.AvgConfigChanges, "cfg-changes/node")
}

// BenchmarkE12_CrashRecovery measures re-convergence after crashing a
// quarter of the ring (Section 3.3).
func BenchmarkE12_CrashRecovery(b *testing.B) {
	totalRounds := 0
	for i := 0; i < b.N; i++ {
		c := benchConverge(b, 32, int64(i)*13+29)
		members := c.Members(benchTopic)
		for j := 0; j < 8; j++ {
			c.Crash(members[j*len(members)/8])
		}
		rounds, ok := c.RunUntilConverged(benchTopic, 24, 20000)
		if !ok {
			b.Fatal("no recovery")
		}
		totalRounds += rounds
	}
	b.ReportMetric(float64(totalRounds)/float64(b.N), "rounds")
}

// BenchmarkE13_SupervisorVsBroker compares central-component load.
func BenchmarkE13_SupervisorVsBroker(b *testing.B) {
	var res experiments.E13Result
	for i := 0; i < b.N; i++ {
		res, _ = experiments.E13SupervisorVsBroker(32, 20, int64(i)+37)
	}
	b.ReportMetric(res.SupPerPublish, "sup-msgs/pub")
	b.ReportMetric(res.BrokerPerPublish, "broker-msgs/pub")
}

// ---- ablation benches (design choices called out in DESIGN.md) ----

// BenchmarkAblationActionIV compares partitioned-state recovery with the
// locally-minimal probe on and off.
func BenchmarkAblationActionIV(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "enabled"
		if disable {
			name = "disabled"
		}
		b.Run(name, func(b *testing.B) {
			totalRounds := 0
			for i := 0; i < b.N; i++ {
				c := cluster.NewSim(cluster.Options{
					Seed:       int64(i)*3 + 41,
					ClientOpts: core.Options{DisableActionIV: disable},
				})
				c.AddClients(16)
				c.JoinAll(benchTopic)
				if _, ok := c.RunUntilConverged(benchTopic, 16, 2000); !ok {
					b.Fatal("setup failed")
				}
				c.PartitionStates(benchTopic, 2)
				rounds, ok := c.RunUntilConverged(benchTopic, 16, 100000)
				if !ok {
					rounds = 100000 // cap: report the cap rather than failing
				}
				totalRounds += rounds
			}
			b.ReportMetric(float64(totalRounds)/float64(b.N), "rounds")
		})
	}
}

// BenchmarkAblationFlooding compares delivery latency with and without the
// PublishNew layer.
func BenchmarkAblationFlooding(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "flooding"
		if disable {
			name = "anti-entropy-only"
		}
		b.Run(name, func(b *testing.B) {
			totalRounds := 0
			for i := 0; i < b.N; i++ {
				c := cluster.NewSim(cluster.Options{
					Seed:       int64(i)*5 + 43,
					ClientOpts: core.Options{DisableFlooding: disable},
				})
				c.AddClients(64)
				c.JoinAll(benchTopic)
				if _, ok := c.RunUntilConverged(benchTopic, 64, 2000); !ok {
					b.Fatal("setup failed")
				}
				c.Publish(c.Members(benchTopic)[0], benchTopic, "x")
				rounds, ok := c.RunUntil(20000, func() bool {
					return c.AllHavePubs(benchTopic, 1)
				})
				if !ok {
					b.Fatal("never delivered")
				}
				totalRounds += rounds
			}
			b.ReportMetric(float64(totalRounds)/float64(b.N), "rounds")
		})
	}
}

// ---- micro-benchmarks ----

// BenchmarkLabelFromIndex exercises the label codec.
func BenchmarkLabelFromIndex(b *testing.B) {
	var l label.Label
	for i := 0; i < b.N; i++ {
		l = label.FromIndex(uint64(i))
	}
	_ = l
}

// BenchmarkLabelShortcuts exercises the shortcut derivation (the per-round
// local computation of every subscriber).
func BenchmarkLabelShortcuts(b *testing.B) {
	r := topology.New(1024)
	for i := 0; i < b.N; i++ {
		x := i % 1024
		pred, succ := r.RingNeighbors(x)
		label.Shortcuts(r.Label(x), r.Label(pred), r.Label(succ))
	}
}

// BenchmarkTrieInsert measures hashed Patricia insertion.
func BenchmarkTrieInsert(b *testing.B) {
	t := trie.New(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Insert(trie.NewPublication(64, 1, fmt.Sprintf("payload-%d", i)))
	}
}

// BenchmarkTrieSyncRound measures one full CheckTrie reconciliation round
// between two tries differing in one publication.
func BenchmarkTrieSyncRound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E9Figure2()
		if !res.TriesEqual {
			b.Fatal("sync failed")
		}
	}
}

// BenchmarkHotPathPublishFanout isolates the publish fan-out hot path —
// the O(log n) delivery layer of Section 4.3 — on all three substrates.
// Anti-entropy is disabled so every measured allocation belongs to
// publish → send → (encode → socket → decode →) deliver → forward, with
// no wall-clock-dependent background reconciliation in the series. This
// is the benchmark the zero-allocation acceptance gate pins: allocs/op
// here is the whole-system allocation cost of delivering one publication
// to all 16 subscribers.
func BenchmarkHotPathPublishFanout(b *testing.B) {
	for _, kind := range []RuntimeKind{RuntimeSim, RuntimeConcurrent, RuntimeNet} {
		b.Run(string(kind), func(b *testing.B) {
			benchHotPathFanout(b, SimOptions{
				Runtime: kind, Seed: 11, Interval: time.Millisecond,
				DisableAntiEntropy: true,
			})
		})
	}
	// Sharded-plane overhead series: the identical fan-out with the topic
	// owned by one of four supervisors. The three single-supervisor series
	// above are the zero-allocation acceptance gate (allocs/op pinned
	// against the committed baseline); this series tracks what the
	// crash-tolerant supervisor plane costs on the publish hot path — by
	// construction nothing, since plane screening, gossip and ownership
	// checks all run supervisor-side, off the flood path.
	b.Run("sim-4sup", func(b *testing.B) {
		benchHotPathFanout(b, SimOptions{
			Runtime: RuntimeSim, Seed: 11, Interval: time.Millisecond,
			DisableAntiEntropy: true, Protocol: Protocol{Supervisors: 4},
		})
	})
}

func benchHotPathFanout(b *testing.B, opts SimOptions) {
	s := NewSimulation(opts)
	defer s.Close()
	const n = 16
	s.AddSubscribers(n)
	s.JoinAll(benchTopic)
	if _, ok := s.RunUntilConverged(benchTopic, n, 5000); !ok {
		b.Fatalf("setup: no convergence: %s", s.Explain(benchTopic))
	}
	members := s.Members(benchTopic)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Publish(members[i%len(members)], benchTopic, fmt.Sprintf("p%d", i))
		// Drain in small batches so queues stay bounded and the
		// flooding itself (not queue growth) dominates.
		if (i+1)%32 == 0 || i == b.N-1 {
			if _, ok := s.RunUntil(200000, func() bool {
				return s.AllHavePubs(benchTopic, i+1)
			}); !ok {
				b.Fatalf("flood of publication %d never completed", i)
			}
		}
	}
}

// BenchmarkOrderedFanout prices the per-topic delivery modes against each
// other on the deterministic scheduler: the identical 16-node publish
// fan-out (anti-entropy disabled, exactly as the hot-path gate) run in
// best-effort, FIFO and causal mode. allocs/op and B/op are the
// whole-system cost of delivering one publication to all 16 subscribers
// through the ordering layer; p95-rounds is the 95th-percentile drain time
// of a 32-publication batch, which surfaces any buffering the reorder
// window introduces. The best-effort series must stay identical to the
// hot-path gate — mode besteffort bypasses the ordering layer entirely.
func BenchmarkOrderedFanout(b *testing.B) {
	for _, mode := range []ordering.Mode{ordering.BestEffort, ordering.FIFO, ordering.Causal} {
		b.Run(mode.String(), func(b *testing.B) {
			const n = 16
			delivered := make(map[sim.NodeID]int, n)
			c := cluster.NewSim(cluster.Options{
				Seed: 11,
				ClientOpts: core.Options{
					DisableAntiEntropy: true,
					DeliveryMode:       mode,
					OnDeliverTrace: func(node sim.NodeID, t sim.Topic, p proto.Publication, m ordering.Meta) {
						delivered[node]++
					},
				},
			})
			c.AddClients(n)
			c.JoinAll(benchTopic)
			if _, ok := c.RunUntilConverged(benchTopic, n, 5000); !ok {
				b.Fatalf("setup: no convergence: %s", c.Explain(benchTopic))
			}
			members := c.Members(benchTopic)
			var drainRounds []int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Publish(members[i%len(members)], benchTopic, fmt.Sprintf("p%d", i))
				if (i+1)%32 == 0 || i == b.N-1 {
					want := i + 1
					rounds, ok := c.RunUntil(200000, func() bool {
						for _, id := range members {
							if delivered[id] < want {
								return false
							}
						}
						return true
					})
					if !ok {
						b.Fatalf("delivery of publication %d never completed", i)
					}
					drainRounds = append(drainRounds, rounds)
				}
			}
			b.StopTimer()
			sum := metrics.Summarize(metrics.Ints(drainRounds))
			b.ReportMetric(sum.P95, "p95-rounds")
		})
	}
}

func benchConverge(b *testing.B, n int, seed int64) *cluster.Live {
	b.Helper()
	c := cluster.NewSim(cluster.Options{Seed: seed})
	c.AddClients(n)
	c.JoinAll(benchTopic)
	if _, ok := c.RunUntilConverged(benchTopic, n, 5000); !ok {
		b.Fatalf("bench setup: n=%d did not converge: %s", n, c.Explain(benchTopic))
	}
	return c
}
