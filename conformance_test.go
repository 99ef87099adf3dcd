package sspubsub

// Cross-substrate conformance: the BuildSR convergence scenario must pass
// identically on the deterministic discrete-event scheduler and on the
// concurrent goroutine runtime. "Identically" is meaningful because the
// legitimate state is unique (Lemma 2): for a given member count the
// converged overlay has exactly one label assignment, so both substrates
// must end in the same topology even though the concurrent run's message
// interleaving is arbitrary. Run with -race to validate the runtime's
// synchronization (CI does).

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"
)

// conformanceResult captures everything the scenario asserts on.
type conformanceResult struct {
	labels      []string // sorted member labels after convergence
	afterCrash  []string // sorted member labels after crash recovery
	payloads    []string // sorted payloads known to every member
	memberCount int
}

// runConvergenceScenario is the BuildSR scenario from the system tests:
// fresh join burst → convergence; publish burst → full dissemination;
// crash → re-convergence. The rounds budgets are virtual time on
// RuntimeSim and wall-clock intervals on RuntimeConcurrent.
func runConvergenceScenario(t *testing.T, kind RuntimeKind, n int, seed int64) conformanceResult {
	t.Helper()
	s := NewSimulation(SimOptions{Runtime: kind, Seed: seed, Interval: 2 * time.Millisecond})
	defer s.Close()

	ids := s.AddSubscribers(n)
	s.JoinAll(1)
	if _, ok := s.RunUntilConverged(1, n, 5000); !ok {
		t.Fatalf("[%s] no convergence with %d members: %s", kind, n, s.Explain(1))
	}

	var res conformanceResult
	for _, id := range s.Members(1) {
		res.labels = append(res.labels, s.Label(id, 1))
	}
	sort.Strings(res.labels)

	members := s.Members(1)
	const pubs = 5
	for p := 0; p < pubs; p++ {
		s.Publish(members[p%len(members)], 1, fmt.Sprintf("pub-%d", p))
	}
	if _, ok := s.RunUntil(5000, func() bool { return s.AllHavePubs(1, pubs) && s.TriesEqual(1) }); !ok {
		t.Fatalf("[%s] publications never fully disseminated", kind)
	}
	res.payloads = append(res.payloads, s.Publications(members[0], 1)...)
	sort.Strings(res.payloads)

	s.Crash(ids[0])
	if _, ok := s.RunUntilConverged(1, n-1, 10000); !ok {
		t.Fatalf("[%s] no recovery after crash: %s", kind, s.Explain(1))
	}
	for _, id := range s.Members(1) {
		res.afterCrash = append(res.afterCrash, s.Label(id, 1))
	}
	sort.Strings(res.afterCrash)
	res.memberCount = len(res.afterCrash)
	return res
}

// TestCrossSubstrateConformance runs the scenario on all three substrates
// — deterministic scheduler, concurrent goroutines, and the networked
// loopback transport (every message through the wire codec and a real TCP
// socket) — and requires identical outcomes.
func TestCrossSubstrateConformance(t *testing.T) {
	const n = 10
	simRes := runConvergenceScenario(t, RuntimeSim, n, 5)
	for _, kind := range []RuntimeKind{RuntimeConcurrent, RuntimeNet} {
		res := runConvergenceScenario(t, kind, n, 5)
		if got, want := fmt.Sprint(res.labels), fmt.Sprint(simRes.labels); got != want {
			t.Errorf("converged labels differ: %s %s, sim %s", kind, got, want)
		}
		if got, want := fmt.Sprint(res.afterCrash), fmt.Sprint(simRes.afterCrash); got != want {
			t.Errorf("post-crash labels differ: %s %s, sim %s", kind, got, want)
		}
		if got, want := fmt.Sprint(res.payloads), fmt.Sprint(simRes.payloads); got != want {
			t.Errorf("publication sets differ: %s %s, sim %s", kind, got, want)
		}
		if res.memberCount != n-1 {
			t.Errorf("[%s] member count %d, want %d", kind, res.memberCount, n-1)
		}
	}
	if simRes.memberCount != n-1 {
		t.Errorf("[sim] member count %d, want %d", simRes.memberCount, n-1)
	}
}

// TestOrderedDeliveryConformance is the FIFO/causal conformance vector run
// identically on all three substrates: with an ordered delivery mode one
// publisher's publications must reach every subscriber in publish order,
// each exactly once. The publishes are spaced a couple of rounds apart so
// the publisher's own sequence assignment matches the payload index (the
// publish command itself is a delayed self-send); everything after that —
// flooding, anti-entropy, transport interleaving — is what the ordering
// discipline must absorb.
func TestOrderedDeliveryConformance(t *testing.T) {
	const n = 8
	const pubs = 6
	want := make([]string, pubs)
	for p := 0; p < pubs; p++ {
		want[p] = fmt.Sprintf("ordered-%d", p)
	}
	for _, mode := range []DeliveryMode{ModeFIFO, ModeCausal} {
		for _, kind := range []RuntimeKind{RuntimeSim, RuntimeConcurrent, RuntimeNet} {
			mode, kind := mode, kind
			t.Run(fmt.Sprintf("%s/%s", mode, kind), func(t *testing.T) {
				var mu sync.Mutex
				got := make(map[NodeID][]string)
				s := NewSimulation(SimOptions{
					Runtime: kind, Seed: 7, Interval: time.Millisecond,
					Protocol: Protocol{DeliveryMode: mode},
					OnDeliver: func(node NodeID, tp Topic, payload string) {
						mu.Lock()
						got[node] = append(got[node], payload)
						mu.Unlock()
					},
				})
				defer s.Close()
				ids := s.AddSubscribers(n)
				s.JoinAll(1)
				if _, ok := s.RunUntilConverged(1, n, 5000); !ok {
					t.Fatalf("no convergence: %s", s.Explain(1))
				}
				for _, payload := range want {
					s.Publish(ids[0], 1, payload)
					s.RunRounds(2)
				}
				if _, ok := s.RunUntil(5000, func() bool { return s.AllHavePubs(1, pubs) }); !ok {
					t.Fatal("publications never fully disseminated")
				}
				mu.Lock()
				defer mu.Unlock()
				if len(got) != n {
					t.Fatalf("%d subscribers observed deliveries, want %d", len(got), n)
				}
				for id, seq := range got {
					if fmt.Sprint(seq) != fmt.Sprint(want) {
						t.Errorf("node %d delivered %v, want %v", id, seq, want)
					}
				}
			})
		}
	}
}

// TestConcurrentRuntimeUnderChurn crashes and restarts members of the
// concurrent substrate while the join burst is still converging — each
// comes back with the stale state it crashed with — then verifies the
// system still reaches the unique legitimate state once churn stops.
func TestConcurrentRuntimeUnderChurn(t *testing.T) {
	s := NewSimulation(SimOptions{Runtime: RuntimeConcurrent, Seed: 9, Interval: time.Millisecond})
	defer s.Close()
	const n = 8
	ids := s.AddSubscribers(n)
	s.JoinAll(1)
	// A node crashed before it handles its own join command loses it with
	// the rest of its mailbox and restarts as a non-member; start the
	// churn once every node has taken the command, long before the ring
	// converges.
	if _, ok := s.RunUntil(100, func() bool { return len(s.Members(1)) == n }); !ok {
		t.Fatal("join commands were not handled")
	}
	for i := 0; i < 10; i++ { // 100 rounds of crashes and restarts interleaved with joins
		victim := ids[(3*i)%n]
		s.Crash(victim)
		s.RunRounds(4)
		if !s.Restart(victim) {
			t.Fatalf("Restart(%d) = false", victim)
		}
		s.RunRounds(6)
	}
	if _, ok := s.RunUntilConverged(1, n, 20000); !ok {
		t.Fatalf("no convergence after churn: %s", s.Explain(1))
	}
	want := make([]string, 0, n)
	for _, id := range s.Members(1) {
		want = append(want, s.Label(id, 1))
	}
	if len(want) != n {
		t.Fatalf("%d members after churn, want %d", len(want), n)
	}
}

// TestSimulationFacadeGuards pins the runtime kind each constructor
// reports.
func TestSimulationFacadeGuards(t *testing.T) {
	s := NewSimulation(SimOptions{Runtime: RuntimeConcurrent, Interval: time.Millisecond})
	defer s.Close()
	if s.Runtime() != RuntimeConcurrent {
		t.Errorf("Runtime() = %s", s.Runtime())
	}

	d := NewSimulation(SimOptions{})
	if d.Runtime() != RuntimeSim {
		t.Errorf("default Runtime() = %s", d.Runtime())
	}
	d.Close() // no-op on sim

	nt := NewSimulation(SimOptions{Runtime: RuntimeNet, Interval: time.Millisecond})
	defer nt.Close()
	if nt.Runtime() != RuntimeNet {
		t.Errorf("net Runtime() = %s", nt.Runtime())
	}
}

// TestInjectorsOnLiveSubstrates runs each research control that corrupts
// state on the concurrent runtime and on the net transport: the injector
// must run (the system drained under the quiesce barrier), and the topic
// must converge again from what it left behind. The net transport reaches
// node state the same way the concurrent runtime does — its nodes run on
// an embedded one — so corruption needs no socket round trip.
func TestInjectorsOnLiveSubstrates(t *testing.T) {
	const n = 8
	injectors := []struct {
		name string
		run  func(s *Simulation) bool
		// breaks says the injector leaves an illegitimate state behind at
		// once; garbage messages only do so once they are delivered.
		breaks bool
	}{
		{"CorruptSubscriberStates", func(s *Simulation) bool { return s.CorruptSubscriberStates(1) }, true},
		{"CorruptSupervisorDB", func(s *Simulation) bool { return s.CorruptSupervisorDB(1) }, true},
		{"InjectGarbageMessages", func(s *Simulation) bool { return s.InjectGarbageMessages(1, 5*n) }, false},
		{"PartitionStates", func(s *Simulation) bool { return s.PartitionStates(1, 2) }, true},
	}
	for _, kind := range []RuntimeKind{RuntimeConcurrent, RuntimeNet} {
		for _, inj := range injectors {
			t.Run(string(kind)+"/"+inj.name, func(t *testing.T) {
				s := NewSimulation(SimOptions{Runtime: kind, Seed: 7, Interval: time.Millisecond})
				defer s.Close()
				if s.Cluster() == nil {
					t.Fatal("Cluster() = nil")
				}
				s.AddSubscribers(n)
				s.JoinAll(1)
				if _, ok := s.RunUntilConverged(1, n, 8000); !ok {
					t.Fatalf("no convergence before the injection: %s", s.Explain(1))
				}
				if !inj.run(s) {
					t.Fatal("the injector did not run: the system never drained")
				}
				if inj.breaks && s.Converged(1) {
					t.Fatal("the topic is still legitimate right after the injection")
				}
				if _, ok := s.RunUntilConverged(1, n, 8000); !ok {
					t.Fatalf("no convergence after %s: %s", inj.name, s.Explain(1))
				}
			})
		}
	}
}
