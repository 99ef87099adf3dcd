package cluster

import (
	"testing"

	"sspubsub/internal/core"
	"sspubsub/internal/sim"
)

const topicA sim.Topic = 1

// Fresh join burst: n clients subscribe simultaneously; the system must
// converge to the legitimate SR(n) (Theorem 8, benign initial state).
func TestConvergenceFreshJoin(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8, 13, 16, 32} {
		c := NewSim(Options{Seed: int64(n) * 11})
		c.AddClients(n)
		c.JoinAll(topicA)
		rounds, ok := c.RunUntilConverged(topicA, n, 200)
		if !ok {
			t.Fatalf("n=%d: not converged after %d rounds: %s\n%s", n, rounds, c.Explain(topicA), c.DumpStates(topicA))
		}
		t.Logf("n=%d converged in %d rounds", n, rounds)
	}
}

// converge is a helper: join n fresh clients and reach legitimacy.
func converge(t *testing.T, n int, seed int64, opts Options) *Live {
	t.Helper()
	opts.Seed = seed
	c := NewSim(opts)
	c.AddClients(n)
	c.JoinAll(topicA)
	if _, ok := c.RunUntilConverged(topicA, n, 300); !ok {
		t.Fatalf("setup: n=%d did not converge: %s", n, c.Explain(topicA))
	}
	return c
}

// Theorem 8 with corrupted subscriber states: overwrite every node's
// explicit state with garbage; the system must re-converge.
func TestConvergenceCorruptedStates(t *testing.T) {
	for _, n := range []int{4, 8, 16, 24} {
		for seed := int64(0); seed < 3; seed++ {
			c := converge(t, n, 100+seed+int64(n), Options{})
			c.CorruptSubscriberStates(topicA, c.Rand())
			rounds, ok := c.RunUntilConverged(topicA, n, 3000)
			if !ok {
				t.Fatalf("n=%d seed=%d: no re-convergence: %s\n%s", n, seed, c.Explain(topicA), c.DumpStates(topicA))
			}
			t.Logf("n=%d seed=%d re-converged in %d rounds", n, seed, rounds)
		}
	}
}

// Theorem 8 + Lemma 9 with a corrupted supervisor database.
func TestConvergenceCorruptedDatabase(t *testing.T) {
	for _, n := range []int{5, 12, 16} {
		c := converge(t, n, 200+int64(n), Options{})
		c.CorruptSupervisorDB(topicA, c.Rand())
		if !c.Sup.Corrupted(topicA) {
			t.Fatal("injection did not corrupt the database")
		}
		rounds, ok := c.RunUntilConverged(topicA, n, 3000)
		if !ok {
			t.Fatalf("n=%d: no re-convergence: %s", n, c.Explain(topicA))
		}
		t.Logf("n=%d re-converged in %d rounds", n, rounds)
	}
}

// Theorem 8 with corrupted channel contents: garbage messages must be
// absorbed without destroying legitimacy permanently.
func TestConvergenceGarbageMessages(t *testing.T) {
	for _, n := range []int{6, 16} {
		c := converge(t, n, 300+int64(n), Options{})
		c.SendGarbageMessages(topicA, 5*n, c.Rand())
		c.RunRounds(1) // the garbage lands over this round; polled at once, the predicate would not see it
		rounds, ok := c.RunUntilConverged(topicA, n, 3000)
		if !ok {
			t.Fatalf("n=%d: no re-convergence: %s", n, c.Explain(topicA))
		}
		t.Logf("n=%d absorbed garbage, re-converged in %d rounds", n, rounds+1)
	}
}

// Theorem 8 from partitioned components with unrecorded, long labels (the
// hard case of Section 3.2.1 that needs actions (iii)/(iv) plus the
// probabilistic probe).
func TestConvergencePartitionedComponents(t *testing.T) {
	for _, tc := range []struct{ n, parts int }{{8, 2}, {12, 3}, {16, 4}} {
		c := converge(t, tc.n, 400+int64(tc.n), Options{})
		c.PartitionStates(topicA, tc.parts)
		rounds, ok := c.RunUntilConverged(topicA, tc.n, 5000)
		if !ok {
			t.Fatalf("n=%d parts=%d: no re-convergence: %s\n%s",
				tc.n, tc.parts, c.Explain(topicA), c.DumpStates(topicA))
		}
		t.Logf("n=%d parts=%d re-converged in %d rounds", tc.n, tc.parts, rounds)
	}
}

// Theorem 13 (closure): once legitimate, the explicit state never changes
// again while no one joins or leaves.
func TestClosure(t *testing.T) {
	c := converge(t, 16, 77, Options{})
	versions := map[sim.NodeID]uint64{}
	for id, cl := range c.Clients {
		st, _ := cl.StateOf(topicA)
		versions[id] = st.Version
	}
	c.RunRounds(300)
	if !c.ConvergedWith(topicA, 16) {
		t.Fatalf("legitimacy lost: %s", c.Explain(topicA))
	}
	for id, cl := range c.Clients {
		st, _ := cl.StateOf(topicA)
		if st.Version != versions[id] {
			t.Errorf("node %d mutated its state after convergence (version %d → %d)",
				id, versions[id], st.Version)
		}
	}
}

// Section 4.1: unsubscribe removes the node, the highest-label node takes
// over its label, and the ring re-converges (Lemma 6).
func TestUnsubscribe(t *testing.T) {
	const n = 12
	c := converge(t, n, 88, Options{})
	// Pick an arbitrary member that does not hold the last label.
	var leaver sim.NodeID
	for _, id := range c.Members(topicA) {
		if c.Sup.LabelOf(topicA, id).Index() == 3 {
			leaver = id
		}
	}
	if leaver == sim.None {
		t.Fatal("no member with label index 3")
	}
	c.Leave(leaver, topicA)
	rounds, ok := c.RunUntilConverged(topicA, n-1, 2000)
	if !ok {
		t.Fatalf("no convergence after unsubscribe: %s\n%s", c.Explain(topicA), c.DumpStates(topicA))
	}
	if !c.Clients[leaver].Departed(topicA) {
		t.Error("leaver never got departure permission")
	}
	// The leaver must be fully disconnected: no member may still point at it.
	for _, id := range c.Members(topicA) {
		st, _ := c.Clients[id].StateOf(topicA)
		for _, tu := range []sim.NodeID{st.Left.Ref, st.Right.Ref, st.Ring.Ref} {
			if tu == leaver {
				t.Errorf("node %d still points at departed node %d", id, leaver)
			}
		}
		for _, ref := range st.Shortcuts {
			if ref == leaver {
				t.Errorf("node %d keeps shortcut to departed node %d", id, leaver)
			}
		}
	}
	t.Logf("re-converged to n=%d in %d rounds", n-1, rounds)
}

// Sequential churn: nodes join and leave one after another; legitimacy is
// restored after each operation.
func TestChurnSequence(t *testing.T) {
	c := converge(t, 8, 99, Options{})
	n := 8
	for i := 0; i < 4; i++ {
		id := c.AddClient()
		c.Join(id, topicA)
		n++
		if rounds, ok := c.RunUntilConverged(topicA, n, 2000); !ok {
			t.Fatalf("join %d: no convergence: %s", i, c.Explain(topicA))
		} else {
			t.Logf("join → n=%d in %d rounds", n, rounds)
		}
	}
	for i := 0; i < 4; i++ {
		members := c.Members(topicA)
		leaver := members[i%len(members)]
		c.Leave(leaver, topicA)
		n--
		if rounds, ok := c.RunUntilConverged(topicA, n, 2000); !ok {
			t.Fatalf("leave %d: no convergence: %s", i, c.Explain(topicA))
		} else {
			t.Logf("leave → n=%d in %d rounds", n, rounds)
		}
	}
}

// Section 3.3: unannounced crashes are culled by the supervisor's failure
// detector and the ring re-converges around the survivors.
func TestCrashRecovery(t *testing.T) {
	const n = 16
	c := converge(t, n, 123, Options{})
	members := c.Members(topicA)
	crashed := 0
	for i, id := range members {
		if i%4 == 0 { // crash a quarter of the ring
			c.Crash(id)
			crashed++
		}
	}
	rounds, ok := c.RunUntilConverged(topicA, n-crashed, 5000)
	if !ok {
		t.Fatalf("no recovery after %d crashes: %s\n%s", crashed, c.Explain(topicA), c.DumpStates(topicA))
	}
	t.Logf("recovered from %d crashes in %d rounds", crashed, rounds)
}

// Crash of the label-0 node specifically (the round-robin anchor).
func TestCrashMinimumNode(t *testing.T) {
	const n = 8
	c := converge(t, n, 321, Options{})
	var minNode sim.NodeID
	for _, id := range c.Members(topicA) {
		if c.Sup.LabelOf(topicA, id).Index() == 0 {
			minNode = id
		}
	}
	c.Crash(minNode)
	rounds, ok := c.RunUntilConverged(topicA, n-1, 5000)
	if !ok {
		t.Fatalf("no recovery: %s", c.Explain(topicA))
	}
	t.Logf("recovered in %d rounds", rounds)
}

// Multi-topic isolation: protocols of different topics share nodes but
// converge independently.
func TestMultiTopic(t *testing.T) {
	const n = 10
	c := NewSim(Options{Seed: 55})
	ids := c.AddClients(n)
	c.JoinAll(topicA)
	for i, id := range ids {
		if i%2 == 0 {
			c.Join(id, 2)
		}
	}
	if _, ok := c.RunUntilConverged(topicA, n, 500); !ok {
		t.Fatalf("topic 1: %s", c.Explain(topicA))
	}
	if _, ok := c.RunUntilConverged(2, n/2, 500); !ok {
		t.Fatalf("topic 2: %s", c.Explain(2))
	}
	if c.Sup.N(topicA) != n || c.Sup.N(2) != n/2 {
		t.Errorf("db sizes: %d, %d", c.Sup.N(topicA), c.Sup.N(2))
	}
}

// Publications reach everyone: flooding delivers fast, and anti-entropy
// serves a late joiner the full history (Theorem 17's practical payoff).
func TestPublicationDissemination(t *testing.T) {
	const n = 12
	c := converge(t, n, 66, Options{})
	members := c.Members(topicA)
	for i := 0; i < 5; i++ {
		c.Publish(members[i%len(members)], topicA, "msg-"+string(rune('a'+i)))
	}
	c.RunRounds(5)
	if !c.AllHavePubs(topicA, 5) || !c.TriesEqual(topicA) {
		t.Fatal("flooding did not deliver to all members")
	}
	// Late joiner: must receive the full history via anti-entropy.
	late := c.AddClient()
	c.Join(late, topicA)
	if _, ok := c.RunUntilConverged(topicA, n+1, 1000); !ok {
		t.Fatalf("late joiner never integrated: %s", c.Explain(topicA))
	}
	if _, ok := c.RunUntil(500, func() bool {
		return len(c.Clients[late].Publications(topicA)) == 5
	}); !ok {
		t.Fatalf("late joiner got %d/5 publications", len(c.Clients[late].Publications(topicA)))
	}
}

// Theorem 17 (publication convergence) with flooding disabled: anti-entropy
// alone must spread pre-seeded publications to every member.
func TestAntiEntropyOnly(t *testing.T) {
	const n = 10
	c := converge(t, n, 44, Options{ClientOpts: core.Options{DisableFlooding: true}})
	members := c.Members(topicA)
	for i := 0; i < 8; i++ {
		c.Publish(members[i%len(members)], topicA, "p"+string(rune('0'+i)))
	}
	rounds, ok := c.RunUntil(2000, func() bool {
		return c.AllHavePubs(topicA, 8) && c.TriesEqual(topicA)
	})
	if !ok {
		t.Fatal("anti-entropy alone did not converge publications")
	}
	t.Logf("anti-entropy converged 8 pubs × %d nodes in %d rounds", n, rounds)
}

// Theorem 23 (publication closure): once all tries are equal, CheckTrie
// traffic generates no further messages.
func TestPublicationClosure(t *testing.T) {
	const n = 8
	c := converge(t, n, 33, Options{})
	members := c.Members(topicA)
	c.Publish(members[0], topicA, "only")
	c.RunRounds(10)
	if !c.TriesEqual(topicA) {
		t.Fatal("setup: tries not equal")
	}
	c.ResetCounters()
	c.RunRounds(50)
	// CheckTrie probes continue (they are the periodic action) but no
	// CheckAndPublish or PublishBatch may ever be triggered.
	if got := c.CountByType("proto.CheckAndPublish"); got != 0 {
		t.Errorf("%d CheckAndPublish messages in a stable system", got)
	}
	if got := c.CountByType("proto.PublishBatch"); got != 0 {
		t.Errorf("%d PublishBatch messages in a stable system", got)
	}
}
