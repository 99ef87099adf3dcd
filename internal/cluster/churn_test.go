package cluster

import (
	"fmt"
	"testing"
	"testing/quick"

	"sspubsub/internal/sim"
)

// Randomized churn property: any interleaving of joins, leaves, crashes,
// publishes and corruption injections, followed by a quiet period, ends in
// the legitimate state with consistent publication sets. This is the
// fuzz-style version of Theorems 8/13/17 over the op space.
func TestPropertyRandomChurnConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("churn property is slow")
	}
	f := func(seed int64, script []uint8) bool {
		if len(script) > 24 {
			script = script[:24]
		}
		c := NewSim(Options{Seed: seed})
		c.AddClients(6)
		c.JoinAll(topicA)
		if _, ok := c.RunUntilConverged(topicA, 6, 2000); !ok {
			t.Logf("seed %d: setup failed: %s", seed, c.Explain(topicA))
			return false
		}
		live := 6
		pubs := 0
		// leaving tracks members whose unsubscribe handshake has started:
		// they stay in Members until the supervisor grants departure, so a
		// later leave/crash picking the same node must not decrement the
		// expected count twice (the accounting bug behind the historical
		// TestZZRepro failure).
		leaving := map[sim.NodeID]bool{}
		for i, op := range script {
			members := c.Members(topicA)
			switch op % 6 {
			case 0: // join
				id := c.AddClient()
				c.Join(id, topicA)
				live++
			case 1: // leave
				if live > 2 {
					v := members[int(op/6)%len(members)]
					c.Leave(v, topicA)
					if !leaving[v] {
						leaving[v] = true
						live--
					}
				}
			case 2: // crash
				if live > 2 {
					v := members[int(op/6)%len(members)]
					c.Crash(v)
					if !leaving[v] {
						leaving[v] = true // gone either way; count it once
						live--
					}
				}
			case 3: // publish
				c.Publish(members[int(op/6)%len(members)], topicA, fmt.Sprintf("p-%d-%d", seed, i))
				pubs++
			case 4: // corrupt a node state mid-flight
				c.CorruptSubscriberStates(topicA, c.Rand())
			case 5: // garbage into channels
				c.SendGarbageMessages(topicA, 5, c.Rand())
			}
			c.RunRounds(int(op%3) + 1)
		}
		rounds, ok := c.RunUntilConverged(topicA, live, 30000)
		if !ok {
			t.Logf("seed %d: no convergence after churn (%d rounds): %s\n%s",
				seed, rounds, c.Explain(topicA), c.DumpStates(topicA))
			return false
		}
		// Publications survive on all remaining members: all tries equal.
		if _, ok := c.RunUntil(30000, func() bool { return c.TriesEqual(topicA) }); !ok {
			t.Logf("seed %d: tries never reconciled", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// After arbitrary corruption, the potential argument of Theorem 17 holds:
// the union of all publication sets never shrinks (no publication is ever
// lost once any live member stores it).
func TestPublicationsNeverLost(t *testing.T) {
	c := NewSim(Options{Seed: 404})
	c.AddClients(10)
	c.JoinAll(topicA)
	if _, ok := c.RunUntilConverged(topicA, 10, 2000); !ok {
		t.Fatal("setup")
	}
	members := c.Members(topicA)
	for i := 0; i < 12; i++ {
		c.Publish(members[i%len(members)], topicA, fmt.Sprintf("pub-%d", i))
	}
	c.RunRounds(10)
	union := func() map[string]bool {
		set := map[string]bool{}
		for _, id := range c.Members(topicA) {
			for _, p := range c.Clients[id].Publications(topicA) {
				set[p.Payload] = true
			}
		}
		return set
	}
	if len(union()) != 12 {
		t.Fatalf("setup: union has %d publications", len(union()))
	}
	// Corrupt the topology (not the tries — the protocol never deletes
	// publications) and churn; the union must stay intact throughout.
	c.CorruptSubscriberStates(topicA, c.Rand())
	c.CorruptSupervisorDB(topicA, c.Rand())
	for r := 0; r < 50; r++ {
		c.RunRounds(10)
		if got := len(union()); got != 12 {
			t.Fatalf("round %d: union shrank to %d publications", r*10, got)
		}
	}
	if _, ok := c.RunUntilConverged(topicA, 10, 20000); !ok {
		t.Fatalf("no re-convergence: %s", c.Explain(topicA))
	}
	if _, ok := c.RunUntil(20000, func() bool { return c.TriesEqual(topicA) }); !ok {
		t.Fatal("tries never equalized after corruption")
	}
	for _, id := range c.Members(topicA) {
		if got := len(c.Clients[id].Publications(topicA)); got != 12 {
			t.Errorf("node %d holds %d/12 publications", id, got)
		}
	}
}

// A component that loses its supervisor edge cannot exist in this model
// (the supervisor is read-only hard-coded state); but a component whose
// every member is unrecorded must still merge via actions (iii)/(iv).
// Here: half the ring is wiped from the database while keeping its links.
func TestHalfRingWipedFromDatabase(t *testing.T) {
	c := NewSim(Options{Seed: 808})
	c.AddClients(12)
	c.JoinAll(topicA)
	if _, ok := c.RunUntilConverged(topicA, 12, 2000); !ok {
		t.Fatal("setup")
	}
	snap := c.Sup.Snapshot(topicA)
	i := 0
	for l := range snap {
		if i%2 == 0 {
			c.Sup.DeleteLabel(topicA, l)
		}
		i++
	}
	rounds, ok := c.RunUntilConverged(topicA, 12, 20000)
	if !ok {
		t.Fatalf("no recovery from half-wiped database: %s", c.Explain(topicA))
	}
	t.Logf("recovered in %d rounds", rounds)
}

// Simultaneous mass leave: half the members unsubscribe at once.
func TestMassLeave(t *testing.T) {
	c := NewSim(Options{Seed: 909})
	c.AddClients(16)
	c.JoinAll(topicA)
	if _, ok := c.RunUntilConverged(topicA, 16, 2000); !ok {
		t.Fatal("setup")
	}
	members := c.Members(topicA)
	for i, id := range members {
		if i%2 == 0 {
			c.Leave(id, topicA)
		}
	}
	rounds, ok := c.RunUntilConverged(topicA, 8, 20000)
	if !ok {
		t.Fatalf("no convergence after mass leave: %s\n%s", c.Explain(topicA), c.DumpStates(topicA))
	}
	t.Logf("converged to n=8 in %d rounds", rounds)
	for i, id := range members {
		if i%2 == 0 && !c.Clients[id].Departed(topicA) {
			t.Errorf("leaver %d never departed", id)
		}
	}
}

// Rejoin after leave: a departed client can subscribe again and is treated
// as a fresh member.
func TestRejoinAfterLeave(t *testing.T) {
	c := NewSim(Options{Seed: 111})
	c.AddClients(6)
	c.JoinAll(topicA)
	if _, ok := c.RunUntilConverged(topicA, 6, 2000); !ok {
		t.Fatal("setup")
	}
	leaver := c.Members(topicA)[2]
	c.Leave(leaver, topicA)
	if _, ok := c.RunUntilConverged(topicA, 5, 5000); !ok {
		t.Fatalf("leave did not converge: %s", c.Explain(topicA))
	}
	// Rejoin: the departed instance must restart cleanly.
	c.Join(leaver, topicA)
	if _, ok := c.RunUntilConverged(topicA, 6, 5000); !ok {
		t.Fatalf("rejoin did not converge: %s", c.Explain(topicA))
	}
	if !c.Clients[leaver].Joined(topicA) {
		t.Error("rejoined client not a member")
	}
}

// The supervisor's failure detector must never evict live nodes even under
// heavy concurrent crash load elsewhere.
func TestDetectorNeverEvictsLive(t *testing.T) {
	c := NewSim(Options{Seed: 212})
	c.AddClients(20)
	c.JoinAll(topicA)
	if _, ok := c.RunUntilConverged(topicA, 20, 2000); !ok {
		t.Fatal("setup")
	}
	members := c.Members(topicA)
	for i := 0; i < 5; i++ {
		c.Crash(members[i*4])
	}
	if _, ok := c.RunUntilConverged(topicA, 15, 20000); !ok {
		t.Fatalf("no recovery: %s", c.Explain(topicA))
	}
	// All 15 survivors must still be recorded.
	for _, id := range c.Members(topicA) {
		if c.Sup.LabelOf(topicA, id).IsBottom() {
			t.Errorf("live node %d missing from database", id)
		}
	}
}
