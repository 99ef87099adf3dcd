package cluster

import (
	"testing"

	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
)

// TestStaleSubscribeAfterDeparture is the deterministic regression for a
// permanent-divergence bug the chaos churn scenarios surfaced: channels
// are non-FIFO, so a subscriber's Subscribe (the initial join or an
// action (i) retry) can be delivered to the supervisor AFTER its
// unsubscribe handshake completed. The supervisor then re-records the
// departed node; the failure detector never suspects it (it is alive),
// the departed instance never probes or re-subscribes, and before the
// fix it even adopted the label from the round-robin refresh while
// staying departed — leaving the database and the live membership in
// permanent disagreement. The fix: a departed instance that receives a
// non-⊥ configuration answers with Unsubscribe until the database
// forgets it again.
func TestStaleSubscribeAfterDeparture(t *testing.T) {
	c := NewSim(Options{Seed: 99})
	const n = 5
	c.AddClients(n)
	c.JoinAll(topicA)
	if _, ok := c.RunUntilConverged(topicA, n, 5000); !ok {
		t.Fatalf("setup: %s", c.Explain(topicA))
	}

	v := c.Members(topicA)[2]
	c.Leave(v, topicA)
	if _, ok := c.RunUntilConverged(topicA, n-1, 5000); !ok {
		t.Fatalf("leave never converged: %s", c.Explain(topicA))
	}
	if !c.Clients[v].Departed(topicA) {
		t.Fatal("leaver never departed")
	}

	// The stale message: v's Subscribe arrives after the departure grant.
	// Step one lookahead window (MinDelay) at a time to observe the stale
	// entry the moment it lands: the repair needs a round trip of at least
	// two channel delays, so it cannot hide inside the same window.
	c.Tr.Send(sim.Message{To: SupervisorID, From: v, Topic: topicA, Body: proto.Subscribe{V: v}})
	eng := engine(c)
	recorded := false
	for i := 0; i < 1000 && !recorded; i++ {
		eng.RunUntil(eng.Now() + 0.05)
		recorded = !c.Sup.LabelOf(topicA, v).IsBottom()
	}
	if !recorded {
		t.Fatal("stale Subscribe was not recorded — the scenario no longer reproduces the race")
	}

	// Self-stabilization: the departed node must talk the supervisor back
	// out of the stale entry, restoring db ↔ membership agreement.
	if r, ok := c.RunUntilConverged(topicA, n-1, 5000); !ok {
		t.Fatalf("stale entry never repaired: %s", c.Explain(topicA))
	} else {
		t.Logf("repaired in %d rounds", r)
	}
	if !c.Sup.LabelOf(topicA, v).IsBottom() {
		t.Fatal("departed node still recorded after convergence")
	}
}
