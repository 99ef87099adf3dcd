package cluster

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"sspubsub/internal/psim"
	"sspubsub/internal/sim"
)

// engine returns the deterministic engine under a NewSim harness, for the
// accessors that are not part of the cross-substrate Driver surface.
func engine(c *Live) *psim.Engine { return c.Tr.(*psim.Engine) }

// fingerprint reduces an entire run — virtual time, message accounting by
// type and by node, and every member's explicit state — to one string.
// Bit-identical runs produce identical fingerprints.
func fingerprint(c *Live, t sim.Topic) string {
	var sb strings.Builder
	eng := engine(c)
	fmt.Fprintf(&sb, "now=%.6f delivered=%d dropped=%d inflight=%d\n",
		c.Now(), c.Delivered(), eng.Dropped(), eng.InFlight())
	for _, name := range eng.TypeNames() {
		fmt.Fprintf(&sb, "type %s=%d\n", name, c.CountByType(name))
	}
	ids := eng.NodeIDs()
	for _, id := range ids {
		fmt.Fprintf(&sb, "node %d sent=%d recv=%d\n", id, c.SentBy(id), eng.ReceivedBy(id))
	}
	members := c.Members(t)
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	for _, id := range members {
		st, _ := c.Clients[id].StateOf(t)
		fmt.Fprintf(&sb, "state %d: label=%s left=%s right=%s ring=%s sc=%d pubs=%d\n",
			id, st.Label, st.Left, st.Right, st.Ring, len(st.Shortcuts),
			len(c.Clients[id].Publications(t)))
	}
	fmt.Fprintf(&sb, "db=%v\n", c.Sup.Snapshot(t))
	return sb.String()
}

// runScripted drives one full scenario: fresh join, convergence, state and
// database corruption, garbage traffic, recovery, churn (leave + crash),
// publications. Every random decision flows from the scheduler's seed, so
// the run is a pure function of seed.
func runScripted(seed int64, n int) (string, int, bool) {
	const topic sim.Topic = 1
	c := NewSim(Options{Seed: seed})
	ids := c.AddClients(n)
	c.JoinAll(topic)
	r1, ok := c.RunUntilConverged(topic, n, 5000)
	if !ok {
		return "", 0, false
	}
	c.CorruptSubscriberStates(topic, c.Rand())
	c.CorruptSupervisorDB(topic, c.Rand())
	c.SendGarbageMessages(topic, 3*n, c.Rand())
	r2, ok := c.RunUntilConverged(topic, n, 20000)
	if !ok {
		return "", 0, false
	}
	c.Leave(ids[1], topic)
	c.Crash(ids[2])
	r3, ok := c.RunUntilConverged(topic, n-2, 20000)
	if !ok {
		return "", 0, false
	}
	members := c.Members(topic)
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	for p := 0; p < 5; p++ {
		c.Publish(members[p%len(members)], topic, fmt.Sprintf("pub-%d", p))
	}
	rp, ok := c.RunUntil(20000, func() bool {
		return c.AllHavePubs(topic, 5) && c.TriesEqual(topic)
	})
	if !ok {
		return "", 0, false
	}
	return fingerprint(c, topic), r1 + r2 + r3 + rp, true
}

// TestSchedulerDeterminismProperty is the replay guarantee the concurrent
// runtime is validated against: two scheduler runs with equal seeds and
// equal call sequences are bit-identical — same convergence rounds, same
// message counts per type and per node, same final protocol states. The
// property is checked across many seeds and two system sizes.
func TestSchedulerDeterminismProperty(t *testing.T) {
	for _, n := range []int{8, 13} {
		for s := 0; s < 8; s++ {
			seed := int64(s)*7919 + 11
			t.Run(fmt.Sprintf("n=%d/seed=%d", n, seed), func(t *testing.T) {
				fp1, rounds1, ok1 := runScripted(seed, n)
				fp2, rounds2, ok2 := runScripted(seed, n)
				if !ok1 || !ok2 {
					t.Fatalf("scenario did not converge (ok1=%v ok2=%v)", ok1, ok2)
				}
				if rounds1 != rounds2 {
					t.Errorf("rounds differ: %d vs %d", rounds1, rounds2)
				}
				if fp1 != fp2 {
					t.Errorf("fingerprints differ:\n--- run 1 ---\n%s--- run 2 ---\n%s", fp1, fp2)
				}
			})
		}
	}
}

// TestSchedulerSeedSensitivity is the complement: different seeds must not
// produce identical full fingerprints (they encode random delays), which
// guards against the accounting accidentally ignoring the seed.
func TestSchedulerSeedSensitivity(t *testing.T) {
	fp1, _, ok1 := runScripted(101, 8)
	fp2, _, ok2 := runScripted(202, 8)
	if !ok1 || !ok2 {
		t.Fatal("scenario did not converge")
	}
	if fp1 == fp2 {
		t.Error("two different seeds produced bit-identical runs")
	}
}
