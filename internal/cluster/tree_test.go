package cluster

import (
	"fmt"
	"testing"
	"time"

	"sspubsub/internal/core"
	"sspubsub/internal/ordering"
	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
)

// TestFloodTreeExactlyOnce: on a legitimate skip ring every origin's
// forwarding tree reaches every other member exactly once, and never the
// origin itself.
func TestFloodTreeExactlyOnce(t *testing.T) {
	sizes := []int{12, 32, 64, 256, 1000}
	if testing.Short() {
		sizes = sizes[:4]
	}
	for _, n := range sizes {
		c := NewSim(Options{Seed: int64(n)})
		c.AddClients(n)
		c.JoinAll(topicA)
		if _, ok := c.RunUntilConverged(topicA, n, 5000); !ok {
			t.Fatalf("n=%d: no convergence: %s", n, c.Explain(topicA))
		}
		members := c.Members(topicA)
		maxDepth, sum := 0, 0
		for _, origin := range members {
			hits, depth := c.FloodTree(topicA, origin)
			for _, id := range members {
				want := 1
				if id == origin {
					want = 0
				}
				if hits[id] != want {
					t.Fatalf("n=%d origin %d: member %d receives %d copies, want %d", n, origin, id, hits[id], want)
				}
			}
			maxDepth, sum = max(maxDepth, depth), sum+depth
		}
		t.Logf("n=%d: tree depth mean %.2f, max %d", n, float64(sum)/float64(n), maxDepth)
	}
}

// TestFloodTreeAfterAntiEntropy is E13's workload — 50 publications from
// random members of a legitimate ring at once, anti-entropy on — where
// anti-entropy regularly hands a node a publication before its tree copy
// arrives. That node must still forward the tree copy (the trie leaf's
// flooded mark, not "is it new?", decides), or its whole subtree waits for
// anti-entropy: everyone must hold all 50 within 10 rounds. Without the
// mark, seeds 2 and 9 at n = 128 take over 180 rounds.
func TestFloodTreeAfterAntiEntropy(t *testing.T) {
	const pubs, budget = 50, 10
	for _, n := range []int{64, 128} {
		for seed := int64(1); seed <= 10; seed++ {
			c := NewSim(Options{Seed: seed})
			c.AddClients(n)
			c.JoinAll(topicA)
			if _, ok := c.RunUntilConverged(topicA, n, 5000); !ok {
				t.Fatalf("n=%d seed %d: no convergence: %s", n, seed, c.Explain(topicA))
			}
			members := c.Members(topicA)
			rng := c.Rand()
			for i := 0; i < pubs; i++ {
				c.Publish(members[rng.Intn(len(members))], topicA, fmt.Sprintf("p%d", i))
			}
			rounds, ok := c.RunUntil(2000, func() bool { return c.AllHavePubs(topicA, pubs) })
			if !ok || rounds > budget {
				t.Errorf("n=%d seed %d: %d publications reached everyone after %d rounds (ok=%v), want ≤ %d",
					n, seed, pubs, rounds, ok, budget)
			}
		}
	}
}

// TestFloodTreeTraffic: on every substrate, once the overlay is legitimate,
// k publications cost exactly k·(n−1) PublishNew bodies — one per
// subscriber other than the origin — in every delivery mode; the causal
// arm sends barrier-carrying floods through the net codec.
func TestFloodTreeTraffic(t *testing.T) {
	const n, k, seed = 16, 20, 7
	for _, kind := range []string{"sim", "concurrent", "net"} {
		for _, mode := range []ordering.Mode{ordering.BestEffort, ordering.FIFO, ordering.Causal} {
			t.Run(fmt.Sprintf("%s/%s", kind, mode), func(t *testing.T) {
				tr, err := NewSubstrate(kind, seed, 10*time.Millisecond)
				if err != nil {
					t.Fatal(err)
				}
				defer tr.Close()
				l := New(tr, Options{ClientOpts: core.Options{DeliveryMode: mode}})
				l.AddClients(n)
				l.JoinAll(topicA)
				if _, ok := l.RunUntilConverged(topicA, n, 5000); !ok {
					t.Fatalf("no convergence: %s", l.Explain(topicA))
				}
				body := sim.TypeName(proto.PublishNew{})
				var before int64
				if !l.Freeze(func() { before = l.CountByType(body) }) {
					t.Fatal("the system never quiesced")
				}
				members := l.Members(topicA)
				for i := 0; i < k; i++ {
					l.Publish(members[i%n], topicA, fmt.Sprintf("p%d", i))
				}
				if _, ok := l.RunUntil(5000, func() bool { return l.AllHavePubs(topicA, k) }); !ok {
					t.Fatal("publications never fully disseminated")
				}
				var sent int64
				if !l.Freeze(func() { sent = l.CountByType(body) - before }) {
					t.Fatal("the system never quiesced")
				}
				if sent != k*(n-1) {
					t.Fatalf("%d publications sent %d %s bodies, want %d", k, sent, body, k*(n-1))
				}
			})
		}
	}
}
