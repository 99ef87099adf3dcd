package cluster

import (
	"testing"
)

// replicaCluster builds a converged cluster with directory replication on:
// n members over k supervisors at replication factor rf, legitimate AND
// with every expected replica holding the owner's exact digest.
func replicaCluster(t *testing.T, seed int64, k, n, rf int) *Live {
	t.Helper()
	c := NewSim(Options{Seed: seed, Supervisors: k, ReplicationFactor: rf})
	c.AddClients(n)
	c.JoinAll(topicA)
	if _, ok := c.RunUntilConverged(topicA, n, 8000); !ok {
		t.Fatalf("setup never converged: %s", c.Explain(topicA))
	}
	if _, ok := c.RunUntil(2000, func() bool {
		return c.ReplicasConverged(topicA)
	}); !ok {
		t.Fatalf("replicas never converged: %s", c.ExplainReplication(topicA))
	}
	return c
}

// TestWarmFailoverPreservesEveryLabel is the tentpole's headline property:
// with a warm replica, the successor adopts the directory as-is, so NO
// survivor is relabelled — strictly stronger than the cold rebuild's
// majority-preservation guarantee (TestSupervisorFailoverRebuildsDB).
func TestWarmFailoverPreservesEveryLabel(t *testing.T) {
	const n = 10
	c := replicaCluster(t, 3, 4, n, 2)

	owner, _ := c.ExpectedOwner(topicA)
	before := c.Sups[owner].Snapshot(topicA)
	if !c.CrashSupervisor(owner) {
		t.Fatalf("CrashSupervisor(%d) refused", owner)
	}
	successor, _ := c.ExpectedOwner(topicA)

	if r, ok := c.RunUntilConverged(topicA, n, 8000); !ok {
		t.Fatalf("no re-convergence after owner crash: %s", c.Explain(topicA))
	} else {
		t.Logf("warm failover converged in %d rounds (owner %d → %d)", r, owner, successor)
	}
	if got := c.Sups[successor].EpochOf(topicA); got == 0 {
		t.Fatal("successor still at epoch 0 — adoption never bumped the era")
	}
	after := c.Sups[successor].Snapshot(topicA)
	if len(after) != n {
		t.Fatalf("successor records %d members, want %d", len(after), n)
	}
	for lab, v := range after {
		if before[lab] != v {
			t.Errorf("label %s remapped: %d before, %d after — warm adoption must not relabel", lab, before[lab], v)
		}
	}
	// The new owner must restart the replica stream to its own successors.
	if _, ok := c.RunUntil(2000, func() bool {
		return c.ReplicasConverged(topicA)
	}); !ok {
		t.Fatalf("new owner never re-replicated: %s", c.ExplainReplication(topicA))
	}
}

// TestWarmFailoverFasterThanCold pins the performance claim at the cluster
// scale too: same seed, same plane, warm adoption re-converges in fewer
// rounds than the Reregister rebuild.
func TestWarmFailoverFasterThanCold(t *testing.T) {
	const n = 12
	run := func(rf int) int {
		c := NewSim(Options{Seed: 9, Supervisors: 4, ReplicationFactor: rf})
		c.AddClients(n)
		c.JoinAll(topicA)
		if _, ok := c.RunUntilConverged(topicA, n, 8000); !ok {
			t.Fatalf("rf=%d setup: %s", rf, c.Explain(topicA))
		}
		if rf > 0 {
			if _, ok := c.RunUntil(2000, func() bool {
				return c.ReplicasConverged(topicA)
			}); !ok {
				t.Fatalf("rf=%d replicas never converged: %s", rf, c.ExplainReplication(topicA))
			}
		}
		owner, _ := c.ExpectedOwner(topicA)
		c.CrashSupervisor(owner)
		r, ok := c.RunUntilConverged(topicA, n, 8000)
		if !ok {
			t.Fatalf("rf=%d failover: %s", rf, c.Explain(topicA))
		}
		return r
	}
	warm, cold := run(2), run(0)
	t.Logf("failover rounds: warm=%d cold=%d", warm, cold)
	if warm >= cold {
		t.Errorf("warm failover (%d rounds) not faster than cold rebuild (%d rounds)", warm, cold)
	}
}

// TestAntiEntropyRepairsCorruptedReplica: scramble a replica arbitrarily;
// the owner's periodic digest probe must detect the divergence and ship a
// full sync — the replica re-converges with no owner-side mutation and no
// effect on the live overlay. The seeds cover every draw of CorruptReplica,
// including (seed 5) an era poisoned ABOVE that of an owner that never
// failed over, which the replica must give up for its owner's.
func TestAntiEntropyRepairsCorruptedReplica(t *testing.T) {
	const n = 8
	aboveOwner := 0
	for seed := int64(1); seed <= 10; seed++ {
		c := replicaCluster(t, seed, 4, n, 1)

		owner, _ := c.ExpectedOwner(topicA)
		targets := c.ExpectedReplicas(topicA)
		if len(targets) != 1 {
			t.Fatalf("seed %d: expected exactly 1 replica holder, got %v", seed, targets)
		}
		c.Sups[targets[0]].CorruptReplica(topicA, c.Rand())
		if c.ReplicasConverged(topicA) {
			// The one invisible draw: the era "regresses" to the 0 the owner
			// is at, and ExplainReplication recomputes digests from content,
			// so the flipped stored digest does not show.
			t.Logf("seed %d: corruption invisible to the replica predicate", seed)
			continue
		}
		t.Logf("seed %d: %s", seed, c.ExplainReplication(topicA))
		if era, _, _, _ := c.Sups[targets[0]].HeldReplicaDigest(topicA); era > c.Sups[owner].EpochOf(topicA) {
			aboveOwner++
		}
		if _, ok := c.RunUntil(2000, func() bool {
			return c.ReplicasConverged(topicA)
		}); !ok {
			t.Fatalf("seed %d: anti-entropy never repaired the replica: %s", seed, c.ExplainReplication(topicA))
		}
		// The repair is owner → replica only: the live directory and overlay
		// must be untouched throughout.
		if got := c.Sups[owner].N(topicA); got != n {
			t.Errorf("seed %d: owner database changed during replica repair: %d entries, want %d", seed, got, n)
		}
		if !c.Converged(topicA) {
			t.Errorf("seed %d: overlay left legitimacy during replica repair: %s", seed, c.Explain(topicA))
		}
	}
	if aboveOwner == 0 {
		t.Error("no seed poisoned the replica era above the owner's — the case this test must cover")
	}
}

// TestFailoverWithoutReplicaFallsBack: crash the owner AND its sole
// replica holder in the same instant. The next successor holds no replica,
// so the warm path is unavailable — it must fall back to the PR 5
// Reregister rebuild and still converge.
func TestFailoverWithoutReplicaFallsBack(t *testing.T) {
	const n = 8
	c := replicaCluster(t, 7, 4, n, 1)

	owner, _ := c.ExpectedOwner(topicA)
	holder := c.ExpectedReplicas(topicA)[0]
	if !c.CrashSupervisor(holder) || !c.CrashSupervisor(owner) {
		t.Fatal("CrashSupervisor refused")
	}
	successor, ok := c.ExpectedOwner(topicA)
	if !ok || successor == owner || successor == holder {
		t.Fatalf("no fresh successor: %d (ok=%v)", successor, ok)
	}
	if _, ok := c.RunUntilConverged(topicA, n, 8000); !ok {
		t.Fatalf("cold fallback never converged: %s", c.Explain(topicA))
	}
	if got := c.Sups[successor].N(topicA); got != n {
		t.Errorf("successor rebuilt %d entries, want %d", got, n)
	}
}

// TestWarmFailoverDeterministicReplay pins reproducibility with the
// replica machinery in the loop: the same seeded warm-failover scenario
// run twice agrees on rounds and on the exact delivered-message count.
func TestWarmFailoverDeterministicReplay(t *testing.T) {
	run := func() (int, int64) {
		c := NewSim(Options{Seed: 21, Supervisors: 4, ReplicationFactor: 2})
		c.AddClients(9)
		c.JoinAll(topicA)
		if _, ok := c.RunUntilConverged(topicA, 9, 8000); !ok {
			t.Fatalf("setup: %s", c.Explain(topicA))
		}
		if _, ok := c.RunUntil(2000, func() bool {
			return c.ReplicasConverged(topicA)
		}); !ok {
			t.Fatalf("replicas: %s", c.ExplainReplication(topicA))
		}
		owner, _ := c.ExpectedOwner(topicA)
		c.CrashSupervisor(owner)
		r, ok := c.RunUntilConverged(topicA, 9, 8000)
		if !ok {
			t.Fatalf("failover: %s", c.Explain(topicA))
		}
		return r, c.Delivered()
	}
	r1, d1 := run()
	r2, d2 := run()
	if r1 != r2 || d1 != d2 {
		t.Fatalf("replay diverged: (%d rounds, %d delivered) vs (%d rounds, %d delivered)", r1, d1, r2, d2)
	}
}
