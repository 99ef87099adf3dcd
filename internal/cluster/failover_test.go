package cluster

import (
	"testing"

	"sspubsub/internal/label"
	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
)

// failoverCluster builds a converged multi-supervisor cluster: n members
// on one topic, sharded over k supervisors, legitimacy (including
// ownership agreement) established.
func failoverCluster(t *testing.T, seed int64, k, n int) *Live {
	t.Helper()
	c := NewSim(Options{Seed: seed, Supervisors: k})
	c.AddClients(n)
	c.JoinAll(topicA)
	if _, ok := c.RunUntilConverged(topicA, n, 8000); !ok {
		t.Fatalf("setup never converged: %s", c.Explain(topicA))
	}
	return c
}

// TestSupervisorFailoverRebuildsDB is the tentpole's core property on the
// deterministic scheduler: crash the topic's owner supervisor, and the
// hashdht successor must adopt the topic, rebuild the database from the
// surviving subscribers, and drive the system back to full legitimacy —
// with the surviving overlay (the members' labels) preserved, not rebuilt.
func TestSupervisorFailoverRebuildsDB(t *testing.T) {
	const n = 10
	c := failoverCluster(t, 3, 4, n)

	owner, ok := c.ExpectedOwner(topicA)
	if !ok {
		t.Fatal("no owner on a 4-supervisor plane")
	}
	before := c.Sups[owner].Snapshot(topicA)
	if len(before) != n {
		t.Fatalf("owner %d records %d members, want %d", owner, len(before), n)
	}

	if !c.CrashSupervisor(owner) {
		t.Fatalf("CrashSupervisor(%d) refused", owner)
	}
	successor, ok := c.ExpectedOwner(topicA)
	if !ok || successor == owner {
		t.Fatalf("expected a successor owner, got %d (ok=%v)", successor, ok)
	}

	if r, ok := c.RunUntilConverged(topicA, n, 8000); !ok {
		t.Fatalf("no re-convergence after owner crash: %s", c.Explain(topicA))
	} else {
		t.Logf("failover converged in %d rounds (owner %d → %d)", r, owner, successor)
	}
	if v := c.ExplainOwnership(topicA); v != "" {
		t.Fatalf("ownership not converged: %s", v)
	}
	if got := c.Sups[successor].EpochOf(topicA); got == 0 {
		t.Fatal("successor still at epoch 0 — adoption never bumped the era")
	}

	// Soft-state rebuild: the successor's database must be reconstructed
	// from the survivors' own reports. Label preservation is what keeps the
	// surviving skip ring intact — require the majority of members to keep
	// their pre-crash label (the deterministic seed in fact preserves all).
	after := c.Sups[successor].Snapshot(topicA)
	kept := 0
	for lab, v := range after {
		if before[lab] == v {
			kept++
		}
	}
	if kept < n/2 {
		t.Errorf("only %d/%d labels survived the rebuild — overlay was rebuilt, not recovered", kept, n)
	}
}

// TestSupervisorRestartReclaimsTopics: after a crash and failover, the
// original owner restarts with its stale pre-crash state. The plane must
// hand the topic back (it is the hashdht owner again) at a fresh epoch,
// and re-converge.
func TestSupervisorRestartReclaimsTopics(t *testing.T) {
	const n = 8
	c := failoverCluster(t, 7, 3, n)

	owner, _ := c.ExpectedOwner(topicA)
	c.CrashSupervisor(owner)
	if _, ok := c.RunUntilConverged(topicA, n, 8000); !ok {
		t.Fatalf("no convergence after crash: %s", c.Explain(topicA))
	}
	successor, _ := c.ExpectedOwner(topicA)

	if !c.RestartSupervisor(owner) {
		t.Fatal("RestartSupervisor refused")
	}
	restored, _ := c.ExpectedOwner(topicA)
	if restored != owner {
		t.Fatalf("restart did not restore ownership: expected %d, got %d", owner, restored)
	}
	if _, ok := c.RunUntilConverged(topicA, n, 8000); !ok {
		t.Fatalf("no convergence after restart: %s", c.Explain(topicA))
	}
	if v := c.ExplainOwnership(topicA); v != "" {
		t.Fatalf("ownership did not return to the restarted owner: %s", v)
	}
	if c.Sups[successor].Hosts(topicA) {
		t.Errorf("deposed successor %d still hosts the topic", successor)
	}
	if e := c.Sups[owner].EpochOf(topicA); e < 2 {
		t.Errorf("reclaimed epoch %d — two ownership transfers must have advanced the era past 1", e)
	}
}

// TestEpochStaleOwnerIgnored is the deposed-owner regression: a subscriber
// that has re-homed to the successor receives a configuration from the old
// (deposed, lower-epoch) owner and must ignore it without corrupting any
// state.
func TestEpochStaleOwnerIgnored(t *testing.T) {
	const n = 8
	c := failoverCluster(t, 5, 3, n)

	owner, _ := c.ExpectedOwner(topicA)
	c.CrashSupervisor(owner)
	if _, ok := c.RunUntilConverged(topicA, n, 8000); !ok {
		t.Fatalf("no convergence after crash: %s", c.Explain(topicA))
	}

	victim := c.Members(topicA)[0]
	st, _ := c.Clients[victim].StateOf(topicA)
	if st.Epoch == 0 {
		t.Fatal("member never advanced past epoch 0 — failover did not happen")
	}

	// The deposed owner speaks from the grave: a stale configuration with
	// a nonsense label at its old (lower) epoch. From, label and neighbours
	// are all plausible — only the epoch gives it away.
	c.Tr.Send(sim.Message{
		To: victim, From: owner, Topic: topicA,
		Body: proto.SetData{
			Label: label.FromIndex(uint64(n + 3)),
			Pred:  proto.Tuple{L: label.FromIndex(0), Ref: c.Members(topicA)[1]},
			Epoch: st.Epoch - 1,
		},
	})
	c.RunRounds(3)

	now, _ := c.Clients[victim].StateOf(topicA)
	if now.Label != st.Label || now.Sup != st.Sup || now.Epoch != st.Epoch {
		t.Fatalf("stale-owner command corrupted state:\n before %+v\n after  %+v", st, now)
	}
	if !c.Converged(topicA) {
		t.Fatalf("system left legitimacy after a stale-owner command: %s", c.Explain(topicA))
	}
}

// TestFailoverDeliveryContinues: publications issued before, during and
// after an owner crash reach every pre-crash subscriber — no subscription
// is permanently lost to a supervisor failure.
func TestFailoverDeliveryContinues(t *testing.T) {
	const n = 8
	c := failoverCluster(t, 11, 4, n)
	members := c.Members(topicA)

	c.Publish(members[0], topicA, "before")
	owner, _ := c.ExpectedOwner(topicA)
	c.CrashSupervisor(owner)
	c.Publish(members[1], topicA, "during")
	if _, ok := c.RunUntilConverged(topicA, n, 8000); !ok {
		t.Fatalf("no convergence after crash: %s", c.Explain(topicA))
	}
	c.Publish(members[2], topicA, "after")

	if _, ok := c.RunUntil(4000, func() bool {
		return c.AllHavePubs(topicA, 3) && c.TriesEqual(topicA)
	}); !ok {
		t.Fatalf("publications never reached every survivor: %s", c.Explain(topicA))
	}
}

// TestJoinDuringOwnerOutage: a client that subscribes while the topic's
// owner is down must still be integrated — its staleness probe walks the
// supervisor set until a live supervisor adopts or redirects it.
func TestJoinDuringOwnerOutage(t *testing.T) {
	const n = 6
	c := failoverCluster(t, 13, 3, n)

	owner, _ := c.ExpectedOwner(topicA)
	c.CrashSupervisor(owner)
	late := c.AddClients(1)[0]
	c.Join(late, topicA)
	if _, ok := c.RunUntilConverged(topicA, n+1, 8000); !ok {
		t.Fatalf("late joiner never integrated: %s", c.Explain(topicA))
	}
	if lab := c.Clients[late].Topics(); len(lab) != 1 {
		t.Fatalf("late joiner holds %d instances", len(lab))
	}
}

// TestFailoverDeterministicReplay pins reproducibility: the same seeded
// failover scenario run twice delivers the same message count and
// converges in the same number of rounds.
func TestFailoverDeterministicReplay(t *testing.T) {
	run := func() (int, int64) {
		c := NewSim(Options{Seed: 21, Supervisors: 4})
		c.AddClients(9)
		c.JoinAll(topicA)
		if _, ok := c.RunUntilConverged(topicA, 9, 8000); !ok {
			t.Fatalf("setup: %s", c.Explain(topicA))
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
