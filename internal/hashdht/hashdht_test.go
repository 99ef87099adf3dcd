package hashdht

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sspubsub/internal/sim"
)

func topics(n int) []sim.Topic {
	out := make([]sim.Topic, n)
	for i := range out {
		out[i] = sim.Topic(i + 1)
	}
	return out
}

// owners snapshots every topic's owner on r.
func owners(r *Ring, ts []sim.Topic) map[sim.Topic]sim.NodeID {
	out := make(map[sim.Topic]sim.NodeID, len(ts))
	for _, tp := range ts {
		id, ok := r.Owner(tp)
		if !ok {
			panic("owner lookup on an empty ring")
		}
		out[tp] = id
	}
	return out
}

// moved returns the topics whose owner differs between two snapshots,
// mapped to their new owner — what a membership change migrates.
func moved(before, after map[sim.Topic]sim.NodeID) map[sim.Topic]sim.NodeID {
	out := make(map[sim.Topic]sim.NodeID)
	for tp, now := range after {
		if before[tp] != now {
			out[tp] = now
		}
	}
	return out
}

// TestPlacementKeyStable pins the placement function itself: a topic sits
// at the hash of "topic-t/<id>", the key every release so far has hashed.
// Moving it would re-home every topic of a running deployment.
func TestPlacementKeyStable(t *testing.T) {
	if topicPoint(7) != hashPoint("topic-t/7") || topicPoint(-3) != hashPoint("topic-t/-3") {
		t.Fatal("topicPoint no longer hashes the topic-t/<id> key")
	}
	r := NewRing()
	r.Add(1)
	r.Add(2)
	r.Add(3)
	// Owners recorded from the string-keyed ring (Owner("t/<id>")).
	for tp, want := range map[sim.Topic]sim.NodeID{
		-3: 1, 0: 1, 1: 1, 2: 3, 7: 3, 9: 1, 10: 2, 42: 2, 1000: 3, 1 << 30: 1,
	} {
		if got, _ := r.Owner(tp); got != want {
			t.Errorf("Owner(%d) = %d, want %d", tp, got, want)
		}
	}
}

func TestOwnerDeterministic(t *testing.T) {
	r := NewRing()
	r.Add(1)
	r.Add(2)
	r.Add(3)
	for _, tp := range topics(50) {
		a, ok1 := r.Owner(tp)
		b, ok2 := r.Owner(tp)
		if !ok1 || !ok2 || a != b {
			t.Fatalf("owner not deterministic for %d: %d vs %d", tp, a, b)
		}
	}
}

func TestEmptyRing(t *testing.T) {
	r := NewRing()
	if _, ok := r.Owner(1); ok {
		t.Error("empty ring must own nothing")
	}
	r.Add(5)
	if id, ok := r.Owner(1); !ok || id != 5 {
		t.Error("single supervisor must own everything")
	}
}

func TestAddIdempotentRemoveUnknown(t *testing.T) {
	r := NewRing()
	r.Add(1)
	r.Add(1)
	if got := len(r.Members()); got != 1 {
		t.Errorf("members = %d", got)
	}
	r.Remove(99) // no-op
	r.Remove(1)
	if got := len(r.Members()); got != 0 {
		t.Errorf("members after remove = %d", got)
	}
}

// Load balance: with enough virtual points, topic ownership spreads within
// a small factor of uniform.
func TestSpreadBalanced(t *testing.T) {
	r := NewRing()
	for i := sim.NodeID(1); i <= 8; i++ {
		r.Add(i)
	}
	spread := map[sim.NodeID]int{}
	for _, tp := range topics(4000) {
		id, _ := r.Owner(tp)
		spread[id]++
	}
	if len(spread) != 8 {
		t.Fatalf("%d of 8 supervisors own topics", len(spread))
	}
	want := 4000 / 8
	for id, c := range spread {
		if c < want/2 || c > want*2 {
			t.Errorf("supervisor %d owns %d topics, want ≈ %d", id, c, want)
		}
	}
}

// Consistency: removing one supervisor only moves the topics it owned.
func TestRemovalMovesOnlyOwnedTopics(t *testing.T) {
	r := NewRing()
	for i := sim.NodeID(1); i <= 5; i++ {
		r.Add(i)
	}
	tps := topics(1000)
	before := map[sim.Topic]sim.NodeID{}
	for _, tp := range tps {
		before[tp], _ = r.Owner(tp)
	}
	r.Remove(3)
	for _, tp := range tps {
		now, _ := r.Owner(tp)
		if before[tp] == 3 {
			if now == 3 {
				t.Fatalf("topic %d still owned by removed supervisor", tp)
			}
		} else if now != before[tp] {
			t.Errorf("topic %d moved from %d to %d although its owner stayed", tp, before[tp], now)
		}
	}
}

// Property: ownership is always a live member.
func TestPropertyOwnerIsMember(t *testing.T) {
	f := func(ids []uint8, topic int32) bool {
		r := NewRing()
		live := map[sim.NodeID]bool{}
		for _, raw := range ids {
			id := sim.NodeID(raw%16 + 1)
			if live[id] {
				r.Remove(id)
				delete(live, id)
			} else {
				r.Add(id)
				live[id] = true
			}
		}
		owner, ok := r.Owner(sim.Topic(topic))
		if len(live) == 0 {
			return !ok
		}
		return ok && live[owner]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDirectoryRebalance checks the topic directory the supervisor plane
// reads off Ring.Owner: every topic resolves on a populated ring, a
// membership that did not change moves nothing, and a joining supervisor
// takes over roughly a third of the topics — all of them to itself.
func TestDirectoryRebalance(t *testing.T) {
	r := NewRing()
	r.Add(1)
	r.Add(2)
	tps := topics(300)
	before := owners(r, tps)
	if len(before) != 300 {
		t.Fatalf("directory resolves %d topics", len(before))
	}
	// No change → no moves.
	if mv := moved(before, owners(r, tps)); len(mv) != 0 {
		t.Fatalf("spurious rebalance: %d topics moved", len(mv))
	}
	// New supervisor takes over roughly a third of the topics.
	r.Add(3)
	mv := moved(before, owners(r, tps))
	if len(mv) == 0 || len(mv) > 250 {
		t.Fatalf("rebalance moved %d topics, want ≈ 100", len(mv))
	}
	for tp, id := range mv {
		if id != 3 {
			t.Errorf("topic %d moved to %d, but only supervisor 3 is new", tp, id)
		}
	}
}

// TestRemovalRebalanceMinimality is the migration-minimality property the
// crash-tolerant supervisor plane rests on, mirrored from the join-side
// test: when a supervisor is removed (crashed), exactly the topics the
// removed node owned change owner — each to a surviving supervisor — and
// every other topic keeps its owner untouched.
func TestRemovalRebalanceMinimality(t *testing.T) {
	r := NewRing()
	for i := sim.NodeID(1); i <= 4; i++ {
		r.Add(i)
	}
	ts := topics(400)
	before := owners(r, ts)
	owned := 0
	for _, id := range before {
		if id == 3 {
			owned++
		}
	}
	if owned == 0 {
		t.Fatal("supervisor 3 owns no topics — the removal test would be vacuous")
	}

	r.Remove(3)
	mv := moved(before, owners(r, ts))

	// Exactly the dead node's topics move: no more, no fewer.
	if len(mv) != owned {
		t.Fatalf("removal moved %d topics, supervisor 3 owned %d", len(mv), owned)
	}
	for tp, now := range mv {
		if before[tp] != 3 {
			t.Errorf("topic %d moved although its owner %d survived", tp, before[tp])
		}
		if now == 3 {
			t.Errorf("topic %d still assigned to the removed supervisor", tp)
		}
	}
}

// TestRemovalRebalanceSuccessorAgreement: after a removal, the moved
// topics' new owners equal the owners a fresh ring (built without the dead
// node) computes — the history-independence that lets every supervisor
// run the migration independently and agree.
func TestRemovalRebalanceSuccessorAgreement(t *testing.T) {
	churned := NewRing()
	for i := sim.NodeID(1); i <= 5; i++ {
		churned.Add(i)
	}
	ts := topics(300)
	before := owners(churned, ts)
	churned.Remove(2)
	mv := moved(before, owners(churned, ts))
	if len(mv) == 0 {
		t.Fatal("removing supervisor 2 moved no topics — the test would be vacuous")
	}

	fresh := NewRing()
	for _, id := range []sim.NodeID{1, 3, 4, 5} {
		fresh.Add(id)
	}
	for tp, now := range mv {
		want, ok := fresh.Owner(tp)
		if !ok || now != want {
			t.Errorf("topic %d migrated to %d, fresh ring says %d", tp, now, want)
		}
	}
}

// TestRemoveThenReaddRestoresOwnership: a crash followed by a restart
// (remove + re-add) returns every topic to its original owner, and the
// two membership changes move inverse topic sets — what lets a restarted
// supervisor reclaim exactly its own topics.
func TestRemoveThenReaddRestoresOwnership(t *testing.T) {
	r := NewRing()
	for i := sim.NodeID(1); i <= 4; i++ {
		r.Add(i)
	}
	ts := topics(300)
	before := owners(r, ts)
	r.Remove(4)
	mid := owners(r, ts)
	away := moved(before, mid)
	r.Add(4)
	after := owners(r, ts)
	back := moved(mid, after)
	if len(away) != len(back) {
		t.Fatalf("asymmetric churn: %d topics moved away, %d moved back", len(away), len(back))
	}
	for tp := range away {
		if back[tp] != 4 {
			t.Errorf("topic %d not reclaimed by the restarted supervisor (owner %d)", tp, after[tp])
		}
	}
	for _, tp := range ts {
		if after[tp] != before[tp] {
			t.Errorf("topic %d ended at %d, started at %d", tp, after[tp], before[tp])
		}
	}
}

// TestChurnNeverOrphansTopics drives a long random add/remove sequence of
// supervisors and checks the core placement invariant after every step:
// while any supervisor is alive, every topic has exactly one owner and
// that owner is a live member. (A topic without a responsible supervisor
// would strand its subscribers forever — the multi-supervisor extension's
// worst failure mode.)
func TestChurnNeverOrphansTopics(t *testing.T) {
	r := NewRing()
	ts := topics(200)
	alive := map[sim.NodeID]bool{}
	rng := rand.New(rand.NewSource(11))
	for step := 0; step < 200; step++ {
		id := sim.NodeID(1 + rng.Intn(12))
		if alive[id] && len(alive) > 1 && rng.Intn(2) == 0 {
			r.Remove(id)
			delete(alive, id)
		} else {
			r.Add(id)
			alive[id] = true
		}
		for _, tp := range ts {
			owner, ok := r.Owner(tp)
			if !ok {
				t.Fatalf("step %d: topic %d orphaned with %d supervisors alive", step, tp, len(alive))
			}
			if !alive[owner] {
				t.Fatalf("step %d: topic %d owned by dead supervisor %d", step, tp, owner)
			}
		}
	}
}

// TestPlacementIndependentOfHistory: two rings holding the same supervisor
// set must agree on every topic's owner, regardless of the insertion order
// or intermediate churn that produced them. This is what lets a restarted
// process rebuild routing from the member list alone.
func TestPlacementIndependentOfHistory(t *testing.T) {
	a := NewRing()
	for _, id := range []sim.NodeID{1, 2, 3, 4, 5} {
		a.Add(id)
	}
	a.Remove(2)
	a.Remove(4)

	b := NewRing()
	b.Add(5)
	b.Add(1)
	b.Add(3)

	for _, tp := range topics(300) {
		ao, aok := a.Owner(tp)
		bo, bok := b.Owner(tp)
		if !aok || !bok || ao != bo {
			t.Fatalf("placement differs for %d: %d (churned) vs %d (fresh)", tp, ao, bo)
		}
	}
}

// TestRebalanceMinimality: when a supervisor joins, only topics that now
// hash to it move — every other topic keeps its owner (the consistent
// hashing guarantee that makes supervisor elasticity affordable).
func TestRebalanceMinimality(t *testing.T) {
	r := NewRing()
	r.Add(1)
	r.Add(2)
	ts := topics(300)
	before := owners(r, ts)
	r.Add(3)
	mv := moved(before, owners(r, ts))
	for tp, now := range mv {
		if now != 3 {
			t.Errorf("topic %d moved to %d, not to the new supervisor", tp, now)
		}
	}
	if len(mv) == 0 {
		t.Error("adding a third supervisor moved no topics at all (suspicious with 300 topics)")
	}
	if len(mv) > len(ts)/2 {
		t.Errorf("adding one of three supervisors moved %d/%d topics — not minimal", len(mv), len(ts))
	}
}

// TestSuccessorsExcludeOwnerAndDedup: the replica set never contains the
// owner, never repeats a member, and is capped by both k and the member
// count — the contract the replication layer's fan-out depends on.
func TestSuccessorsExcludeOwnerAndDedup(t *testing.T) {
	r := NewRing()
	for i := sim.NodeID(1); i <= 5; i++ {
		r.Add(i)
	}
	for _, tp := range topics(100) {
		owner, _ := r.Owner(tp)
		for k := 0; k <= 7; k++ {
			succs := r.Successors(tp, k)
			want := k
			if want > 4 {
				want = 4 // 5 members minus the owner
			}
			if len(succs) != want {
				t.Fatalf("topic %d k=%d: %d successors, want %d", tp, k, len(succs), want)
			}
			seen := map[sim.NodeID]bool{owner: true}
			for _, id := range succs {
				if seen[id] {
					t.Fatalf("topic %d k=%d: duplicate or owner %d in %v", tp, k, id, succs)
				}
				seen[id] = true
			}
		}
	}
}

// TestSuccessorBecomesOwnerOnRemoval pins the placement property the warm
// failover rests on: remove a topic's owner and the new owner is exactly
// the first successor the replication layer was streaming to.
func TestSuccessorBecomesOwnerOnRemoval(t *testing.T) {
	for _, tp := range topics(200) {
		r := NewRing()
		for i := sim.NodeID(1); i <= 4; i++ {
			r.Add(i)
		}
		owner, _ := r.Owner(tp)
		succs := r.Successors(tp, 2)
		if len(succs) != 2 {
			t.Fatalf("topic %d: %d successors, want 2", tp, len(succs))
		}
		r.Remove(owner)
		next, ok := r.Owner(tp)
		if !ok || next != succs[0] {
			t.Fatalf("topic %d: owner after removal %d, want first successor %d", tp, next, succs[0])
		}
	}
}
