package supervisor

import (
	"math/rand"
	"sort"
	"testing"

	"sspubsub/internal/label"
	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
	"sspubsub/internal/simtest"
)

// fakeDetector (a settable oracle) is declared in supervisor_test.go.

// planeSups builds supervisors 1..k sharing a plane over one detector.
func planeSups(det fakeDetector, k int) map[sim.NodeID]*Supervisor {
	ids := make([]sim.NodeID, k)
	for i := range ids {
		ids[i] = sim.NodeID(1 + i)
	}
	out := make(map[sim.NodeID]*Supervisor, k)
	for _, id := range ids {
		s := New(id, det)
		s.JoinPlane(ids)
		out[id] = s
	}
	return out
}

// ownerOf finds which of the supervisors believes it owns t (all agree on
// a healthy plane — hashing is deterministic).
func ownerOf(sups map[sim.NodeID]*Supervisor, t sim.Topic) sim.NodeID {
	for id, s := range sups {
		if s.PlaneOwner(t) == id {
			return id
		}
	}
	return sim.None
}

func TestPlaneAgreesOnOwner(t *testing.T) {
	sups := planeSups(fakeDetector{}, 4)
	for tp := sim.Topic(1); tp <= 40; tp++ {
		var owner sim.NodeID
		for _, s := range sups {
			got := s.PlaneOwner(tp)
			if owner == sim.None {
				owner = got
			} else if got != owner {
				t.Fatalf("topic %d: supervisors disagree on the owner (%d vs %d)", tp, got, owner)
			}
		}
		if _, ok := sups[owner]; !ok {
			t.Fatalf("topic %d owned by non-member %d", tp, owner)
		}
	}
}

func TestRedirectWhenNotOwner(t *testing.T) {
	sups := planeSups(fakeDetector{}, 3)
	owner := ownerOf(sups, tp)
	var other sim.NodeID
	for id := range sups {
		if id != owner {
			other = id
			break
		}
	}
	c := simtest.NewCtx(other)
	sups[other].OnMessage(c, sim.Message{To: other, From: 50, Topic: tp, Body: proto.Subscribe{V: 50}})
	msgs := c.Take()
	if len(msgs) != 1 {
		t.Fatalf("%d replies, want 1 redirect", len(msgs))
	}
	ann, ok := msgs[0].Body.(proto.OwnerAnnounce)
	if !ok || ann.Owner != owner || msgs[0].To != 50 {
		t.Fatalf("non-owner answered %v, want OwnerAnnounce{Owner:%d} to 50", msgs[0], owner)
	}
	if sups[other].Hosts(tp) {
		t.Fatal("redirecting supervisor grew a database for a topic it does not own")
	}
}

func TestReregisterPreservesLabel(t *testing.T) {
	det := fakeDetector{}
	sups := planeSups(det, 2)
	owner := ownerOf(sups, tp)
	s := sups[owner]
	c := simtest.NewCtx(owner)

	// A survivor of a crashed predecessor reports its old label and era.
	lab := label.FromIndex(5)
	s.OnMessage(c, sim.Message{To: owner, From: 40, Topic: tp,
		Body: proto.Reregister{V: 40, Label: lab, Epoch: 7}})
	msgs := c.Take()
	if len(msgs) != 1 {
		t.Fatalf("%d replies, want 1 configuration", len(msgs))
	}
	d, ok := msgs[0].Body.(proto.SetData)
	if !ok || d.Label != lab {
		t.Fatalf("reregister answered %v, want SetData with the preserved label %s", msgs[0].Body, lab)
	}
	if d.Epoch <= 7 {
		t.Fatalf("epoch repair failed: serving at %d, subscriber had seen era 7", d.Epoch)
	}
	if s.LabelOf(tp, 40) != lab {
		t.Fatal("database did not adopt the reported label")
	}

	// A second claimant of the same label cannot evict the first: it gets a
	// fresh subscription instead.
	s.OnMessage(c, sim.Message{To: owner, From: 41, Topic: tp,
		Body: proto.Reregister{V: 41, Label: lab, Epoch: 7}})
	msgs = c.Take()
	if len(msgs) != 1 {
		t.Fatalf("conflicting reregister: %d replies", len(msgs))
	}
	d2 := msgs[0].Body.(proto.SetData)
	if d2.Label == lab || d2.Label.IsBottom() {
		t.Fatalf("conflicting claimant got label %s, want a fresh one", d2.Label)
	}
	if s.LabelOf(tp, 40) != lab {
		t.Fatal("original holder lost its label to a conflicting claim")
	}
}

func TestPlaneMigratesOnSuspicion(t *testing.T) {
	det := fakeDetector{}
	sups := planeSups(det, 3)
	owner := ownerOf(sups, tp)

	// The owner hosts the topic (a subscriber joined it) and its heartbeat
	// gossip reaches the peers — which is how they learn the topic exists.
	oc := simtest.NewCtx(owner)
	sups[owner].OnMessage(oc, sim.Message{To: owner, From: 30, Topic: tp, Body: proto.Subscribe{V: 30}})
	for i := 0; i < gossipEvery; i++ {
		sups[owner].OnTimeout(oc)
	}
	for _, m := range oc.Take() {
		if dst, ok := sups[m.To]; ok {
			dst.OnMessage(simtest.NewCtx(m.To), m)
		}
	}
	det[owner] = true

	// Drive every survivor's plane timeout: the hashdht successor must
	// adopt, the others must not.
	for id, s := range sups {
		if id == owner {
			continue
		}
		s.OnTimeout(simtest.NewCtx(id))
	}
	var successor sim.NodeID
	for id, s := range sups {
		if id == owner {
			continue
		}
		if s.PlaneOwner(tp) == id {
			successor = id
			if !s.Hosts(tp) {
				t.Fatalf("successor %d did not adopt the orphaned topic", id)
			}
			if s.EpochOf(tp) == 0 {
				t.Fatal("adoption did not open a fresh epoch")
			}
		} else if s.Hosts(tp) {
			t.Fatalf("non-successor %d adopted the topic", id)
		}
	}
	if successor == sim.None {
		t.Fatal("no survivor considers itself the owner")
	}

	// The owner returns: the successor must hand the topic back, pointing
	// its recorded subscribers at the restored owner.
	sc := simtest.NewCtx(successor)
	sups[successor].OnMessage(sc, sim.Message{To: successor, From: 30, Topic: tp,
		Body: proto.Reregister{V: 30, Label: label.FromIndex(0), Epoch: 1}})
	sc.Take()
	det[owner] = false
	sups[successor].OnTimeout(sc)
	if sups[successor].Hosts(tp) {
		t.Fatal("successor kept the topic after the owner returned")
	}
	redirected := false
	for _, m := range sc.Take() {
		if ann, ok := m.Body.(proto.OwnerAnnounce); ok && m.To == 30 && ann.Owner == owner {
			redirected = true
		}
	}
	if !redirected {
		t.Fatal("handover did not announce the restored owner to the recorded subscriber")
	}
}

func TestGossipEnablesOrphanAdoption(t *testing.T) {
	det := fakeDetector{}
	sups := planeSups(det, 2)
	owner := ownerOf(sups, tp)
	var other sim.NodeID
	for id := range sups {
		if id != owner {
			other = id
		}
	}
	// The peer learns of the topic only through gossip, then the owner
	// dies. The peer must adopt above the gossiped era.
	sups[other].OnMessage(simtest.NewCtx(other), sim.Message{To: other, From: owner,
		Body: proto.PlaneGossip{Entries: []proto.TopicEpoch{{Topic: tp, Epoch: 4}}}})
	det[owner] = true
	c := simtest.NewCtx(other)
	sups[other].OnTimeout(c)
	if !sups[other].Hosts(tp) {
		t.Fatal("survivor did not adopt the gossiped orphan")
	}
	if e := sups[other].EpochOf(tp); e <= 4 {
		t.Fatalf("adopted at epoch %d, must exceed the gossiped era 4", e)
	}
}

func TestCorruptPlaneSelfHeals(t *testing.T) {
	det := fakeDetector{}
	sups := planeSups(det, 3)
	owner := ownerOf(sups, tp)
	oc := simtest.NewCtx(owner)
	sups[owner].OnMessage(oc, sim.Message{To: owner, From: 30, Topic: tp, Body: proto.Subscribe{V: 30}})

	// Iterate supervisors in ID order: drawing from the shared seeded rng
	// in map order would make the corruption sequence differ per run.
	ids := make([]sim.NodeID, 0, len(sups))
	for id := range sups {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 12; round++ {
		for _, id := range ids {
			sups[id].CorruptPlane(tp, rng)
		}
		// Let the slow reconcile pass run on everyone a few times.
		for _, id := range ids {
			c := simtest.NewCtx(id)
			for i := 0; i < 2*gossipEvery; i++ {
				sups[id].OnTimeout(c)
			}
			// Deliver gossip/handovers between supervisors by hand.
			for _, m := range c.Take() {
				if dst, ok := sups[m.To]; ok {
					dst.OnMessage(simtest.NewCtx(m.To), m)
				}
			}
		}
	}
	// Converged claim: exactly the hash owner hosts the topic.
	for id, s := range sups {
		want := id == owner
		if s.Hosts(tp) != want {
			t.Fatalf("after corruption storms, supervisor %d hosts=%v want %v", id, s.Hosts(tp), want)
		}
	}
}
