package core

import (
	"testing"

	"sspubsub/internal/label"
	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
	"sspubsub/internal/simtest"
)

// The TestAblate tests each keep one rule of the package documentation in
// place, for the case its paper source gives it: each fails when that
// rule's branch is made to do nothing (README, "Every rule earns its
// place", lists the mutation of every row).

// sent returns the messages of body type T in msgs, keyed by destination.
func sent[T any](msgs []sim.Message) map[sim.NodeID]T {
	out := map[sim.NodeID]T{}
	for _, m := range msgs {
		if b, ok := m.Body.(T); ok {
			out[m.To] = b
		}
	}
	return out
}

// labelled returns node 10 at label lab holding the given ring slots.
func labelled(lab string, left, right, ring proto.Tuple) (*Subscriber, *simtest.Ctx) {
	s, c := newSub(10)
	s.ForceState(label.MustParse(lab), left, right, ring, nil)
	return s, c
}

// Algorithm 1 Timeout: a list neighbour stored on the wrong side (an
// arbitrary initial state) is cleared and re-linearized onto its side.
func TestAblateResideListNeighbour(t *testing.T) {
	s, c := labelled("01", tup("1", 12), proto.Tuple{}, proto.Tuple{})
	s.OnTimeout(c)
	if s.Left().Ref == 12 || s.Right() != tup("1", 12) {
		t.Fatalf("1/2 stored left of 1/4: left=%v right=%v", s.Left(), s.Right())
	}
}

// Algorithm 2 lines 35–38: a closure candidate on the side opposite the
// closure edge means we are not the extreme the edge claims; both are
// re-linearized.
func TestAblateResideClosure(t *testing.T) {
	s, c := labelled("001", proto.Tuple{}, tup("01", 12), tup("11", 13))
	s.OnMessage(c, sim.Message{From: 12, Topic: tp, Body: proto.Introduce{C: tup("0", 14), Flag: proto.CYC}})
	if !s.Ring().IsBottom() || s.Left() != tup("0", 14) {
		t.Fatalf("ring=%v left=%v, want the edge dropped and 0 adopted left", s.Ring(), s.Left())
	}
	if lin := sent[proto.Linearize](c.Take()); lin[12].V != tup("11", 13) {
		t.Fatalf("the old closure edge was not delegated toward 3/4: %v", lin)
	}
}

// Algorithm 1 Timeout: a node introduces itself to both list neighbours,
// telling each the label it believes the neighbour holds.
func TestAblateIntroduceSelf(t *testing.T) {
	s, c := labelled("01", tup("001", 11), tup("1", 12), proto.Tuple{})
	s.OnTimeout(c)
	checks := sent[proto.Check](c.Take())
	for _, nb := range []proto.Tuple{tup("001", 11), tup("1", 12)} {
		if ch, ok := checks[nb.Ref]; !ok || ch.YourLabel != nb.L || ch.Sender != tup("01", 10) || ch.Flag != proto.LIN {
			t.Fatalf("Check to %d = %+v (sent %v)", nb.Ref, ch, ok)
		}
	}
}

// Algorithm 2 Timeout: the near extreme Checks its closure edge.
func TestAblateClosureCheck(t *testing.T) {
	s, c := labelled("0", proto.Tuple{}, tup("01", 12), tup("11", 13))
	s.OnTimeout(c)
	if ch, ok := sent[proto.Check](c.Take())[13]; !ok || ch.Flag != proto.CYC || ch.YourLabel != label.MustParse("11") {
		t.Fatalf("closure Check to 13 = %+v (sent %v)", ch, ok)
	}
}

// Algorithm 2 Timeout: an extreme without a closure edge introduces itself
// to its inner neighbour, to be routed to the opposite extreme.
func TestAblateClosureAnnounce(t *testing.T) {
	s, c := labelled("0", proto.Tuple{}, tup("01", 12), proto.Tuple{})
	s.OnTimeout(c)
	if in, ok := sent[proto.Introduce](c.Take())[12]; !ok || in.Flag != proto.CYC || in.C != tup("0", 10) {
		t.Fatalf("announce to 12 = %+v (sent %v)", in, ok)
	}
}

// Algorithm 2 Timeout: an interior node holding a closure edge passes it on
// toward the near extreme and forgets it.
func TestAblateClosurePassOnTimeout(t *testing.T) {
	s, c := labelled("01", tup("001", 11), tup("1", 12), tup("11", 13))
	s.OnTimeout(c)
	if !s.Ring().IsBottom() {
		t.Fatalf("interior node kept the closure edge %v", s.Ring())
	}
	if in, ok := sent[proto.Introduce](c.Take())[11]; !ok || in.Flag != proto.CYC || in.C != tup("11", 13) {
		t.Fatalf("pass to 11 = %+v (sent %v)", in, ok)
	}
}

// Algorithm 2 Introduce, lines 30–34: of two closure candidates on one
// side, the farther becomes the edge and the nearer is linearized.
func TestAblateClosureAdoptFarther(t *testing.T) {
	s, c := labelled("11", tup("1", 12), proto.Tuple{}, tup("01", 14))
	s.OnMessage(c, sim.Message{From: 12, Topic: tp, Body: proto.Introduce{C: tup("0", 13), Flag: proto.CYC}})
	if s.Ring() != tup("0", 13) {
		t.Fatalf("ring = %v, want the farther candidate 0@13", s.Ring())
	}
	if lin := sent[proto.Linearize](c.Take()); lin[12].V != tup("01", 14) {
		t.Fatalf("the nearer edge was not linearized toward 1/4: %v", lin)
	}
}

// Section 4.1: a departed instance that the database re-recorded (its
// Subscribe overtook the grant) asks to leave again; a ⊥ configuration
// draws no answer.
func TestAblateLeaveAnswersReRecordedDeparture(t *testing.T) {
	s, c := labelled("01", tup("001", 11), tup("1", 12), proto.Tuple{})
	s.Leave(c)
	s.OnMessage(c, sim.Message{From: supID, Topic: tp, Body: proto.SetData{}})
	c.Take()
	if !s.Departed() {
		t.Fatal("not departed")
	}
	s.OnMessage(c, sim.Message{From: supID, Topic: tp, Body: proto.SetData{Label: label.MustParse("1")}})
	if u, ok := sent[proto.Unsubscribe](c.Take())[supID]; !ok || u.V != 10 {
		t.Fatalf("re-recorded departed instance did not unsubscribe: %+v (sent %v)", u, ok)
	}
	s.OnMessage(c, sim.Message{From: supID, Topic: tp, Body: proto.SetData{}})
	if msgs := c.Take(); len(msgs) != 0 {
		t.Fatalf("⊥ configuration answered with %v", msgs)
	}
}

// Section 3.2.2: a shortcut slot the label and circular neighbours no
// longer derive is dropped, and its occupant is linearized, not lost.
func TestAblateShortcutDrop(t *testing.T) {
	s, c := newSub(10)
	s.ForceState(label.MustParse("01"), tup("0011", 11), tup("0101", 12), proto.Tuple{},
		map[label.Label]sim.NodeID{label.MustParse("0001"): 20})
	s.OnTimeout(c)
	if _, ok := s.Shortcuts()[label.MustParse("0001")]; ok {
		t.Fatalf("underived slot 0001 kept: %v", s.Shortcuts())
	}
}

func TestAblateShortcutDropRelinearizesOccupant(t *testing.T) {
	s, c := newSub(10)
	s.ForceState(label.MustParse("01"), tup("0011", 11), tup("0101", 12), proto.Tuple{},
		map[label.Label]sim.NodeID{label.MustParse("0001"): 20})
	s.OnTimeout(c)
	if lin := sent[proto.Linearize](c.Take()); lin[11].V != tup("0001", 20) {
		t.Fatalf("dropped slot's occupant 20 not delegated toward 1/16: %v", lin)
	}
}

// Supervisor failover: a subscriber whose owner stays silent past the
// threshold asks the next plane member to take it back.
func TestAblateOwnerProbe(t *testing.T) {
	s, c := labelled("01", tup("001", 11), tup("1", 12), proto.Tuple{})
	s.SetPlane([]sim.NodeID{supID, 2, 3})
	var probes []sim.NodeID
	for i := 0; i < staleProbeInit; i++ {
		s.OnTimeout(c)
		for to, r := range sent[proto.Reregister](c.Take()) {
			if r.V == 10 && r.Label == label.MustParse("01") {
				probes = append(probes, to)
			}
		}
	}
	if len(probes) != 1 || probes[0] != supID {
		t.Fatalf("probes after %d silent intervals = %v, want one to plane[0]", staleProbeInit, probes)
	}
}

// Supervisor failover: an announced newer owner is followed at once, with a
// Reregister that lets it rebuild its database from the overlay.
func TestAblateRehome(t *testing.T) {
	s, c := labelled("01", tup("001", 11), tup("1", 12), proto.Tuple{})
	s.SetPlane([]sim.NodeID{supID, 2, 3})
	s.OnMessage(c, sim.Message{From: 2, Topic: tp, Body: proto.OwnerAnnounce{Owner: 2, Epoch: 5}})
	if r, ok := sent[proto.Reregister](c.Take())[2]; !ok || r.Epoch != 5 || r.Label != label.MustParse("01") {
		t.Fatalf("re-home Reregister to 2 = %+v (sent %v)", r, ok)
	}
}

// Algorithm 1 Linearize, refined: a candidate at the occupant's exact
// position (a duplicate label, often a stale reference to a crashed node)
// never displaces the occupant on the ID tie-break, and is referred to the
// supervisor, which corrects a live duplicate and lets a dead one die.
func TestAblateReferDuplicateOccupant(t *testing.T) {
	s, c := labelled("01", tup("001", 11), tup("1", 12), proto.Tuple{})
	s.OnMessage(c, sim.Message{From: 12, Topic: tp, Body: proto.Introduce{C: tup("1", 5), Flag: proto.LIN}})
	if s.Right() != tup("1", 12) {
		t.Fatalf("right = %v, want the occupant 1@12 kept", s.Right())
	}
	if g, ok := sent[proto.GetConfiguration](c.Take())[supID]; !ok || g.V != 5 {
		t.Fatalf("duplicate 5 not referred to the supervisor: %+v (sent %v)", g, ok)
	}
}
