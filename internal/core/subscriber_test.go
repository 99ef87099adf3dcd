package core

import (
	"testing"

	"sspubsub/internal/label"
	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
	"sspubsub/internal/simtest"
)

const (
	supID sim.NodeID = 1
	tp    sim.Topic  = 1
)

func tup(lab string, id sim.NodeID) proto.Tuple {
	return proto.Tuple{L: label.MustParse(lab), Ref: id}
}

func newSub(id sim.NodeID) (*Subscriber, *simtest.Ctx) {
	return NewSubscriber(id, supID, tp), simtest.NewCtx(id)
}

func TestActionISubscribesWhenUnlabelled(t *testing.T) {
	s, c := newSub(10)
	s.OnTimeout(c)
	msgs := c.Take()
	if len(msgs) != 1 || msgs[0].To != supID {
		t.Fatalf("unlabelled node sent %v", msgs)
	}
	if _, ok := msgs[0].Body.(proto.Subscribe); !ok {
		t.Fatalf("want Subscribe, got %T", msgs[0].Body)
	}
}

func TestSetDataPlacesNeighbors(t *testing.T) {
	s, c := newSub(10)
	// Interior node: label 01 (1/4), pred 001 (1/8), succ 1 (1/2).
	s.OnMessage(c, sim.Message{Topic: tp, Body: proto.SetData{
		Pred: tup("001", 11), Label: label.MustParse("01"), Succ: tup("1", 12),
	}})
	if s.Label() != label.MustParse("01") {
		t.Fatalf("label = %s", s.Label())
	}
	if s.Left() != tup("001", 11) || s.Right() != tup("1", 12) || !s.Ring().IsBottom() {
		t.Fatalf("slots: left=%v right=%v ring=%v", s.Left(), s.Right(), s.Ring())
	}
}

func TestSetDataMinimumWrapsPredToRing(t *testing.T) {
	s, c := newSub(10)
	// Minimum node: label 0, pred is the maximum (11 = 3/4) → ring edge.
	s.OnMessage(c, sim.Message{Topic: tp, Body: proto.SetData{
		Pred: tup("11", 13), Label: label.MustParse("0"), Succ: tup("01", 12),
	}})
	if !s.Left().IsBottom() || s.Ring() != tup("11", 13) || s.Right() != tup("01", 12) {
		t.Fatalf("min slots: left=%v right=%v ring=%v", s.Left(), s.Right(), s.Ring())
	}
}

func TestSetDataMaximumWrapsSuccToRing(t *testing.T) {
	s, c := newSub(10)
	s.OnMessage(c, sim.Message{Topic: tp, Body: proto.SetData{
		Pred: tup("1", 12), Label: label.MustParse("11"), Succ: tup("0", 13),
	}})
	if !s.Right().IsBottom() || s.Ring() != tup("0", 13) || s.Left() != tup("1", 12) {
		t.Fatalf("max slots: left=%v right=%v ring=%v", s.Left(), s.Right(), s.Ring())
	}
}

func TestSetDataBottomClearsLabelOnly(t *testing.T) {
	s, c := newSub(10)
	s.OnMessage(c, sim.Message{Topic: tp, Body: proto.SetData{
		Pred: tup("001", 11), Label: label.MustParse("01"), Succ: tup("1", 12),
	}})
	s.OnMessage(c, sim.Message{Topic: tp, Body: proto.SetData{}})
	if !s.Label().IsBottom() {
		t.Fatal("label must clear on ⊥ config")
	}
	// Next timeout re-subscribes (action (i)).
	c.Take()
	s.OnTimeout(c)
	if msgs := c.Take(); len(msgs) != 1 {
		t.Fatalf("want re-subscribe, got %v", msgs)
	} else if _, ok := msgs[0].Body.(proto.Subscribe); !ok {
		t.Fatalf("want Subscribe, got %T", msgs[0].Body)
	}
}

// Action (iii): a stored neighbour circularly closer than the proposed one
// triggers a GetConfiguration on its behalf.
func TestActionIIIRequestsCloserNeighbor(t *testing.T) {
	s, c := newSub(10)
	s.OnMessage(c, sim.Message{Topic: tp, Body: proto.SetData{
		Pred: tup("001", 11), Label: label.MustParse("01"), Succ: tup("1", 12),
	}})
	// Simulate knowing an unrecorded node 99 at 0011 (3/16), closer to 1/4
	// than the database's 001 (1/8).
	s.linearize(c, tup("0011", 99))
	c.Take()
	s.OnMessage(c, sim.Message{Topic: tp, Body: proto.SetData{
		Pred: tup("001", 11), Label: label.MustParse("01"), Succ: tup("1", 12),
	}})
	var reqs []sim.NodeID
	for _, m := range c.Take() {
		if g, ok := m.Body.(proto.GetConfiguration); ok && m.To == supID {
			reqs = append(reqs, g.V)
		}
	}
	if len(reqs) != 1 || reqs[0] != 99 {
		t.Fatalf("action (iii) requests = %v, want [99]", reqs)
	}
}

func TestCheckCorrectsStaleLabel(t *testing.T) {
	s, c := newSub(10)
	s.OnMessage(c, sim.Message{Topic: tp, Body: proto.SetData{
		Pred: tup("001", 11), Label: label.MustParse("01"), Succ: tup("1", 12),
	}})
	c.Take()
	// Node 11 introduces itself but believes our label is 0011.
	s.OnMessage(c, sim.Message{From: 11, Topic: tp, Body: proto.Check{
		Sender: tup("001", 11), YourLabel: label.MustParse("0011"), Flag: proto.LIN,
	}})
	msgs := c.Take()
	if len(msgs) != 1 || msgs[0].To != 11 {
		t.Fatalf("msgs = %v", msgs)
	}
	in, ok := msgs[0].Body.(proto.Introduce)
	if !ok || in.C.L != label.MustParse("01") || in.C.Ref != 10 {
		t.Fatalf("correction = %v", msgs[0].Body)
	}
}

func TestCheckMatchingLabelActsAsIntroduction(t *testing.T) {
	s, c := newSub(10)
	s.OnMessage(c, sim.Message{Topic: tp, Body: proto.SetData{
		Label: label.MustParse("01"), Succ: tup("1", 12),
	}})
	c.Take()
	// A node at 001 introduces itself with our correct label: adopted left.
	s.OnMessage(c, sim.Message{From: 11, Topic: tp, Body: proto.Check{
		Sender: tup("001", 11), YourLabel: label.MustParse("01"), Flag: proto.LIN,
	}})
	if s.Left() != tup("001", 11) {
		t.Fatalf("left = %v", s.Left())
	}
}

func TestLinearizeAdoptAndDelegate(t *testing.T) {
	s, c := newSub(10)
	s.OnMessage(c, sim.Message{Topic: tp, Body: proto.SetData{
		Pred: tup("0001", 11), Label: label.MustParse("01"), Succ: tup("1", 12),
	}})
	c.Take()
	// 001 (1/8) lies between left 0001 (1/16) and us (1/4): adopt, delegate
	// the displaced 0001 to the new left neighbour.
	s.linearize(c, tup("001", 13))
	if s.Left() != tup("001", 13) {
		t.Fatalf("left = %v", s.Left())
	}
	msgs := c.Take()
	if len(msgs) != 1 || msgs[0].To != 13 {
		t.Fatalf("delegation = %v", msgs)
	}
	lin, ok := msgs[0].Body.(proto.Linearize)
	if !ok || lin.V != tup("0001", 11) || lin.From != tup("01", 10) {
		t.Fatalf("delegated %v", msgs[0].Body)
	}
	// 00001 (1/32) is farther than the current left: delegated toward it.
	s.linearize(c, tup("00001", 14))
	if s.Left() != tup("001", 13) {
		t.Fatal("left must not change")
	}
	msgs = c.Take()
	if len(msgs) != 1 || msgs[0].To != 13 {
		t.Fatalf("delegation = %v", msgs)
	}
}

func TestIntroduceToBottomNodeRefuses(t *testing.T) {
	s, c := newSub(10)
	s.OnMessage(c, sim.Message{From: 11, Topic: tp, Body: proto.Introduce{C: tup("01", 11), Flag: proto.LIN}})
	msgs := c.Take()
	if len(msgs) != 1 {
		t.Fatalf("msgs = %v", msgs)
	}
	rc, ok := msgs[0].Body.(proto.RemoveConnections)
	if !ok || rc.V != 10 || msgs[0].To != 11 {
		t.Fatalf("⊥ node must answer RemoveConnections(self), got %v", msgs[0])
	}
}

func TestRemoveConnectionsClearsSlots(t *testing.T) {
	s, c := newSub(10)
	s.OnMessage(c, sim.Message{Topic: tp, Body: proto.SetData{
		Pred: tup("001", 11), Label: label.MustParse("01"), Succ: tup("1", 12),
	}})
	s.OnMessage(c, sim.Message{From: 11, Topic: tp, Body: proto.RemoveConnections{V: 11}})
	if !s.Left().IsBottom() {
		t.Fatal("left not cleared")
	}
	if s.Right() != tup("1", 12) {
		t.Fatal("right must be untouched")
	}
}

func TestLeaveHandshake(t *testing.T) {
	s, c := newSub(10)
	s.OnMessage(c, sim.Message{Topic: tp, Body: proto.SetData{
		Pred: tup("001", 11), Label: label.MustParse("01"), Succ: tup("1", 12),
	}})
	c.Take()
	s.Leave(c)
	msgs := c.Take()
	if len(msgs) != 1 || msgs[0].To != supID {
		t.Fatalf("leave sent %v", msgs)
	}
	if _, ok := msgs[0].Body.(proto.Unsubscribe); !ok {
		t.Fatalf("want Unsubscribe, got %T", msgs[0].Body)
	}
	// While waiting, timeouts re-send the request.
	s.OnTimeout(c)
	if msgs := c.Take(); len(msgs) != 1 {
		t.Fatalf("retry = %v", msgs)
	}
	// Permission arrives: all neighbours are told to drop us.
	s.OnMessage(c, sim.Message{Topic: tp, Body: proto.SetData{}})
	if !s.Departed() {
		t.Fatal("not departed")
	}
	drops := map[sim.NodeID]bool{}
	for _, m := range c.Take() {
		if rc, ok := m.Body.(proto.RemoveConnections); ok && rc.V == 10 {
			drops[m.To] = true
		}
	}
	if !drops[11] || !drops[12] {
		t.Fatalf("RemoveConnections not sent to both neighbours: %v", drops)
	}
	// Departed instances are quiet on timeout.
	s.OnTimeout(c)
	if msgs := c.Take(); len(msgs) != 0 {
		t.Fatalf("departed node sent %v", msgs)
	}
}

// A SetData arriving while leaving must not resurrect the instance.
func TestLeaveIgnoresLateConfig(t *testing.T) {
	s, c := newSub(10)
	s.Leave(c)
	c.Take()
	s.OnMessage(c, sim.Message{Topic: tp, Body: proto.SetData{
		Pred: tup("001", 11), Label: label.MustParse("01"), Succ: tup("1", 12),
	}})
	if !s.Label().IsBottom() || s.Departed() {
		t.Fatal("late config must be ignored while leaving")
	}
}

func TestCircularNeighborsAtExtremes(t *testing.T) {
	s, c := newSub(10)
	s.OnMessage(c, sim.Message{Topic: tp, Body: proto.SetData{
		Pred: tup("11", 13), Label: label.MustParse("0"), Succ: tup("01", 12),
	}})
	c.Take()
	nb := s.circularNeighbors()
	if l, r := nb[left], nb[right]; l != tup("11", 13) || r != tup("01", 12) {
		t.Fatalf("circular neighbours = %v, %v", l, r)
	}
}

// Shortcut slots derive from the circular neighbours; stale slots are
// dropped and new ones appear as unknown (⊥ refs).
func TestShortcutSlotDerivation(t *testing.T) {
	s, c := newSub(10)
	// Node 01 (1/4) in SR(16): neighbours 0011 (3/16) and 0101 (5/16);
	// slots must be 001, 0, 011, 1 (the Section 3.2.2 running example).
	s.OnMessage(c, sim.Message{Topic: tp, Body: proto.SetData{
		Pred: tup("0011", 11), Label: label.MustParse("01"), Succ: tup("0101", 12),
	}})
	s.OnTimeout(c)
	c.Take()
	sc := s.Shortcuts()
	for _, want := range []string{"001", "0", "011", "1"} {
		if _, ok := sc[label.MustParse(want)]; !ok {
			t.Errorf("missing shortcut slot %s (have %v)", want, sc)
		}
	}
	if len(sc) != 4 {
		t.Errorf("slots = %v, want 4", sc)
	}
}

func TestIntroduceShortcutAdoptAndDisplace(t *testing.T) {
	s, c := newSub(10)
	s.OnMessage(c, sim.Message{Topic: tp, Body: proto.SetData{
		Pred: tup("0011", 11), Label: label.MustParse("01"), Succ: tup("0101", 12),
	}})
	s.OnTimeout(c)
	c.Take()
	// Adopt node 20 for slot 001.
	s.OnMessage(c, sim.Message{From: 99, Topic: tp, Body: proto.IntroduceShortcut{T: tup("001", 20)}})
	if s.Shortcuts()[label.MustParse("001")] != 20 {
		t.Fatalf("slot 001 = %v", s.Shortcuts())
	}
	// Replace with node 21: the displaced 20 is re-linearized (delegated
	// toward our left, since 001 < 01).
	s.OnMessage(c, sim.Message{From: 99, Topic: tp, Body: proto.IntroduceShortcut{T: tup("001", 21)}})
	if s.Shortcuts()[label.MustParse("001")] != 21 {
		t.Fatalf("slot 001 = %v", s.Shortcuts())
	}
	msgs := c.Take()
	found := false
	for _, m := range msgs {
		if lin, ok := m.Body.(proto.Linearize); ok && lin.V.Ref == 20 {
			found = true
		}
	}
	if !found {
		t.Fatalf("displaced occupant not re-linearized: %v", msgs)
	}
	// A label we hold no slot for is treated as a list candidate.
	s.OnMessage(c, sim.Message{From: 99, Topic: tp, Body: proto.IntroduceShortcut{T: tup("00001", 22)}})
	if _, ok := s.Shortcuts()[label.MustParse("00001")]; ok {
		t.Fatal("foreign slot must not be created")
	}
}

// A deepest-level node (no shortcuts) introduces its two ring neighbours
// to each other on Timeout — the bottom-up construction of Lemma 12.
func TestLevelPairIntroduction(t *testing.T) {
	s, c := newSub(10)
	s.OnMessage(c, sim.Message{Topic: tp, Body: proto.SetData{
		Pred: tup("001", 11), Label: label.MustParse("0011"), Succ: tup("01", 12),
	}})
	c.Take()
	s.OnTimeout(c)
	intros := map[sim.NodeID]proto.Tuple{}
	for _, m := range c.Take() {
		if is, ok := m.Body.(proto.IntroduceShortcut); ok {
			intros[m.To] = is.T
		}
	}
	if intros[11] != tup("01", 12) || intros[12] != tup("001", 11) {
		t.Fatalf("level-pair introductions = %v", intros)
	}
}

// The minimum's closure-edge announcement travels rightward (CYC routing).
func TestCycRouting(t *testing.T) {
	s, c := newSub(10)
	// Interior node 01 with left and right.
	s.OnMessage(c, sim.Message{Topic: tp, Body: proto.SetData{
		Pred: tup("001", 11), Label: label.MustParse("01"), Succ: tup("1", 12),
	}})
	c.Take()
	// A CYC candidate smaller than us travels toward the maximum (right).
	s.OnMessage(c, sim.Message{From: 11, Topic: tp, Body: proto.Introduce{C: tup("0", 13), Flag: proto.CYC}})
	msgs := c.Take()
	if len(msgs) != 1 || msgs[0].To != 12 {
		t.Fatalf("CYC routing = %v", msgs)
	}
	in, ok := msgs[0].Body.(proto.Introduce)
	if !ok || in.Flag != proto.CYC || in.C != tup("0", 13) {
		t.Fatalf("forwarded %v", msgs[0].Body)
	}
}

func TestCycAdoptedAtMaximum(t *testing.T) {
	s, c := newSub(10)
	s.OnMessage(c, sim.Message{Topic: tp, Body: proto.SetData{
		Pred: tup("01", 11), Label: label.MustParse("11"), Succ: proto.Tuple{},
	}})
	c.Take()
	s.OnMessage(c, sim.Message{From: 11, Topic: tp, Body: proto.Introduce{C: tup("0", 13), Flag: proto.CYC}})
	if s.Ring() != tup("0", 13) {
		t.Fatalf("ring = %v", s.Ring())
	}
	// A farther CYC candidate replaces it; the nearer is re-linearized.
	s.OnMessage(c, sim.Message{From: 11, Topic: tp, Body: proto.Introduce{C: tup("0", 9), Flag: proto.CYC}})
	if s.Ring().Ref != 13 && s.Ring().Ref != 9 {
		t.Fatalf("ring = %v", s.Ring())
	}
}

func TestDegreeCountsDistinctNeighbors(t *testing.T) {
	s, c := newSub(10)
	s.OnMessage(c, sim.Message{Topic: tp, Body: proto.SetData{
		Pred: tup("0011", 11), Label: label.MustParse("01"), Succ: tup("0101", 12),
	}})
	s.OnTimeout(c)
	c.Take()
	if got := s.Degree(); got != 2 { // slots exist but refs unknown
		t.Fatalf("degree = %d, want 2", got)
	}
	s.OnMessage(c, sim.Message{From: 99, Topic: tp, Body: proto.IntroduceShortcut{T: tup("001", 20)}})
	if got := s.Degree(); got != 3 {
		t.Fatalf("degree = %d, want 3", got)
	}
}

// Theorem 5's schedule: action (ii) fires with probability 1/(2^k·k²).
func TestProbeProbabilitySchedule(t *testing.T) {
	s, c := newSub(10)
	s.OnMessage(c, sim.Message{Topic: tp, Body: proto.SetData{
		Pred: tup("001", 11), Label: label.MustParse("01"), Succ: tup("1", 12),
	}})
	c.Take()
	const rounds = 200000
	probes := 0
	for i := 0; i < rounds; i++ {
		s.superviseProbe(c)
		probes += len(c.Take())
	}
	want := 1.0 / (4 * 4) // k = 2
	got := float64(probes) / rounds
	if got < want*0.8 || got > want*1.2 {
		t.Errorf("probe rate %.5f, want ≈ %.5f", got, want)
	}
}

// Action (iv): locally-minimal nodes without label l(0) probe with
// probability 1/2; the legitimate minimum (label 0) must not.
func TestActionIVTrigger(t *testing.T) {
	s, c := newSub(10)
	s.ForceState(label.MustParse("0101"), proto.Tuple{}, tup("011", 12), proto.Tuple{}, nil)
	probes := 0
	for i := 0; i < 1000; i++ {
		s.superviseProbe(c)
		probes += len(c.Take())
	}
	if probes < 400 || probes > 600 {
		t.Errorf("locally-minimal node probed %d/1000, want ≈ 500", probes)
	}
	// The legitimate label-0 node never uses action (iv)…
	s.ForceState(label.MustParse("0"), proto.Tuple{}, tup("01", 12), tup("11", 13), nil)
	probes = 0
	for i := 0; i < 1000; i++ {
		s.superviseProbe(c)
		probes += len(c.Take())
	}
	// …only action (ii) with k=1 → p = 1/2. It must not probe at rate 1.
	if probes < 400 || probes > 600 {
		t.Errorf("label-0 node probed %d/1000, want ≈ 500 (action (ii) k=1)", probes)
	}
	// Ablation: DisableActionIV silences the locally-minimal probe (the
	// node falls through to action (ii) with its long label).
	s.DisableActionIV = true
	s.ForceState(label.MustParse("0101"), proto.Tuple{}, tup("011", 12), proto.Tuple{}, nil)
	probes = 0
	for i := 0; i < 1000; i++ {
		s.superviseProbe(c)
		probes += len(c.Take())
	}
	if probes > 100 {
		t.Errorf("disabled action (iv) still probed %d/1000", probes)
	}
}

// Duplicate-label candidates are never adopted; they are referred to the
// supervisor (the zombie-reference guard).
func TestDuplicateLabelReferredToSupervisor(t *testing.T) {
	s, c := newSub(10)
	s.OnMessage(c, sim.Message{Topic: tp, Body: proto.SetData{
		Pred: tup("001", 11), Label: label.MustParse("01"), Succ: tup("1", 12),
	}})
	c.Take()
	s.linearize(c, tup("01", 66))
	if s.Left().Ref == 66 || s.Right().Ref == 66 {
		t.Fatal("duplicate-label candidate was adopted")
	}
	msgs := c.Take()
	if len(msgs) != 1 || msgs[0].To != supID {
		t.Fatalf("msgs = %v", msgs)
	}
	if g, ok := msgs[0].Body.(proto.GetConfiguration); !ok || g.V != 66 {
		t.Fatalf("referral = %v", msgs[0].Body)
	}
}

func TestFloodTargetsDeduped(t *testing.T) {
	s, c := newSub(10)
	// n = 2: the peer is simultaneously right and ring neighbour.
	s.OnMessage(c, sim.Message{Topic: tp, Body: proto.SetData{
		Pred: tup("1", 11), Label: label.MustParse("0"), Succ: tup("1", 11),
	}})
	targets := s.FloodTargets()
	if len(targets) != 1 || targets[0].Ref != 11 {
		t.Fatalf("targets = %v, want exactly [11]", targets)
	}
	if s.Degree() != 1 {
		t.Fatalf("degree = %d", s.Degree())
	}
}

func TestRemoveConnectionsClearsShortcutRefs(t *testing.T) {
	s, c := newSub(10)
	s.OnMessage(c, sim.Message{Topic: tp, Body: proto.SetData{
		Pred: tup("0011", 11), Label: label.MustParse("01"), Succ: tup("0101", 12),
	}})
	s.OnTimeout(c)
	s.OnMessage(c, sim.Message{From: 99, Topic: tp, Body: proto.IntroduceShortcut{T: tup("001", 20)}})
	c.Take()
	s.OnMessage(c, sim.Message{From: 20, Topic: tp, Body: proto.RemoveConnections{V: 20}})
	if got := s.Shortcuts()[label.MustParse("001")]; got != sim.None {
		t.Fatalf("shortcut ref not cleared: %d", got)
	}
	// The slot itself must survive (it is derived from our neighbours).
	if _, ok := s.Shortcuts()[label.MustParse("001")]; !ok {
		t.Fatal("derived slot removed")
	}
}

func TestCorrectStoredLabelClearsStaleShortcutSlots(t *testing.T) {
	s, c := newSub(10)
	s.OnMessage(c, sim.Message{Topic: tp, Body: proto.SetData{
		Pred: tup("0011", 11), Label: label.MustParse("01"), Succ: tup("0101", 12),
	}})
	s.OnTimeout(c)
	// Slot 001 holds node 20…
	s.OnMessage(c, sim.Message{From: 99, Topic: tp, Body: proto.IntroduceShortcut{T: tup("001", 20)}})
	c.Take()
	// …but node 20 actually carries label 00011: any introduction carrying
	// its true label must clear the stale slot — here a delegation from our
	// right neighbour, which we lie between it and 20.
	s.OnMessage(c, sim.Message{From: 12, Topic: tp, Body: proto.Linearize{V: tup("00011", 20), From: tup("0101", 12)}})
	if got := s.Shortcuts()[label.MustParse("001")]; got != sim.None {
		t.Fatalf("stale shortcut slot kept ref %d", got)
	}
}

func TestClientRejectsForeignTopicTraffic(t *testing.T) {
	cl := NewClient(10, supID, Options{})
	c := simtest.NewCtx(10)
	cl.OnMessage(c, sim.Message{From: 11, Topic: 9, Body: proto.Check{
		Sender: tup("01", 11), YourLabel: label.MustParse("1"), Flag: proto.LIN,
	}})
	msgs := c.Take()
	if len(msgs) != 1 {
		t.Fatalf("msgs = %v", msgs)
	}
	rc, ok := msgs[0].Body.(proto.RemoveConnections)
	if !ok || rc.V != 10 || msgs[0].To != 11 {
		t.Fatalf("foreign-topic traffic must be refused with RemoveConnections, got %v", msgs[0])
	}
	// Publication traffic for unknown topics is silently ignored.
	cl.OnMessage(c, sim.Message{From: 11, Topic: 9, Body: proto.PublishNew{}})
	if msgs := c.Take(); len(msgs) != 0 {
		t.Fatalf("pub traffic answered: %v", msgs)
	}
}

// A delegated candidate dies within one lap of a cycle closed by a stale
// label, with no timeout to break it. The captured 3-cycle: 71 (own label
// 1101) → 73 (11011) → 63 (111) → 71, candidate 69 at 1111. Node 63
// stores 71 under the stale label 11101, so from 63's side 71 lies past it
// toward the candidate, and the delegation returns to 71 — which used to
// send it round again forever. Now 71 drops it.
func TestLinearizeCycleDiesWithinOneLap(t *testing.T) {
	subs := map[sim.NodeID]*Subscriber{}
	ctxs := map[sim.NodeID]*simtest.Ctx{}
	for id, st := range map[sim.NodeID][3]proto.Tuple{
		71: {tup("1101", 71), {}, tup("11011", 73)},
		73: {tup("11011", 73), tup("1101", 71), tup("111", 63)},
		63: {tup("111", 63), tup("11011", 73), tup("11101", 71)},
	} {
		subs[id], ctxs[id] = newSub(id)
		subs[id].ForceState(st[0].L, st[1], st[2], proto.Tuple{}, nil)
	}
	subs[71].linearize(ctxs[71], tup("1111", 69))
	const k = 3
	var hops []sim.NodeID
	quiet := false
	for step := 0; step < 100 && !quiet; step++ {
		var msgs []sim.Message
		for _, id := range []sim.NodeID{63, 71, 73} {
			msgs = append(msgs, ctxs[id].Take()...)
		}
		quiet = len(msgs) == 0
		for _, m := range msgs {
			if lin, ok := m.Body.(proto.Linearize); ok && lin.V.Ref == 69 {
				hops = append(hops, m.To)
			}
			subs[m.To].OnMessage(ctxs[m.To], m)
		}
	}
	if !quiet || len(hops) > k {
		t.Fatalf("candidate made %d hops (%v…), want at most %d", len(hops), hops[:min(len(hops), 9)], k)
	}
	for id, s := range subs {
		if s.Right().Ref == 69 {
			t.Fatalf("node %d adopted the candidate past its stale neighbour", id)
		}
	}
}
