package supervisor

import (
	"testing"

	"sspubsub/internal/label"
	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
	"sspubsub/internal/simtest"
)

const tp sim.Topic = 1

func sub(t *testing.T, s *Supervisor, c *simtest.Ctx, v sim.NodeID) proto.SetData {
	t.Helper()
	s.OnMessage(c, sim.Message{To: 1, From: v, Topic: tp, Body: proto.Subscribe{V: v}})
	msgs := c.Take()
	if len(msgs) != 1 {
		t.Fatalf("subscribe(%d): %d messages, want 1 (Theorem 7)", v, len(msgs))
	}
	if msgs[0].To != v {
		t.Fatalf("subscribe(%d): config sent to %d", v, msgs[0].To)
	}
	d, ok := msgs[0].Body.(proto.SetData)
	if !ok {
		t.Fatalf("subscribe(%d): body %T", v, msgs[0].Body)
	}
	return d
}

func TestSubscribeAssignsLabelsInOrder(t *testing.T) {
	s := New(1, nil)
	c := simtest.NewCtx(1)
	for i := sim.NodeID(0); i < 8; i++ {
		d := sub(t, s, c, 10+i)
		if want := label.FromIndex(uint64(i)); d.Label != want {
			t.Errorf("subscriber %d got label %s, want %s", i, d.Label, want)
		}
	}
	if s.N(tp) != 8 {
		t.Errorf("N = %d", s.N(tp))
	}
}

func TestSubscribeIdempotent(t *testing.T) {
	s := New(1, nil)
	c := simtest.NewCtx(1)
	d1 := sub(t, s, c, 42)
	d2 := sub(t, s, c, 42) // second subscribe: just re-sends the config
	if d1.Label != d2.Label || s.N(tp) != 1 {
		t.Errorf("duplicate subscribe changed the database: %v vs %v, n=%d", d1, d2, s.N(tp))
	}
}

func TestConfigurationNeighborsWrap(t *testing.T) {
	s := New(1, nil)
	c := simtest.NewCtx(1)
	for i := sim.NodeID(0); i < 4; i++ { // labels 0, 1, 01, 11 → r: 0, 1/2, 1/4, 3/4
		sub(t, s, c, 10+i)
	}
	// Node with label 0 (id 10): pred wraps to 3/4 (id 13), succ 1/4 (id 12).
	s.OnMessage(c, sim.Message{From: 10, Topic: tp, Body: proto.GetConfiguration{V: 10}})
	d := c.Take()[0].Body.(proto.SetData)
	if d.Pred.Ref != 13 || d.Pred.L != label.MustParse("11") {
		t.Errorf("pred = %v, want 11@13", d.Pred)
	}
	if d.Succ.Ref != 12 || d.Succ.L != label.MustParse("01") {
		t.Errorf("succ = %v, want 01@12", d.Succ)
	}
}

func TestGetConfigurationUnknown(t *testing.T) {
	s := New(1, nil)
	c := simtest.NewCtx(1)
	s.OnMessage(c, sim.Message{From: 99, Topic: tp, Body: proto.GetConfiguration{V: 99}})
	msgs := c.Take()
	if len(msgs) != 1 {
		t.Fatalf("%d messages", len(msgs))
	}
	d := msgs[0].Body.(proto.SetData)
	if !d.Label.IsBottom() || !d.Pred.IsBottom() || !d.Succ.IsBottom() {
		t.Errorf("unknown node must get the all-⊥ configuration, got %+v", d)
	}
}

func TestUnsubscribeMovesLastLabel(t *testing.T) {
	s := New(1, nil)
	c := simtest.NewCtx(1)
	for i := sim.NodeID(0); i < 5; i++ {
		sub(t, s, c, 10+i)
	}
	// Remove the node with label l(1) (id 11). The l(4) holder (id 14)
	// must take over label l(1).
	s.OnMessage(c, sim.Message{From: 11, Topic: tp, Body: proto.Unsubscribe{V: 11}})
	msgs := c.Take()
	if len(msgs) != 2 {
		t.Fatalf("unsubscribe sent %d messages, want 2 (Theorem 7)", len(msgs))
	}
	var toLeaver, toMoved *sim.Message
	for i := range msgs {
		switch msgs[i].To {
		case 11:
			toLeaver = &msgs[i]
		case 14:
			toMoved = &msgs[i]
		}
	}
	if toLeaver == nil || !toLeaver.Body.(proto.SetData).Label.IsBottom() {
		t.Error("leaver did not get the all-⊥ permission")
	}
	if toMoved == nil || toMoved.Body.(proto.SetData).Label != label.FromIndex(1) {
		t.Error("l(4) holder was not moved to l(1)")
	}
	if s.N(tp) != 4 || s.Corrupted(tp) {
		t.Errorf("db wrong after unsubscribe: n=%d corrupted=%v", s.N(tp), s.Corrupted(tp))
	}
	if s.LabelOf(tp, 14) != label.FromIndex(1) {
		t.Errorf("id 14 has label %s", s.LabelOf(tp, 14))
	}
}

func TestUnsubscribeLastLabelHolder(t *testing.T) {
	s := New(1, nil)
	c := simtest.NewCtx(1)
	for i := sim.NodeID(0); i < 3; i++ {
		sub(t, s, c, 10+i)
	}
	s.OnMessage(c, sim.Message{From: 12, Topic: tp, Body: proto.Unsubscribe{V: 12}})
	msgs := c.Take()
	if len(msgs) != 1 || msgs[0].To != 12 {
		t.Fatalf("unsubscribing the last label holder should send 1 message, got %d", len(msgs))
	}
	if s.N(tp) != 2 || s.Corrupted(tp) {
		t.Errorf("db: n=%d corrupted=%v", s.N(tp), s.Corrupted(tp))
	}
}

func TestUnsubscribeUnknownNode(t *testing.T) {
	s := New(1, nil)
	c := simtest.NewCtx(1)
	sub(t, s, c, 10)
	s.OnMessage(c, sim.Message{From: 55, Topic: tp, Body: proto.Unsubscribe{V: 55}})
	msgs := c.Take()
	if len(msgs) != 1 || !msgs[0].Body.(proto.SetData).Label.IsBottom() {
		t.Error("unknown leaver must still get the ⊥ permission so it can stop")
	}
	if s.N(tp) != 1 {
		t.Error("database must be unchanged")
	}
}

// The four database corruption cases of Section 3.1 are all repaired by
// the local actions (Lemma 9).
func TestCheckLabelsRepairsCorruption(t *testing.T) {
	s := New(1, nil)
	c := simtest.NewCtx(1)
	for i := sim.NodeID(0); i < 6; i++ {
		sub(t, s, c, 10+i)
	}
	// (i) tuple with ⊥ subscriber.
	s.InjectRaw(tp, label.FromIndex(20), sim.None)
	// (ii) duplicate subscriber under a second label.
	s.InjectRaw(tp, label.FromIndex(9), 12)
	// (iii) missing label.
	s.DeleteLabel(tp, label.FromIndex(2))
	// (iv) out-of-range label.
	s.InjectRaw(tp, label.FromIndex(33), 77)
	if !s.Corrupted(tp) {
		t.Fatal("injection failed")
	}
	s.RepairNow(tp)
	// CheckMultipleCopies runs on the next request touching node 12.
	s.OnMessage(c, sim.Message{From: 12, Topic: tp, Body: proto.GetConfiguration{V: 12}})
	s.RepairNow(tp)
	if s.Corrupted(tp) {
		t.Fatalf("db still corrupted: %v", s.Snapshot(tp))
	}
	// All original subscribers plus 77 must be present exactly once.
	snap := s.Snapshot(tp)
	seen := map[sim.NodeID]int{}
	for _, v := range snap {
		seen[v]++
	}
	for i := sim.NodeID(0); i < 6; i++ {
		if seen[10+i] != 1 {
			t.Errorf("subscriber %d appears %d times", 10+i, seen[10+i])
		}
	}
}

// A crashed subscriber is culled by the failure detector during Timeout
// and the database re-compacts (Section 3.3).
type fakeDetector map[sim.NodeID]bool

func (f fakeDetector) Suspects(id sim.NodeID) bool { return f[id] }

func TestTimeoutCullsCrashed(t *testing.T) {
	det := fakeDetector{}
	s := New(1, det)
	c := simtest.NewCtx(1)
	for i := sim.NodeID(0); i < 5; i++ {
		sub(t, s, c, 10+i)
	}
	det[12] = true
	for i := 0; i < 20; i++ {
		s.OnTimeout(c)
	}
	c.Take()
	if s.N(tp) != 4 {
		t.Fatalf("crashed node not culled: n=%d", s.N(tp))
	}
	if s.Corrupted(tp) {
		t.Fatalf("db corrupted after cull: %v", s.Snapshot(tp))
	}
	if s.LabelOf(tp, 12) != label.Bottom {
		t.Error("crashed node still recorded")
	}
}

// Timeout sends exactly one configuration per topic per call (the paper's
// round-robin refresh; supervisor maintenance is O(#topics) messages).
func TestTimeoutRoundRobin(t *testing.T) {
	s := New(1, nil)
	c := simtest.NewCtx(1)
	for i := sim.NodeID(0); i < 4; i++ {
		sub(t, s, c, 10+i)
	}
	got := map[sim.NodeID]int{}
	for i := 0; i < 8; i++ {
		s.OnTimeout(c)
		msgs := c.Take()
		if len(msgs) != 1 {
			t.Fatalf("timeout %d sent %d messages, want 1", i, len(msgs))
		}
		got[msgs[0].To]++
	}
	for i := sim.NodeID(0); i < 4; i++ {
		if got[10+i] != 2 {
			t.Errorf("node %d refreshed %d times in 8 timeouts, want 2", 10+i, got[10+i])
		}
	}
}

func TestTimeoutEmptyTopic(t *testing.T) {
	s := New(1, nil)
	c := simtest.NewCtx(1)
	s.OnMessage(c, sim.Message{From: 5, Topic: tp, Body: proto.GetConfiguration{V: 5}})
	c.Take()
	s.OnTimeout(c) // must not panic or send with an empty database
	if msgs := c.Take(); len(msgs) != 0 {
		t.Errorf("empty topic produced %d messages", len(msgs))
	}
}

func TestMultiTopicIndependence(t *testing.T) {
	s := New(1, nil)
	c := simtest.NewCtx(1)
	s.OnMessage(c, sim.Message{From: 10, Topic: 1, Body: proto.Subscribe{V: 10}})
	s.OnMessage(c, sim.Message{From: 10, Topic: 2, Body: proto.Subscribe{V: 10}})
	s.OnMessage(c, sim.Message{From: 11, Topic: 2, Body: proto.Subscribe{V: 11}})
	c.Take()
	if s.N(1) != 1 || s.N(2) != 2 {
		t.Errorf("topic sizes %d, %d", s.N(1), s.N(2))
	}
	if got := s.Topics(); len(got) != 2 {
		t.Errorf("Topics() = %v", got)
	}
	// One config per topic per timeout.
	s.OnTimeout(c)
	if msgs := c.Take(); len(msgs) != 2 {
		t.Errorf("timeout sent %d messages for 2 topics", len(msgs))
	}
}

// The failure-detector screen must sweep the whole database in
// ~n/CullPerTimeout Timeouts. Regression test for the shared-cursor bug
// the scale harness exposed: the screen window used to start at the
// config-refresh cursor, which advances one entry per Timeout, so
// consecutive windows overlapped in all but one entry and the sweep rate
// was one entry per interval no matter the budget — culling a spread-out
// crash burst took O(n) rounds even with CullPerTimeout ≫ 1.
func TestCullSweepRateScalesWithBudget(t *testing.T) {
	const n, budget = 256, 16
	det := fakeDetector{}
	s := New(1, det)
	s.CullPerTimeout = budget
	c := simtest.NewCtx(1)
	for i := sim.NodeID(0); i < n; i++ {
		sub(t, s, c, 1000+i)
	}
	// Crash every 16th subscriber: the dead entries are spread across the
	// label range, so a screen that doesn't advance past its window will
	// meet at most one per sweep.
	dead := 0
	for i := sim.NodeID(0); i < n; i += 16 {
		det[1000+i] = true
		dead++
	}
	// One full sweep is n/budget = 16 Timeouts; compaction moves entries
	// under the cursor, so allow a few extra sweeps for re-screens.
	limit := 4 * (n / budget)
	rounds := 0
	for ; rounds < limit && s.N(tp) != n-dead; rounds++ {
		s.OnTimeout(c)
		c.Take()
	}
	if s.N(tp) != n-dead {
		t.Fatalf("after %d timeouts with budget %d: n=%d, want %d (sweep not scaling with budget)",
			limit, budget, s.N(tp), n-dead)
	}
	if s.Corrupted(tp) {
		t.Fatalf("db corrupted after cull sweep")
	}
	t.Logf("culled %d spread-out entries in %d timeouts (budget %d, n %d)", dead, rounds, budget, n)
}

// A gap below n whose dirty mark was lost — corruption that skipped the
// flag — must still be repaired: the cull screen checks every entry it
// visits, so one sweep finds the gap and CheckLabels compacts it.
func TestTimeoutRepairsUnflaggedGap(t *testing.T) {
	s := New(1, nil)
	c := simtest.NewCtx(1)
	for i := sim.NodeID(0); i < 8; i++ {
		sub(t, s, c, 10+i)
	}
	s.mu.Lock()
	db := s.topics[tp]
	db.del(label.FromIndex(3))
	db.dirty = false
	s.mu.Unlock()
	if !s.Corrupted(tp) {
		t.Fatal("deleting l(3) left a valid database")
	}
	for i := 0; i < 1000; i++ {
		s.OnTimeout(c)
	}
	c.Take()
	if s.Corrupted(tp) {
		t.Fatalf("gap at l(3) not repaired after 1000 timeouts: %v", s.Snapshot(tp))
	}
}

// A reverse-index hint the database contradicts must neither be answered
// (labelOf confirms the hint against db) nor survive (the cull screen
// rebuilds it).
func TestStaleIDHintRepaired(t *testing.T) {
	s := New(1, nil)
	c := simtest.NewCtx(1)
	for i := sim.NodeID(0); i < 8; i++ {
		sub(t, s, c, 10+i)
	}
	s.mu.Lock()
	s.topics[tp].byID[12] = label.FromIndex(5) // db holds 12 at l(2), 15 at l(5)
	s.mu.Unlock()
	for i := 0; i < 1000; i++ {
		s.OnTimeout(c)
	}
	c.Take()
	if got, want := s.LabelOf(tp, 12), label.FromIndex(2); got != want {
		t.Fatalf("LabelOf(12) = %s after 1000 timeouts, want %s", got, want)
	}
	s.mu.Lock()
	hint := s.topics[tp].byID[12]
	s.mu.Unlock()
	if hint != label.FromIndex(2) {
		t.Fatalf("stale hint byID[12] = %s not rebuilt, want %s", hint, label.FromIndex(2))
	}
	if s.Corrupted(tp) {
		t.Fatalf("database corrupted: %v", s.Snapshot(tp))
	}
}

// A duplicate alone — corruption case (ii) with every label l(0 … n−1)
// present, so CheckLabels finds nothing to do — is repaired by the cull
// screen within two laps, even though the duplicated subscriber never
// sends a request (Algorithm 3 repairs duplicates only on request).
func TestScreenRepairsDuplicate(t *testing.T) {
	const n = 8
	s := New(1, nil)
	c := simtest.NewCtx(1)
	for i := sim.NodeID(0); i < n; i++ {
		sub(t, s, c, 10+i)
	}
	s.InjectRaw(tp, label.FromIndex(n), 12) // 12 also at l(2)
	if !s.Corrupted(tp) {
		t.Fatal("injected duplicate left a valid database")
	}
	for i := 0; i < 2*(n+1); i++ {
		s.OnTimeout(c)
		c.Take()
		if !s.Corrupted(tp) {
			t.Logf("duplicate repaired after %d timeouts", i+1)
			return
		}
	}
	t.Fatalf("duplicate of 12 survives two screen laps: %v", s.Snapshot(tp))
}
