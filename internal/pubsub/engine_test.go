package pubsub

import (
	"fmt"
	"reflect"
	"testing"

	"sspubsub/internal/label"
	"sspubsub/internal/ordering"
	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
	"sspubsub/internal/simtest"
	"sspubsub/internal/trie"
)

const tp sim.Topic = 1

// pair builds two engines u (id 10, label 0) and v (id 11, label 1) that
// are mutual ring neighbours with keyLen-bit keys (the Figure 2 setting).
func pair(keyLen uint8) (u, v *Engine, uc, vc *simtest.Ctx) {
	mk := func(self sim.NodeID, lab string, peer proto.Tuple) Config {
		return Config{
			Self:          self,
			Topic:         tp,
			KeyLen:        keyLen,
			RingNeighbors: func() []proto.Tuple { return []proto.Tuple{peer} },
			Position:      func() uint64 { return label.MustParse(lab).Frac() },
			FloodTargets:  func() []proto.Tuple { return []proto.Tuple{peer} },
		}
	}
	u = NewEngine(mk(10, "0", proto.Tuple{L: label.MustParse("1"), Ref: 11}))
	v = NewEngine(mk(11, "1", proto.Tuple{L: label.MustParse("0"), Ref: 10}))
	return u, v, simtest.NewCtx(10), simtest.NewCtx(11)
}

func fixedPub(key string) proto.Publication {
	return proto.Publication{Key: trie.ParseKey(key), Origin: 1, Payload: "P" + key}
}

// seed inserts publications with fixed keys directly (bypassing hashing, so
// tests can reproduce the paper's example keys).
func seed(e *Engine, keys ...string) {
	for _, k := range keys {
		e.insert(fixedPub(k))
	}
}

// deliver routes all captured messages to the right engine until quiet,
// returning a trace of "sender→receiver type" strings.
func deliver(u, v *Engine, uc, vc *simtest.Ctx) []string {
	var trace []string
	for {
		msgs := append(uc.Take(), vc.Take()...)
		if len(msgs) == 0 {
			return trace
		}
		for _, m := range msgs {
			trace = append(trace, fmt.Sprintf("%d→%d %T", m.From, m.To, m.Body))
			switch m.To {
			case 10:
				u.OnMessage(uc, m)
			case 11:
				v.OnMessage(vc, m)
			}
		}
	}
}

// Figure 2, first direction: u (P1..P4) probes v (P1..P3). v's reply names
// its nodes 0 and 100, both of which u already matches — the chain ends
// with no publication transfer.
func TestFigure2ProbeFromU(t *testing.T) {
	u, v, uc, vc := pair(3)
	seed(u, "000", "010", "100", "101")
	seed(v, "000", "010", "100")

	root, _ := u.Trie().RootSummary()
	v.OnMessage(vc, sim.Message{From: 10, To: 11, Topic: tp, Body: proto.CheckTrie{Sender: 10, Nodes: []proto.NodeSummary{root}}})
	trace := deliver(u, v, uc, vc)
	// v must answer with exactly one CheckTrie (children 0, 100), and u
	// must stay silent afterwards.
	if len(trace) != 1 || trace[0] != "11→10 proto.CheckTrie" {
		t.Fatalf("trace = %v", trace)
	}
	if u.Trie().Len() != 4 || v.Trie().Len() != 3 {
		t.Fatal("no publications may move in this direction")
	}
}

// Figure 2, second direction: v probes u; u answers with children (0, 10);
// v lacks node 10 and sends CheckAndPublish(v, (100,h(P3)), p=101); u
// delivers P4. After insertion both tries are hash-equal.
func TestFigure2ProbeFromV(t *testing.T) {
	u, v, uc, vc := pair(3)
	seed(u, "000", "010", "100", "101")
	seed(v, "000", "010", "100")

	root, _ := v.Trie().RootSummary()
	u.OnMessage(uc, sim.Message{From: 11, To: 10, Topic: tp, Body: proto.CheckTrie{Sender: 11, Nodes: []proto.NodeSummary{root}}})
	trace := deliver(u, v, uc, vc)
	want := []string{
		"10→11 proto.CheckTrie",       // u sends children (0, h..), (10, h..)
		"11→10 proto.CheckAndPublish", // v: node 10 missing → c = leaf 100, p = 101
		"10→11 proto.PublishBatch",    // u delivers P4 (prefix 101)
	}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace[%d] = %s, want %s", i, trace[i], want[i])
		}
	}
	if !u.Trie().Equal(v.Trie()) {
		t.Fatal("tries not equal after sync")
	}
	if p, ok := v.Trie().Get(trie.ParseKey("101")); !ok || p.Payload != "P101" {
		t.Fatal("P4 not delivered")
	}
}

// The CheckAndPublish prefix computation of the example: v finds c = leaf
// "100" (minimal extension of "10") and requests prefix 101 = 10 ◦ (1−0).
func TestCheckAndPublishPrefix(t *testing.T) {
	_, v, _, vc := pair(3)
	seed(v, "000", "010", "100")
	v.checkTrie(vc, 10, []proto.NodeSummary{{Label: trie.ParseKey("10"), Hash: [16]byte{1}}})
	msgs := vc.Take()
	if len(msgs) != 1 {
		t.Fatalf("msgs = %v", msgs)
	}
	cap, ok := msgs[0].Body.(proto.CheckAndPublish)
	if !ok {
		t.Fatalf("got %T", msgs[0].Body)
	}
	if trie.KeyString(cap.Prefix) != "101" {
		t.Errorf("prefix = %s, want 101", trie.KeyString(cap.Prefix))
	}
	if len(cap.Nodes) != 1 || trie.KeyString(cap.Nodes[0].Label) != "100" {
		t.Errorf("continuation node = %v, want leaf 100", cap.Nodes)
	}
}

// A receiver with an empty trie asks for everything under the probed label.
func TestEmptyTrieAsksForAll(t *testing.T) {
	u, v, uc, vc := pair(3)
	seed(u, "000", "010", "100", "101")
	root, _ := u.Trie().RootSummary()
	v.OnMessage(vc, sim.Message{From: 10, To: 11, Topic: tp, Body: proto.CheckTrie{Sender: 10, Nodes: []proto.NodeSummary{root}}})
	deliver(u, v, uc, vc)
	if !u.Trie().Equal(v.Trie()) {
		t.Fatalf("empty trie not filled: %d pubs", v.Trie().Len())
	}
}

// Disjoint publication sets merge completely through repeated probes in
// both directions (the potential-function argument of Theorem 17).
func TestDisjointSetsMerge(t *testing.T) {
	u, v, uc, vc := pair(5)
	seed(u, "00000", "00100", "11000", "01010")
	seed(v, "10000", "10111", "00111")
	for i := 0; i < 6; i++ {
		if root, ok := u.Trie().RootSummary(); ok {
			v.OnMessage(vc, sim.Message{From: 10, To: 11, Topic: tp, Body: proto.CheckTrie{Sender: 10, Nodes: []proto.NodeSummary{root}}})
		}
		deliver(u, v, uc, vc)
		if root, ok := v.Trie().RootSummary(); ok {
			u.OnMessage(uc, sim.Message{From: 11, To: 10, Topic: tp, Body: proto.CheckTrie{Sender: 11, Nodes: []proto.NodeSummary{root}}})
		}
		deliver(u, v, uc, vc)
		if u.Trie().Equal(v.Trie()) {
			break
		}
	}
	if !u.Trie().Equal(v.Trie()) || u.Trie().Len() != 7 {
		t.Fatalf("merge incomplete: u=%d v=%d", u.Trie().Len(), v.Trie().Len())
	}
}

// TestDigestRepairsOnRead: corrupt an inner digest and a leaf digest below
// it in one of two equal tries. Anti-entropy reads every digest it sends or
// compares fresh from the node's children (a leaf's from its key), so the
// probes that descend through the damage repair it: the tries are Equal
// again, every digest invariant holds, and no publication moved.
func TestDigestRepairsOnRead(t *testing.T) {
	u, v, uc, vc := pair(3)
	seed(u, "000", "010", "100", "101")
	seed(v, "000", "010", "100", "101")
	vt := v.Trie()
	inner := vt.Child(vt.Root(), 0) // node 0
	inner.Hash[0] ^= 0xFF
	vt.Child(inner, 0).Hash[5] ^= 0x01 // leaf 000
	if u.Trie().Equal(v.Trie()) || v.Trie().CheckInvariants() == "" {
		t.Fatal("the corruption must be visible")
	}
	for i := 0; i < 4 && !(u.Trie().Equal(v.Trie()) && v.Trie().CheckInvariants() == ""); i++ {
		u.OnTimeout(uc)
		v.OnTimeout(vc)
		deliver(u, v, uc, vc)
	}
	if !u.Trie().Equal(v.Trie()) {
		t.Fatal("anti-entropy did not restore Equal")
	}
	if msg := v.Trie().CheckInvariants(); msg != "" {
		t.Fatalf("digest left corrupted: %s", msg)
	}
	if u.Trie().Len() != 4 || v.Trie().Len() != 4 {
		t.Fatalf("repair moved publications: u=%d v=%d", u.Trie().Len(), v.Trie().Len())
	}
}

// Equal tries: a probe generates no response at all (Theorem 23).
func TestEqualTriesSilent(t *testing.T) {
	u, v, _, vc := pair(3)
	seed(u, "000", "111")
	seed(v, "000", "111")
	root, _ := u.Trie().RootSummary()
	v.OnMessage(vc, sim.Message{From: 10, To: 11, Topic: tp, Body: proto.CheckTrie{Sender: 10, Nodes: []proto.NodeSummary{root}}})
	if msgs := vc.Take(); len(msgs) != 0 {
		t.Fatalf("stable probe answered with %v", msgs)
	}
}

// TestPublishFloods: the origin stores its publication and sends its one
// neighbour one copy whose arc covers the neighbour but not the origin.
func TestPublishFloods(t *testing.T) {
	u, _, uc, _ := pair(8)
	p := u.Publish(uc, "hello")
	if !u.Trie().Has(p.Key) {
		t.Fatal("publisher must store its own publication")
	}
	msgs := uc.Take()
	if len(msgs) != 1 || msgs[0].To != 11 {
		t.Fatalf("flood = %v", msgs)
	}
	pn, ok := msgs[0].Body.(proto.PublishNew)
	if !ok || pn.Pub.Payload != "hello" || pn.Pub.Origin != 10 {
		t.Fatalf("flooded %v", msgs[0].Body)
	}
	if !pn.Arc.Contains(label.MustParse("1").Frac()) || pn.Arc.Contains(label.MustParse("0").Frac()) {
		t.Fatalf("arc %+v must cover v (label 1) and not u (label 0)", pn.Arc)
	}
}

// TestPublishNewForwardOnce: a node forwards a publication at most once —
// never a duplicate copy — and only inside its arc; a node that already
// learned the publication through anti-entropy still forwards the first
// tree copy, or everything below it in the tree would starve.
func TestPublishNewForwardOnce(t *testing.T) {
	_, v, _, vc := pair(8)
	p := trie.NewPublication(8, 0, 10, "x")
	whole := proto.PublishNew{Pub: p}
	// v's only neighbour u lies outside the arc v was handed.
	v.OnMessage(vc, sim.Message{From: 10, To: 11, Topic: tp, Body: proto.PublishNew{Pub: p,
		Arc: proto.Arc{Lo: label.MustParse("01").Frac(), Hi: label.MustParse("11").Frac()}}})
	if msgs := vc.Take(); len(msgs) != 0 {
		t.Fatalf("forwarded outside the arc: %v", msgs)
	}
	// A duplicate is dropped without forwarding, even with an arc covering u.
	v.OnMessage(vc, sim.Message{From: 10, To: 11, Topic: tp, Body: whole})
	if msgs := vc.Take(); len(msgs) != 0 || v.Trie().Len() != 1 {
		t.Fatalf("duplicate not dropped: %v, len=%d", msgs, v.Trie().Len())
	}

	// Learned through anti-entropy first: the tree copy is still forwarded,
	// exactly once.
	_, w, _, wc := pair(8)
	w.OnMessage(wc, sim.Message{From: 12, To: 11, Topic: tp, Body: proto.PublishBatch{Pubs: []proto.Publication{p}}})
	for i := 0; i < 2; i++ {
		w.OnMessage(wc, sim.Message{From: 12, To: 11, Topic: tp, Body: whole})
	}
	if msgs := wc.Take(); len(msgs) != 1 || msgs[0].To != 10 {
		t.Fatalf("tree copy after anti-entropy: forwarded %v, want once to u", msgs)
	}
}

// TestOnDeliverInvokedOncePerPublication: in every delivery mode, each
// distinct publication reaches the application exactly once — the trie is
// the one duplicate filter, so duplicate copies are dropped while distinct
// publications that share (origin, seq) after a publisher-counter
// regression are still delivered. Ticks past ForceAfter flush whatever the
// reorder buffer still holds.
func TestOnDeliverInvokedOncePerPublication(t *testing.T) {
	a := trie.NewPublication(64, 0, 99, "a")
	b := trie.NewPublication(64, 0, 99, "b")
	c := trie.NewPublication(64, 0, 99, "c")
	d := trie.NewPublication(64, 0, 99, "d")
	flood := func(p proto.Publication, seq uint64) proto.PublishNew { return proto.PublishNew{Pub: p, Seq: seq} }
	batch := func(ps ...proto.Publication) proto.PublishBatch { return proto.PublishBatch{Pubs: ps} }
	cases := []struct {
		name string
		in   []any
		pubs []proto.Publication
	}{
		{"duplicate flood copies", []any{flood(a, 1), flood(a, 1), flood(b, 2), flood(a, 1)}, []proto.Publication{a, b}},
		{"reused sequence number", []any{flood(a, 1), flood(b, 2), flood(c, 1)}, []proto.Publication{a, b, c}},
		{"shared sequence ahead of the cursor", []any{flood(c, 3), flood(d, 3), flood(a, 1), flood(b, 2)}, []proto.Publication{a, b, c, d}},
		{"anti-entropy copy", []any{batch(a, a), flood(a, 1), flood(b, 2), batch(a, b)}, []proto.Publication{a, b}},
	}
	for _, mode := range []ordering.Mode{ordering.BestEffort, ordering.FIFO, ordering.Causal} {
		for _, tc := range cases {
			t.Run(mode.String()+"/"+tc.name, func(t *testing.T) {
				got := map[string]int{}
				e := NewEngine(Config{
					Self: 10, Topic: tp, Mode: mode,
					RingNeighbors: func() []proto.Tuple { return nil },
					Position:      func() uint64 { return 0 },
					FloodTargets:  func() []proto.Tuple { return nil },
					OnDeliverMeta: func(p proto.Publication, _ ordering.Meta) { got[p.Payload]++ },
				})
				ctx := simtest.NewCtx(10)
				for _, body := range tc.in {
					e.OnMessage(ctx, sim.Message{From: 99, Topic: tp, Body: body})
				}
				for i := 0; i <= ordering.ForceAfter; i++ {
					e.OnTimeout(ctx)
				}
				want := map[string]int{}
				for _, p := range tc.pubs {
					want[p.Payload] = 1
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("deliveries per publication %v, want %v", got, want)
				}
			})
		}
	}
}

func TestTimeoutProbesRandomNeighbor(t *testing.T) {
	u, _, uc, _ := pair(8)
	u.Publish(uc, "x")
	uc.Take()
	u.OnTimeout(uc)
	msgs := uc.Take()
	if len(msgs) != 1 || msgs[0].To != 11 {
		t.Fatalf("probe = %v", msgs)
	}
	if _, ok := msgs[0].Body.(proto.CheckTrie); !ok {
		t.Fatalf("probe body %T", msgs[0].Body)
	}
}

func TestTimeoutSilentWhenEmptyOrIsolated(t *testing.T) {
	u, _, uc, _ := pair(8)
	u.OnTimeout(uc) // empty trie
	if msgs := uc.Take(); len(msgs) != 0 {
		t.Fatalf("empty trie probed: %v", msgs)
	}
	iso := NewEngine(Config{Self: 12, Topic: tp, KeyLen: 8,
		RingNeighbors: func() []proto.Tuple { return nil },
		Position:      func() uint64 { return 0 },
		FloodTargets:  func() []proto.Tuple { return nil }})
	ic := simtest.NewCtx(12)
	iso.Publish(ic, "y")
	ic.Take()
	iso.OnTimeout(ic)
	if msgs := ic.Take(); len(msgs) != 0 {
		t.Fatalf("isolated node probed: %v", msgs)
	}
}

func TestAblationSwitches(t *testing.T) {
	noFlood := NewEngine(Config{Self: 10, Topic: tp, KeyLen: 8,
		RingNeighbors:   func() []proto.Tuple { return []proto.Tuple{{Ref: 11}} },
		Position:        func() uint64 { return 0 },
		FloodTargets:    func() []proto.Tuple { return []proto.Tuple{{Ref: 11}} },
		DisableFlooding: true})
	c := simtest.NewCtx(10)
	noFlood.Publish(c, "x")
	if msgs := c.Take(); len(msgs) != 0 {
		t.Fatalf("flooding disabled but sent %v", msgs)
	}
	noAE := NewEngine(Config{Self: 10, Topic: tp, KeyLen: 8,
		RingNeighbors:      func() []proto.Tuple { return []proto.Tuple{{Ref: 11}} },
		Position:           func() uint64 { return 0 },
		FloodTargets:       func() []proto.Tuple { return []proto.Tuple{{Ref: 11}} },
		DisableAntiEntropy: true})
	noAE.Publish(c, "y")
	c.Take()
	noAE.OnTimeout(c)
	if msgs := c.Take(); len(msgs) != 0 {
		t.Fatalf("anti-entropy disabled but probed %v", msgs)
	}
}

func TestCorruptedKeyWidthRejected(t *testing.T) {
	_, v, _, vc := pair(3)
	bad := proto.Publication{Key: trie.ParseKey("10101010"), Origin: 5}
	v.OnMessage(vc, sim.Message{From: 5, Topic: tp, Body: proto.PublishBatch{Pubs: []proto.Publication{bad}}})
	if v.Trie().Len() != 0 {
		t.Fatal("foreign key width must be rejected")
	}
}

// TestFloodMetadataAcrossModes: what a flood copy's metadata (Seq, Barrier)
// means depends on the receiving engine's delivery mode. A best-effort
// engine ignores it; an ordered one delivers an unsequenced copy as
// Recovered, a sequenced one through the reorder buffer, and a sequenced
// copy of a publication anti-entropy already delivered only moves the
// publisher's cursor — so the next sequence is deliverable at once instead
// of held behind a gap.
func TestFloodMetadataAcrossModes(t *testing.T) {
	type delivery struct {
		payload string
		meta    ordering.Meta
	}
	p1 := trie.NewPublication(64, 0, 99, "p1")
	p2 := trie.NewPublication(64, 0, 99, "p2")
	flood := func(b proto.PublishNew) sim.Message { return sim.Message{From: 99, Topic: tp, Body: b} }
	for _, tc := range []struct {
		name string
		mode ordering.Mode
		in   []sim.Message
		want []delivery
	}{
		{"best-effort engine, sequenced frame", ordering.BestEffort,
			[]sim.Message{flood(proto.PublishNew{Pub: p1, Seq: 4, Barrier: []proto.BarrierEntry{{Origin: 7, Seq: 3}}})},
			[]delivery{{"p1", ordering.Meta{}}}},
		{"fifo engine, Seq 0", ordering.FIFO,
			[]sim.Message{flood(proto.PublishNew{Pub: p1})},
			[]delivery{{"p1", ordering.Meta{Recovered: true}}}},
		{"fifo engine, sequenced frame", ordering.FIFO,
			[]sim.Message{flood(proto.PublishNew{Pub: p1, Seq: 1})},
			[]delivery{{"p1", ordering.Meta{Seq: 1}}}},
		{"fifo engine, anti-entropy first", ordering.FIFO,
			[]sim.Message{
				{From: 98, Topic: tp, Body: proto.PublishBatch{Pubs: []proto.Publication{p1}}},
				flood(proto.PublishNew{Pub: p1, Seq: 1}),
				flood(proto.PublishNew{Pub: p2, Seq: 2}),
			},
			[]delivery{{"p1", ordering.Meta{Recovered: true}}, {"p2", ordering.Meta{Seq: 2}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got []delivery
			e := NewEngine(Config{
				Self: 10, Topic: tp, Mode: tc.mode,
				RingNeighbors: func() []proto.Tuple { return nil },
				Position:      func() uint64 { return 0 },
				FloodTargets:  func() []proto.Tuple { return nil },
				OnDeliverMeta: func(p proto.Publication, m ordering.Meta) { got = append(got, delivery{p.Payload, m}) },
			})
			c := simtest.NewCtx(10)
			for _, m := range tc.in {
				e.OnMessage(c, m)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("deliveries %+v, want %+v", got, tc.want)
			}
		})
	}
}

// The key clock advances once per timeout even with anti-entropy ablated,
// and a fresh publication is keyed under it.
func TestClockAdvancesPerTimeout(t *testing.T) {
	e := NewEngine(Config{Self: 10, Topic: tp, KeyLen: 64, DisableFlooding: true, DisableAntiEntropy: true})
	ctx := simtest.NewCtx(10)
	for i := 0; i < 3; i++ {
		e.OnTimeout(ctx)
	}
	if got := trie.Bucket(e.Publish(ctx, "x").Key); got != 3 {
		t.Fatalf("bucket after 3 timeouts = %d, want 3", got)
	}
}

// A stored key's bucket max-merges into the clock, clamped at clock + Δ;
// a bucket behind (in serial arithmetic mod 2^24, so also across a wrap)
// leaves it alone, and a key of a foreign width is never stored or merged.
func TestClockMergeClampedAndWrapping(t *testing.T) {
	const mod = 1 << 24
	for _, tc := range []struct {
		name          string
		clock, bucket uint64
		want          uint64
	}{
		{"ahead within clamp", 10, 12, 12},
		{"ahead past clamp", 10, 5000, 10 + clockClamp},
		{"behind", 10, 3, 10},
		{"equal", 10, 10, 10},
		{"ahead across the wrap", mod - 2, 1, mod + 1},
		{"behind across the wrap", 1, mod - 2, 1},
		{"half the range ahead counts as behind", 0, mod / 2, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(Config{Self: 10, Topic: tp, KeyLen: 64})
			e.clock = tc.clock
			e.insert(trie.NewPublication(64, tc.bucket, 99, "p"))
			if e.clock != tc.want {
				t.Fatalf("clock = %d, want %d", e.clock, tc.want)
			}
		})
	}
	e := NewEngine(Config{Self: 10, Topic: tp, KeyLen: 64})
	e.insert(trie.NewPublication(48, 7, 99, "narrow"))
	if e.clock != 0 || e.Trie().Len() != 0 {
		t.Fatalf("foreign-width key moved the clock to %d / was stored", e.clock)
	}
}
