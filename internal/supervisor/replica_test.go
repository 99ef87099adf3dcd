package supervisor

import (
	"fmt"
	"math/rand"
	"testing"

	"sspubsub/internal/label"
	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
	"sspubsub/internal/simtest"
)

// replicaPair builds a two-supervisor plane at replication factor 1 and
// returns the replica-holding side (supervisor 2); supervisor 1 plays the
// owner in the tests, which drive messages into 2 directly.
func replicaSide(t *testing.T) *Supervisor {
	t.Helper()
	ids := []sim.NodeID{1, 2}
	s := New(2, fakeDetector{})
	s.JoinPlane(ids)
	s.SetReplicationFactor(1)
	return s
}

func delta(puts []proto.ReplicaEntry, dels []label.Label) sim.Message {
	return sim.Message{To: 2, From: 1, Topic: tp, Body: proto.ReplicaDelta{Put: puts, Del: dels}}
}

// TestReplicaDeltaIdempotent: applying the same delta batch twice leaves
// the replica's recomputed root digest (and entry count) unchanged — the
// property that makes the fire-and-forget stream safe under duplication.
func TestReplicaDeltaIdempotent(t *testing.T) {
	s := replicaSide(t)
	c := simtest.NewCtx(2)
	puts := []proto.ReplicaEntry{
		{L: label.FromIndex(0), V: 10},
		{L: label.FromIndex(1), V: 11},
		{L: label.FromIndex(2), V: 12},
	}
	d := delta(puts, []label.Label{label.FromIndex(5)})
	s.OnMessage(c, d)
	e1, h1, n1, ok := s.HeldReplicaDigest(tp)
	if !ok || n1 != 3 {
		t.Fatalf("first delta: held=%v count=%d", ok, n1)
	}
	s.OnMessage(c, d) // exact duplicate
	e2, h2, n2, _ := s.HeldReplicaDigest(tp)
	if e1 != e2 || h1 != h2 || n1 != n2 {
		t.Fatalf("duplicate delta changed the replica: (%d,%x,%d) vs (%d,%x,%d)", e1, h1, n1, e2, h2, n2)
	}
	// The incrementally maintained digest must agree with the recompute.
	s.mu.Lock()
	rep := s.replicas[tp]
	if rep.tuples.hash != rep.tuples.digest() {
		t.Errorf("incremental digest %x diverged from content digest %x", rep.tuples.hash, rep.tuples.digest())
	}
	s.mu.Unlock()
}

// TestReplicaSyncIdempotent: replaying a completed full-sync round
// rebuilds the identical replica — chunk duplication and round replays are
// no-ops on the root digest.
func TestReplicaSyncIdempotent(t *testing.T) {
	s := replicaSide(t)
	c := simtest.NewCtx(2)
	round := []sim.Message{
		{To: 2, From: 1, Topic: tp, Body: proto.ReplicaSync{
			Epoch: 1, Round: 1, Seq: 0, Chunks: 2,
			Entries: []proto.ReplicaEntry{{L: label.FromIndex(0), V: 10}, {L: label.FromIndex(1), V: 11}},
		}},
		{To: 2, From: 1, Topic: tp, Body: proto.ReplicaSync{
			Epoch: 1, Round: 1, Seq: 1, Chunks: 2,
			Entries: []proto.ReplicaEntry{{L: label.FromIndex(2), V: 12}},
		}},
	}
	for _, m := range round {
		s.OnMessage(c, m)
	}
	e1, h1, n1, ok := s.HeldReplicaDigest(tp)
	if !ok || n1 != 3 || e1 != 1 {
		t.Fatalf("sync round did not install: held=%v count=%d epoch=%d", ok, n1, e1)
	}
	// Scramble, then replay the same round: it must restore the state.
	s.CorruptReplica(tp, rand.New(rand.NewSource(4)))
	for _, m := range round {
		s.OnMessage(c, m)
	}
	e2, h2, n2, _ := s.HeldReplicaDigest(tp)
	if e1 != e2 || h1 != h2 || n1 != n2 {
		t.Fatalf("replayed sync diverged: (%d,%x,%d) vs (%d,%x,%d)", e1, h1, n1, e2, h2, n2)
	}
	// And a third, unprovoked replay is a pure no-op.
	for _, m := range round {
		s.OnMessage(c, m)
	}
	if _, h3, _, _ := s.HeldReplicaDigest(tp); h3 != h1 {
		t.Fatalf("idle replay changed the digest: %x vs %x", h3, h1)
	}
}

// eraSide builds the replica-holding supervisor 2 of a three-supervisor
// plane holding one entry of tp at era 3, and returns it with the
// supervisor its view names owner of tp and a third one that is neither.
func eraSide(t *testing.T) (s *Supervisor, c *simtest.Ctx, owner, deposed sim.NodeID) {
	t.Helper()
	s = New(2, fakeDetector{})
	s.JoinPlane([]sim.NodeID{1, 2, 3})
	s.SetReplicationFactor(1)
	owner = s.PlaneOwner(tp)
	for _, id := range []sim.NodeID{1, 3} {
		if id != owner {
			deposed = id
		}
	}
	c = simtest.NewCtx(2)
	s.OnMessage(c, sim.Message{To: 2, From: owner, Topic: tp, Body: proto.ReplicaDelta{
		Epoch: 3, Put: []proto.ReplicaEntry{{L: label.FromIndex(0), V: 10}},
	}})
	return s, c, owner, deposed
}

// TestReplicaDeltaOldEpochDropped: a deposed owner's stream (older era,
// not the supervisor the view names owner) must not perturb the replica.
func TestReplicaDeltaOldEpochDropped(t *testing.T) {
	s, c, _, deposed := eraSide(t)
	_, h1, n1, _ := s.HeldReplicaDigest(tp)
	s.OnMessage(c, sim.Message{To: 2, From: deposed, Topic: tp, Body: proto.ReplicaDelta{
		Epoch: 2, Put: []proto.ReplicaEntry{{L: label.FromIndex(0), V: 99}},
	}})
	s.OnMessage(c, sim.Message{To: 2, From: deposed, Topic: tp, Body: proto.ReplicaSync{
		Epoch: 2, Round: 1, Chunks: 1, Entries: []proto.ReplicaEntry{{L: label.FromIndex(0), V: 99}},
	}})
	e2, h2, n2, _ := s.HeldReplicaDigest(tp)
	if e2 != 3 || h2 != h1 || n2 != n1 {
		t.Fatalf("old-era traffic perturbed the replica: epoch=%d", e2)
	}
}

// TestReplicaAdoptsOwnersLowerEra: a replica era above the owner's — an
// arbitrary counter value, not evidence of a newer era — is given up for
// the era of the supervisor the replica holder's own view names owner,
// whether the owner's traffic arrives as a delta or as a multi-chunk sync.
func TestReplicaAdoptsOwnersLowerEra(t *testing.T) {
	s, c, owner, _ := eraSide(t)
	s.OnMessage(c, sim.Message{To: 2, From: owner, Topic: tp, Body: proto.ReplicaDelta{
		Epoch: 0, Put: []proto.ReplicaEntry{{L: label.FromIndex(1), V: 11}},
	}})
	if e, _, n, _ := s.HeldReplicaDigest(tp); e != 0 || n != 2 {
		t.Fatalf("owner's lower-era delta not adopted: epoch=%d entries=%d", e, n)
	}

	s, c, owner, _ = eraSide(t)
	for seq, e := range []proto.ReplicaEntry{{L: label.FromIndex(0), V: 10}, {L: label.FromIndex(1), V: 11}} {
		s.OnMessage(c, sim.Message{To: 2, From: owner, Topic: tp, Body: proto.ReplicaSync{
			Epoch: 0, Round: 1, Seq: uint64(seq), Chunks: 2, Entries: []proto.ReplicaEntry{e},
		}})
	}
	if e, _, n, _ := s.HeldReplicaDigest(tp); e != 0 || n != 2 {
		t.Fatalf("owner's lower-era sync not adopted: epoch=%d entries=%d", e, n)
	}
}

// TestGraceCeilingCapsExtension is the satellite-1 regression: a sustained
// in-grace Reregister stream re-arms the rebuild grace each tick, but the
// per-era budget (graceCeiling) must still force the grace window shut —
// before the cap, such a stream (chaos churn produces exactly it) deferred
// relabelling forever.
func TestGraceCeilingCapsExtension(t *testing.T) {
	s := New(1, fakeDetector{})
	s.JoinPlane([]sim.NodeID{1})
	c := simtest.NewCtx(1)
	for i := sim.NodeID(0); i < 4; i++ {
		sub(t, s, c, 10+i)
	}
	// Open an adoption-style grace window on the hosted database.
	s.mu.Lock()
	db := s.topics[tp]
	db.grace = rebuildGrace
	db.graceCeil = graceCeiling
	s.mu.Unlock()

	graceAt := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.topics[tp].grace
	}
	// Each tick a new survivor re-reports with a fresh, untaken label —
	// the exact stream that used to re-arm the grace indefinitely.
	closed := -1
	for tick := 0; tick < graceCeiling+2*rebuildGrace; tick++ {
		s.OnMessage(c, sim.Message{To: 1, From: 100 + sim.NodeID(tick), Topic: tp, Body: proto.Reregister{
			V:     100 + sim.NodeID(tick),
			Label: label.FromIndex(uint64(10 + tick)),
		}})
		s.OnTimeout(c)
		c.Take()
		if graceAt() == 0 {
			closed = tick
			break
		}
	}
	if closed < 0 {
		t.Fatalf("grace window never closed under a sustained Reregister stream (%d ticks)", graceCeiling+2*rebuildGrace)
	}
	// The stream must genuinely extend the window (the re-arm exists) …
	if closed < rebuildGrace {
		t.Errorf("grace closed after %d ticks — the Reregister stream never extended it (rebuildGrace=%d)", closed, rebuildGrace)
	}
	// … but the budget must bound the total extension.
	if closed >= graceCeiling+rebuildGrace {
		t.Errorf("grace stayed open %d ticks — past the per-era budget %d", closed, graceCeiling)
	}
}

// TestWarmAdoptionUsesShortGrace: a warm adoption seeds the database from
// the replica and opens only the short straggler grace with a reduced
// budget — not the full rebuild window.
func TestWarmAdoptionUsesShortGrace(t *testing.T) {
	det := fakeDetector{}
	ids := []sim.NodeID{1, 2}
	s := New(2, det)
	s.JoinPlane(ids)
	s.SetReplicationFactor(1)
	c := simtest.NewCtx(2)

	// Install a warm replica as the owner's stream would.
	s.OnMessage(c, sim.Message{To: 2, From: 1, Topic: tp, Body: proto.ReplicaDelta{
		Epoch: 0,
		Put: []proto.ReplicaEntry{
			{L: label.FromIndex(0), V: 10},
			{L: label.FromIndex(1), V: 11},
			{L: label.FromIndex(2), V: 12},
		},
	}})

	// Gossip tells supervisor 2 the topic exists (in the running system the
	// plane heartbeat does this every gossip period).
	s.OnMessage(c, sim.Message{To: 2, From: 1, Body: proto.PlaneGossip{
		Entries: []proto.TopicEpoch{{Topic: tp, Epoch: 0}},
	}})

	// The owner dies; the plane detects it and supervisor 2 adopts.
	det[1] = true
	for i := 0; i < 4 && !s.Hosts(tp); i++ {
		s.OnTimeout(c)
	}
	if !s.Hosts(tp) {
		t.Fatal("successor never adopted the topic")
	}
	if got := s.N(tp); got != 3 {
		t.Fatalf("adopted database has %d entries, want 3 (warm seed)", got)
	}
	s.mu.Lock()
	grace, ceil := s.topics[tp].grace, s.topics[tp].graceCeil
	s.mu.Unlock()
	if grace > warmGrace {
		t.Errorf("warm adoption opened grace %d, want ≤ %d", grace, warmGrace)
	}
	if ceil > rebuildGrace {
		t.Errorf("warm adoption budget %d, want ≤ %d", ceil, rebuildGrace)
	}
	// The announcement burst must address exactly the recorded subscribers.
	want := map[sim.NodeID]bool{10: true, 11: true, 12: true}
	for _, m := range c.Take() {
		if oa, ok := m.Body.(proto.OwnerAnnounce); ok {
			if oa.Owner != 2 {
				t.Errorf("announce names owner %d, want 2", oa.Owner)
			}
			delete(want, m.To)
		}
	}
	if len(want) != 0 {
		t.Errorf("recorded subscribers never announced to: %v", want)
	}
}

// TestOwnerDigestSelfHeals: a corrupted owner-side digest mismatches every
// replica, and each mismatch ships a full sync. The owner recomputes its
// digest from content on the replicas' cadence, so ReplicaSync traffic
// stops within two verification periods instead of recurring every gossip
// period forever.
func TestOwnerDigestSelfHeals(t *testing.T) {
	sups := planeSups(fakeDetector{}, 2)
	for _, s := range sups {
		s.SetReplicationFactor(1)
	}
	owner, replica := ownerOf(sups, tp), sim.NodeID(1)
	if owner == 1 {
		replica = 2
	}
	c := simtest.NewCtx(owner)
	for v := sim.NodeID(10); v < 60; v++ {
		sups[owner].OnMessage(c, sim.Message{To: owner, From: v, Topic: tp, Body: proto.Subscribe{V: v}})
	}
	// tick runs one Timeout on each supervisor and delivers the plane
	// traffic it causes, returning how many ReplicaSync messages were sent.
	tick := func() (syncs int) {
		var queue []sim.Message
		for _, id := range []sim.NodeID{1, 2} {
			ctx := simtest.NewCtx(id)
			sups[id].OnTimeout(ctx)
			queue = append(queue, ctx.Take()...)
		}
		for len(queue) > 0 {
			m := queue[0]
			queue = queue[1:]
			if _, ok := m.Body.(proto.ReplicaSync); ok {
				syncs++
			}
			if to, ok := sups[m.To]; ok {
				ctx := simtest.NewCtx(m.To)
				to.OnMessage(ctx, m)
				queue = append(queue, ctx.Take()...)
			}
		}
		return syncs
	}
	for i := 0; i < 2*replicaVerifyEvery; i++ {
		tick()
	}
	if _, h, _, ok := sups[replica].HeldReplicaDigest(tp); !ok || h != sups[owner].topics[tp].tuples.digest() {
		t.Fatal("replica did not converge before the fault")
	}
	// Corrupt just after a verification tick, so the loop has time to show.
	for sups[owner].plane.tick%replicaVerifyEvery != 1 {
		tick()
	}
	sups[owner].topics[tp].tuples.hash[0] ^= 1
	before := 0
	for i := 0; i < 2*replicaVerifyEvery; i++ {
		before += tick()
	}
	if before == 0 {
		t.Fatal("the corrupted owner digest provoked no sync — the test would be vacuous")
	}
	for i := 0; i < 200; i++ {
		if n := tick(); n != 0 {
			t.Fatalf("%d ReplicaSync sent %d ticks after the healing window", n, i+1)
		}
	}
}

// TestReplicaDropsBottomLabels: the replica accepts no entry whose label is
// ⊥ or malformed, from a delta or a sync. A ⊥ label used to reach warm
// adoption, whose label sort panicked on it ("label: Index of ⊥").
func TestReplicaDropsBottomLabels(t *testing.T) {
	det := fakeDetector{}
	s := New(2, det)
	s.JoinPlane([]sim.NodeID{1, 2})
	s.SetReplicationFactor(1)
	c := simtest.NewCtx(2)
	s.OnMessage(c, sim.Message{To: 2, From: 1, Topic: tp, Body: proto.ReplicaDelta{
		Put: []proto.ReplicaEntry{
			{L: label.Bottom, V: 10}, {L: label.FromIndex(0), V: 11}, {L: label.FromIndex(1), V: 12},
		},
	}})
	s.OnMessage(c, sim.Message{To: 2, From: 1, Body: proto.PlaneGossip{
		Entries: []proto.TopicEpoch{{Topic: tp, Epoch: 0}},
	}})
	det[1] = true
	for i := 0; i < 4 && !s.Hosts(tp); i++ {
		s.OnTimeout(c)
	}
	if !s.Hosts(tp) {
		t.Fatal("successor never adopted the topic")
	}
	if got := s.N(tp); got != 2 {
		t.Fatalf("adopted database has %d entries, want 2", got)
	}

	s = replicaSide(t)
	s.OnMessage(c, sim.Message{To: 2, From: 1, Topic: tp, Body: proto.ReplicaSync{
		Round: 1, Chunks: 1, Entries: []proto.ReplicaEntry{
			{L: label.Bottom, V: 10}, {L: label.New(2, 2), V: 11}, {L: label.FromIndex(0), V: 12},
		},
	}})
	if _, _, n, _ := s.HeldReplicaDigest(tp); n != 1 {
		t.Fatalf("sync: replica holds %d entries, want 1", n)
	}
}

// stream drives a topic owner and its one replica holder, a plane of
// {1, 2} at replication factor 1. Owner steps run directly; only the
// replication traffic they cause reaches the replica.
type stream struct {
	det            fakeDetector
	owner, replica *Supervisor
}

func newStream() *stream {
	det := fakeDetector{}
	sups := planeSups(det, 2)
	for _, s := range sups {
		s.SetReplicationFactor(1)
	}
	o := ownerOf(sups, tp)
	return &stream{det: det, owner: sups[o], replica: sups[3-o]}
}

// deliver hands the replica the ReplicaDelta and ReplicaSync messages among
// msgs; configurations, probes and gossip are dropped, so anti-entropy
// cannot repair what the stream got wrong.
func (st *stream) deliver(msgs []sim.Message) {
	c := simtest.NewCtx(st.replica.ID())
	for _, m := range msgs {
		switch m.Body.(type) {
		case proto.ReplicaDelta, proto.ReplicaSync:
			st.replica.OnMessage(c, m)
		}
	}
}

// request sends the owner a subscriber request from v and delivers what it
// ships.
func (st *stream) request(v sim.NodeID, body any) {
	c := simtest.NewCtx(st.owner.ID())
	st.owner.OnMessage(c, sim.Message{To: st.owner.ID(), From: v, Topic: tp, Body: body})
	st.deliver(c.Take())
}

// timeout runs the owner's whole Timeout — flush, then cull and refresh —
// and delivers what it ships.
func (st *stream) timeout() {
	c := simtest.NewCtx(st.owner.ID())
	st.owner.OnTimeout(c)
	st.deliver(c.Take())
}

// flush runs only the owner's replication tick, so nothing mutates the
// database after it, and delivers what it ships.
func (st *stream) flush() {
	c := simtest.NewCtx(st.owner.ID())
	st.owner.mu.Lock()
	st.owner.replicaTimeout(c)
	st.owner.mu.Unlock()
	st.deliver(c.Take())
}

// agree reports the owner's and the replica's directories, recomputed from
// content, when they differ.
func (st *stream) agree() string {
	oe, oh, on, _ := st.owner.DirectoryDigest(tp)
	re, rh, rn, _ := st.replica.HeldReplicaDigest(tp)
	if oe != re || oh != rh || on != rn {
		return fmt.Sprintf("owner %d entries (era %d, %x), replica %d (era %d, %x)", on, oe, oh, rn, re, rh)
	}
	return ""
}

// TestReplicaDeltaCarriesRePutLabel: a label deleted and put again within
// one flush interval must reach the replica as its final state. The delta
// used to be an op log applied Puts-then-Dels, which dropped l(1) → 12
// until the next digest probe.
func TestReplicaDeltaCarriesRePutLabel(t *testing.T) {
	st := newStream()
	st.request(10, proto.Subscribe{V: 10})
	st.request(11, proto.Subscribe{V: 11})
	st.timeout()
	st.request(11, proto.Unsubscribe{V: 11}) // the holder of l(n−1)
	st.request(12, proto.Subscribe{V: 12})   // takes l(1) again
	st.timeout()
	if msg := st.agree(); msg != "" {
		t.Fatal(msg)
	}
}

// FuzzReplicaStream runs random owner steps — subscribe, unsubscribe, a
// cull through the detector, the corruption injectors and the repair —
// interleaved with delivered flushes. After every flush the replica must
// equal the owner (era, digest and count), and both incremental digests
// must equal a recompute after every step. Each step is two bytes: an op
// and its argument.
func FuzzReplicaStream(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 6, 0, 1, 1, 0, 2, 6, 0}) // the re-put label
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 6, 0, 2, 1, 6, 0, 3, 40, 4, 0, 6, 0, 5, 0, 6, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 3, 0, 3, 97, 4, 1, 6, 0, 5, 0, 6, 0, 2, 2, 6, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		st := newStream()
		st.owner.CullPerTimeout = 64 // each cull screens the whole database
		for i := 0; i+1 < len(ops); i += 2 {
			arg := ops[i+1]
			v := sim.NodeID(10 + arg%16)
			switch ops[i] % 7 {
			case 0:
				st.request(v, proto.Subscribe{V: v})
			case 1:
				st.request(v, proto.Unsubscribe{V: v})
			case 2:
				st.det[v] = true
				st.timeout()
			case 3:
				// Cases (i), (ii) and (iv): a ⊥ subscriber, a duplicate, an
				// out-of-range label.
				id := sim.NodeID(arg >> 5)
				if id != sim.None {
					id += 9
				}
				st.owner.InjectRaw(tp, label.FromIndex(uint64(arg%32)), id)
			case 4:
				st.owner.DeleteLabel(tp, label.FromIndex(uint64(arg%32)))
			case 5:
				st.owner.RepairNow(tp)
			default:
				st.flush()
				if msg := st.agree(); msg != "" {
					t.Fatalf("step %d: after a flush, %s", i/2, msg)
				}
			}
			st.owner.mu.Lock()
			if db := st.owner.topics[tp]; db != nil && db.tuples.hash != db.tuples.digest() {
				t.Fatalf("step %d: owner's incremental digest diverged from its content", i/2)
			}
			st.owner.mu.Unlock()
			st.replica.mu.Lock()
			if rep := st.replica.replicas[tp]; rep != nil && rep.tuples.hash != rep.tuples.digest() {
				t.Fatalf("step %d: replica's incremental digest diverged from its content", i/2)
			}
			st.replica.mu.Unlock()
		}
	})
}
