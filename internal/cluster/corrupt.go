package cluster

import (
	"math/rand"

	"sspubsub/internal/label"
	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
	"sspubsub/internal/trie"
)

// Substrate-generic corruption injectors (arbitrary initial states,
// Theorem 8). Each takes the random source driving the corruption
// explicitly — the chaos engine derives it from the scenario seed and
// replays an injection bit-for-bit; other drivers pass l.Rand().
// On the deterministic engine they may be called at any point between
// Run* calls; on a live substrate the caller must hold Freeze (no handler
// may be executing while explicit state is overwritten).

// CorruptSubscriberStates overwrites every member's explicit state
// with pseudo-random garbage: random labels (possibly duplicated, possibly
// malformed), neighbour pointers to random members (or self), random
// shortcut slots and a random publication-key clock. The result is still a weakly connected graph because
// every node keeps its read-only edge to the supervisor.
func (l *Live) CorruptSubscriberStates(t sim.Topic, rng *rand.Rand) {
	members := l.Members(t)
	randTuple := func() proto.Tuple {
		if rng.Intn(4) == 0 || len(members) == 0 {
			return proto.Tuple{}
		}
		id := members[rng.Intn(len(members))]
		return proto.Tuple{L: label.FromIndex(uint64(rng.Intn(4 * len(members)))), Ref: id}
	}
	for _, id := range members {
		in, ok := l.Clients[id].Instance(t)
		if !ok {
			continue
		}
		var lab label.Label
		switch rng.Intn(4) {
		case 0:
			lab = label.Bottom
		case 1:
			lab = label.FromIndex(uint64(rng.Intn(len(members))))
		case 2:
			lab = label.FromIndex(uint64(rng.Intn(8 * len(members))))
		default:
			lab = label.Label{Bits: rng.Uint64() & 3, Len: 2} // possibly malformed
		}
		sc := map[label.Label]sim.NodeID{}
		for i := rng.Intn(3); i > 0; i-- {
			tp := randTuple()
			if !tp.IsBottom() {
				sc[tp.L] = tp.Ref
			}
		}
		in.Sub.ForceState(lab, randTuple(), randTuple(), randTuple(), sc)
		in.Eng.CorruptClock(rng)
	}
}

// CorruptSupervisorDB injects all four database corruption cases of
// Section 3.1: a ⊥ tuple, a duplicated subscriber, a deleted label and an
// out-of-range label.
func (l *Live) CorruptSupervisorDB(t sim.Topic, rng *rand.Rand) {
	sup := l.SupFor(t) // the topic's owner holds the database of record
	if sup == nil {
		return
	}
	n := sup.N(t)
	if n == 0 {
		return
	}
	snap := sup.Snapshot(t)
	var someNode sim.NodeID
	for _, v := range snap { // deterministic: take the largest recorded ID
		if v > someNode {
			someNode = v
		}
	}
	sup.InjectRaw(t, label.FromIndex(uint64(n+1+rng.Intn(8))), sim.None)  // (i) ⊥ subscriber
	sup.InjectRaw(t, label.FromIndex(uint64(n+10+rng.Intn(8))), someNode) // (ii)+(iv) duplicate, out of range
	sup.DeleteLabel(t, label.FromIndex(uint64(rng.Intn(n))))              // (iii) missing label
}

// PartitionStates forces the members into k disjoint sorted chains with
// self-consistent but unrecorded labels — the "connected component with
// negligible probe probability" scenario of Section 3.2.1. The supervisor
// database is wiped for the topic. Deterministic: no randomness involved.
func (l *Live) PartitionStates(t sim.Topic, k int) {
	members := l.Members(t)
	sup := l.SupFor(t)
	if sup == nil {
		return
	}
	snap := sup.Snapshot(t)
	for lab := range snap {
		sup.DeleteLabel(t, lab)
	}
	if len(members) == 0 || k < 1 {
		return
	}
	for part := 0; part < k; part++ {
		var chain []sim.NodeID
		for i, id := range members {
			if i%k == part {
				chain = append(chain, id)
			}
		}
		for i, id := range chain {
			in, _ := l.Clients[id].Instance(t)
			// Self-consistent labels with long lengths → tiny probe
			// probability via action (ii).
			lab := label.FromIndex(uint64(1024 + part*4096 + i))
			var left, right proto.Tuple
			if i > 0 {
				left = proto.Tuple{L: label.FromIndex(uint64(1024 + part*4096 + i - 1)), Ref: chain[i-1]}
			}
			if i < len(chain)-1 {
				right = proto.Tuple{L: label.FromIndex(uint64(1024 + part*4096 + i + 1)), Ref: chain[i+1]}
			}
			in.Sub.ForceState(lab, left, right, proto.Tuple{}, nil)
		}
	}
}

// garbageMessage draws one corrupted protocol message aimed at a random
// member: stale tuples, wrong labels, bogus trie summaries. Garbage
// SetData travels with From ⊥: a forged member sender would be screened
// out by the subscriber's deposed-owner protection, while ⊥ models the
// paper's "arbitrary channel contents" and is processed like any
// configuration.
func garbageMessage(t sim.Topic, members []sim.NodeID, rng *rand.Rand) sim.Message {
	pick := func() sim.NodeID { return members[rng.Intn(len(members))] }
	to := pick()
	from := pick()
	var body any
	switch rng.Intn(6) {
	case 0:
		body = proto.Introduce{C: proto.Tuple{L: label.FromIndex(rng.Uint64() % 64), Ref: pick()}, Flag: proto.Flag(rng.Intn(2))}
	case 1:
		body = proto.Linearize{V: proto.Tuple{L: label.FromIndex(rng.Uint64() % 64), Ref: pick()},
			From: proto.Tuple{L: label.FromIndex(rng.Uint64() % 64), Ref: from}}
	case 2:
		body = proto.SetData{Pred: proto.Tuple{L: label.FromIndex(rng.Uint64() % 64), Ref: pick()},
			Label: label.FromIndex(rng.Uint64() % 64),
			Succ:  proto.Tuple{L: label.FromIndex(rng.Uint64() % 64), Ref: pick()}}
		from = sim.None
	case 3:
		body = proto.Check{Sender: proto.Tuple{L: label.FromIndex(rng.Uint64() % 64), Ref: pick()},
			YourLabel: label.FromIndex(rng.Uint64() % 64), Flag: proto.CYC}
	case 4:
		body = proto.IntroduceShortcut{T: proto.Tuple{L: label.FromIndex(rng.Uint64() % 64), Ref: pick()}}
	default:
		body = proto.CheckTrie{Sender: pick(), Nodes: []proto.NodeSummary{{Label: proto.Key{Bits: rng.Uint64(), Len: 7}}}}
	}
	return sim.Message{To: to, From: from, Topic: t, Body: body}
}

// SendGarbageMessages sends corrupted protocol messages to random members
// through the transport — the paper's arbitrary channel contents. The
// garbage travels like any other message on every substrate (over the wire
// codec on the networked transport), each copy with a fresh delay drawn
// from the current time, so a burst spreads over the following round.
func (l *Live) SendGarbageMessages(t sim.Topic, count int, rng *rand.Rand) {
	members := l.Members(t)
	if len(members) == 0 {
		return
	}
	for i := 0; i < count; i++ {
		l.Tr.Send(garbageMessage(t, members, rng))
	}
}

// CorruptTries inserts fabricated publications directly into up to count
// random members' tries, bypassing the publication protocol entirely: the
// tries diverge (different members know different sets) and only the
// anti-entropy machinery of Section 4.2 can reconcile them. The fabricated
// entries are well-formed keys of the trie's width with random clock
// buckets, so reconciliation converges on the union while the buckets
// test the clocks' clamp. It returns the payloads injected.
func (l *Live) CorruptTries(t sim.Topic, count int, rng *rand.Rand) []string {
	members := l.Members(t)
	if len(members) == 0 || count <= 0 {
		return nil
	}
	payloads := make([]string, 0, count)
	for i := 0; i < count; i++ {
		id := members[rng.Intn(len(members))]
		in, ok := l.Clients[id].Instance(t)
		if !ok {
			continue
		}
		payload := "corrupt-" + string(rune('a'+rng.Intn(26))) + string(rune('a'+rng.Intn(26))) + string(rune('a'+rng.Intn(26)))
		p := trie.NewPublication(in.Eng.Trie().KeyLen(), rng.Uint64(), id, payload)
		if in.Eng.Trie().Insert(p) {
			payloads = append(payloads, payload)
		}
	}
	return payloads
}
