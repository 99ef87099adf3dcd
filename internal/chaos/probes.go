package chaos

import (
	"fmt"
	"sort"

	"sspubsub/internal/sim"
)

// ProbeNames lists the invariant probes in evaluation order.
var ProbeNames = []string{
	"ownership-convergence",
	"supervisor-db",
	"replica-consistency",
	"overlay-connectivity",
	"overlay-legitimacy",
	"trie-consistency",
	"delivery-completeness",
	"delivery-ordering",
}

// violation evaluates every invariant probe against the current (frozen)
// state and returns "probe: detail" for the first one that fails, or ""
// when the system is in a legal state. The probes are ordered from the
// coarsest invariant to the most exacting, so the reported violation names
// the most fundamental breakage.
//
// Callers on a live substrate must evaluate under the quiesce barrier
// (runUntil and freeze do).
func (e *env) violation() string {
	// Supervisor-plane agreement: the topic's expected owner (consistent
	// hashing over the live supervisors) — and only it — hosts the database,
	// every member reports to it, and every epoch agrees with the owner's. On
	// a single-supervisor plane this degenerates to "the supervisor hosts the
	// topic and every member reports to it at epoch 0", so it is checked
	// everywhere.
	if v := e.l.ExplainOwnership(topic); v != "" {
		return "ownership-convergence: " + v
	}
	if v := e.dbMembershipViolation(); v != "" {
		return "supervisor-db: " + v
	}
	// Warm-replica convergence: every expected replica holder's digest
	// (era, entry count, content hash) matches the owner's database — an era
	// above the owner's is as much a violation as one below. Trivially ""
	// with ReplicationFactor 0.
	if v := e.l.ExplainReplication(topic); v != "" {
		return "replica-consistency: " + v
	}
	if v := e.connectivityViolation(); v != "" {
		return "overlay-connectivity: " + v
	}
	if v := e.l.Explain(topic); v != "" {
		return "overlay-legitimacy: " + v
	}
	if v := e.trieViolation(); v != "" {
		return "trie-consistency: " + v
	}
	if v := e.deliveryViolation(); v != "" {
		return "delivery-completeness: " + v
	}
	if v := e.orderingViolation(); v != "" {
		return "delivery-ordering: " + v
	}
	return ""
}

// dbMembershipViolation checks supervisor database ↔ live membership
// agreement on the topic's current owner: the database is structurally
// valid (Section 3.1), records exactly the live members, and references no
// crashed or departed node.
func (e *env) dbMembershipViolation() string {
	sup := e.l.SupFor(topic)
	if sup == nil {
		return "no live supervisor"
	}
	if sup.Corrupted(topic) {
		return "database violates the validity conditions of Section 3.1"
	}
	members := e.l.Members(topic)
	if n := sup.N(topic); n != len(members) {
		return fmt.Sprintf("database records %d subscribers, %d live members", n, len(members))
	}
	live := make(map[sim.NodeID]bool, len(members))
	for _, id := range members {
		live[id] = true
	}
	for lab, v := range sup.Snapshot(topic) {
		if !live[v] {
			return fmt.Sprintf("database entry %s → %d references a non-member", lab, v)
		}
	}
	return ""
}

// connectivityViolation checks that the union graph of every member's
// overlay edges (left, right, ring closure, shortcuts), taken undirected,
// connects all members. Connectivity is the weakest property the topic
// tree needs for publications to reach everyone; it is implied by full
// legitimacy but fails with a far more useful message.
func (e *env) connectivityViolation() string {
	members := e.l.Members(topic)
	if len(members) <= 1 {
		return ""
	}
	adj := make(map[sim.NodeID][]sim.NodeID, len(members))
	inSet := make(map[sim.NodeID]bool, len(members))
	for _, id := range members {
		inSet[id] = true
	}
	link := func(a, b sim.NodeID) {
		if a != b && inSet[a] && inSet[b] {
			adj[a] = append(adj[a], b)
			adj[b] = append(adj[b], a)
		}
	}
	for _, id := range members {
		st, ok := e.l.Clients[id].StateOf(topic)
		if !ok {
			return fmt.Sprintf("member %d has no instance", id)
		}
		link(id, st.Left.Ref)
		link(id, st.Right.Ref)
		link(id, st.Ring.Ref)
		for _, ref := range st.Shortcuts {
			link(id, ref)
		}
	}
	seen := map[sim.NodeID]bool{members[0]: true}
	queue := []sim.NodeID{members[0]}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	if len(seen) != len(members) {
		return fmt.Sprintf("overlay graph splits: %d of %d members reachable from %d",
			len(seen), len(members), members[0])
	}
	return ""
}

// trieViolation checks each member's publication trie structurally
// (leaf counts, hashes, key placement) and requires all members to hold
// hash-identical tries — the converged state of the anti-entropy protocol
// of Section 4.2.
func (e *env) trieViolation() string {
	members := e.l.Members(topic)
	for _, id := range members {
		in, ok := e.l.Clients[id].Instance(topic)
		if !ok {
			return fmt.Sprintf("member %d has no instance", id)
		}
		if msg := in.Eng.Trie().CheckInvariants(); msg != "" {
			return fmt.Sprintf("member %d trie: %s", id, msg)
		}
	}
	if len(members) == 0 {
		return ""
	}
	first := e.l.Clients[members[0]].TrieRootHash(topic)
	for _, id := range members[1:] {
		if e.l.Clients[id].TrieRootHash(topic) != first {
			return fmt.Sprintf("node %d root hash differs from node %d", id, members[0])
		}
	}
	return ""
}

// deliveryViolation requires every member to know every publication of the
// post-fault delivery wave and, when traces are recorded, its application
// to have received each exactly once — knowing a publication is the
// paper's promise, receiving it once is the delivery modes'.
func (e *env) deliveryViolation() string {
	if len(e.wave) == 0 {
		return ""
	}
	if e.rec != nil {
		e.rec.mu.Lock()
		defer e.rec.mu.Unlock()
	}
	for _, id := range e.l.Members(topic) {
		known := make(map[wavePub]bool)
		for _, p := range e.l.Clients[id].Publications(topic) {
			known[wavePub{Payload: p.Payload, Origin: p.Origin}] = true
		}
		for _, w := range e.wave {
			if !known[w] {
				return fmt.Sprintf("node %d is missing wave publication %q from %d", id, w.Payload, w.Origin)
			}
		}
		if e.rec == nil {
			continue
		}
		times := make(map[wavePub]int, len(e.wave))
		for _, en := range e.rec.byNode[id] {
			times[wavePub{Payload: en.Payload, Origin: en.Origin}]++
		}
		for _, w := range e.wave {
			if n := times[w]; n != 1 {
				return fmt.Sprintf("node %d delivered wave publication %q from %d %d times", id, w.Payload, w.Origin, n)
			}
		}
	}
	return ""
}

// orderingViolation evaluates the delivery-ordering probe over the
// recorded per-node delivery traces ("" when the run records none). Three
// invariants, each restricted to unflagged deliveries — entries the ordered
// layer marked Recovered (anti-entropy repair) or Forced
// (self-stabilization release) are exempt by contract:
//
//  1. Per-publisher monotonicity: within one corruption epoch, a node's
//     unflagged sequenced deliveries from any single publisher carry
//     strictly increasing sequence numbers (which also rules out
//     duplicate delivery).
//  2. Causal coverage: when a delivery carries a causal barrier, every
//     barrier entry (origin o, seq s) must be preceded in that node's own
//     trace by a delivery from o with sequence ≥ s. Coverage spans
//     epochs — a delivery that happened never un-happens. A Recovered
//     delivery carries no sequence, but it did happen: it counts with
//     the sequence its publication carries in any other trace (its
//     publisher's own, at least), since the ordered layer moves the
//     cursor past it once the sequenced copy arrives (ordering.Known).
//  3. Wave order agreement: every pair of nodes agrees on the relative
//     delivery order of the single-publisher wave publications, and no
//     node delivers one twice. This is the only clause with teeth in
//     best-effort mode (sequence numbers are all zero there), which is
//     how the probe demonstrably fails when forced onto best-effort
//     traces.
func (e *env) orderingViolation() string {
	if e.rec == nil {
		return ""
	}
	e.rec.mu.Lock()
	defer e.rec.mu.Unlock()
	ids := make([]sim.NodeID, 0, len(e.rec.byNode))
	for id := range e.rec.byNode {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	waveIdx := make(map[wavePub]int, len(e.wave))
	for i, w := range e.wave {
		waveIdx[w] = i
	}
	waveOrders := make(map[sim.NodeID][]int, len(ids))
	seqOf := make(map[wavePub]uint64)
	for _, id := range ids {
		for _, en := range e.rec.byNode[id] {
			if en.Seq > 0 {
				seqOf[wavePub{Payload: en.Payload, Origin: en.Origin}] = en.Seq
			}
		}
	}

	type stream struct {
		epoch  int
		origin sim.NodeID
	}
	for _, id := range ids {
		last := make(map[stream]uint64)
		maxSeen := make(map[sim.NodeID]uint64)
		for _, en := range e.rec.byNode[id] {
			flagged := en.Recovered || en.Forced
			if !flagged && len(en.Barrier) > 0 {
				for _, b := range en.Barrier {
					if maxSeen[b.Origin] < b.Seq {
						return fmt.Sprintf(
							"node %d delivered %q before its causal predecessor (origin %d seq %d)",
							id, en.Payload, b.Origin, b.Seq)
					}
				}
			}
			seq := en.Seq
			if en.Recovered {
				seq = seqOf[wavePub{Payload: en.Payload, Origin: en.Origin}]
			}
			if maxSeen[en.Origin] < seq {
				maxSeen[en.Origin] = seq
			}
			if flagged {
				continue
			}
			if en.Seq > 0 {
				k := stream{epoch: en.Epoch, origin: en.Origin}
				if prev, ok := last[k]; ok && en.Seq <= prev {
					return fmt.Sprintf(
						"node %d delivered seq %d from publisher %d after seq %d (epoch %d)",
						id, en.Seq, en.Origin, prev, en.Epoch)
				}
				last[k] = en.Seq
			}
			if idx, ok := waveIdx[wavePub{Payload: en.Payload, Origin: en.Origin}]; ok {
				for _, seen := range waveOrders[id] {
					if seen == idx {
						return fmt.Sprintf("node %d delivered wave publication %q twice", id, en.Payload)
					}
				}
				waveOrders[id] = append(waveOrders[id], idx)
			}
		}
	}

	// Pairwise agreement on the common subsequence of wave deliveries.
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			a, b := waveOrders[ids[i]], waveOrders[ids[j]]
			pos := make(map[int]int, len(b))
			for p, idx := range b {
				pos[idx] = p
			}
			lastPos := -1
			for _, idx := range a {
				p, ok := pos[idx]
				if !ok {
					continue
				}
				if p < lastPos {
					return fmt.Sprintf(
						"nodes %d and %d disagree on the delivery order of wave publication %q",
						ids[i], ids[j], e.wave[idx].Payload)
				}
				lastPos = p
			}
		}
	}
	return ""
}

// wavePub identifies one delivery-wave publication: the payload together
// with the member that published it. Keying the probes on the pair — not
// the payload alone — prevents a publication from a wrong origin (a
// duplicated or fabricated copy under a different key) from counting as
// the wave's.
type wavePub struct {
	Payload string
	Origin  sim.NodeID
}
