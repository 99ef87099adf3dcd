package cluster

import (
	"fmt"
	"math/rand"
	"sort"

	"sspubsub/internal/core"
	"sspubsub/internal/proto"
	"sspubsub/internal/pubsub"
	"sspubsub/internal/sim"
)

// Live is the supervised publish-subscribe stack on an arbitrary
// sim.Transport: the deterministic engine (NewSim), the concurrent
// goroutine runtime or the networked transport. Scenarios written against
// it run unchanged on every substrate (the cross-substrate conformance
// tests do exactly that).
//
// All methods must be called from a single driver goroutine; the protocol
// nodes themselves run wherever the transport puts them. On a live
// transport the state-reading predicates (Converged, Explain, TriesEqual,
// AllHavePubs) see each node at a slightly different instant — evaluate
// them under Freeze (RunUntil does) when an exact cross-node snapshot is
// required.
type Live struct {
	Tr sim.Transport
	// Driver is Tr's stepping, fault and accounting surface. It is nil when
	// Tr is a bare decorated sim.Transport (a tracing wrapper): such a
	// harness hosts and commands nodes, and its owner drives the wrapped
	// substrate itself.
	Driver
	// Plane is the supervisor plane the clients report to.
	*Plane
	Clients map[sim.NodeID]*core.Client
	opts    core.Options
	nextID  sim.NodeID

	// downed holds the clients of crashed nodes, so a chaos restart can
	// bring them back with exactly the stale state they crashed with — the
	// "arbitrary initial state" the protocol self-stabilizes from.
	downed map[sim.NodeID]*core.Client
}

// New starts the supervisor plane opts describes on the transport and
// returns the harness around it. Client IDs follow the supervisor block
// unless opts.FirstClientID says otherwise.
func New(tr sim.Transport, opts Options) *Live {
	plane := NewPlane(tr, opts)
	drv, _ := tr.(Driver)
	first := opts.FirstClientID
	if first == sim.None {
		first = SupervisorID + sim.NodeID(len(plane.SupIDs))
	}
	return &Live{
		Tr:      tr,
		Driver:  drv,
		Plane:   plane,
		Clients: make(map[sim.NodeID]*core.Client),
		opts:    plane.ClientOptions(opts.ClientOpts),
		nextID:  first,
		downed:  make(map[sim.NodeID]*core.Client),
	}
}

// NewLive starts a single supervisor on the transport and returns the
// harness — the paper's reliable-supervisor configuration.
func NewLive(tr sim.Transport, clientOpts core.Options) *Live {
	return New(tr, Options{ClientOpts: clientOpts})
}

// ExplainOwnership checks the plane's ownership agreement for a topic: the
// expected owner (and only it) hosts the database, every member reports to
// it, and all epochs agree. It returns "" when ownership has converged.
func (l *Live) ExplainOwnership(t sim.Topic) string {
	owner, ok := l.ExpectedOwner(t)
	if !ok {
		return "no live supervisor"
	}
	members := l.Members(t)
	for _, id := range l.LiveSupervisors() {
		hosts := l.Sups[id].Hosts(t)
		if id != owner && hosts {
			return fmt.Sprintf("supervisor %d hosts topic %d owned by %d", id, t, owner)
		}
		if id == owner && !hosts && len(members) > 0 {
			return fmt.Sprintf("owner %d does not host topic %d (%d members)", id, t, len(members))
		}
	}
	epoch := l.Sups[owner].EpochOf(t)
	for _, id := range members {
		st, ok := l.Clients[id].StateOf(t)
		if !ok {
			return fmt.Sprintf("member %d has no instance", id)
		}
		if st.Sup != owner {
			return fmt.Sprintf("member %d reports to supervisor %d, owner is %d", id, st.Sup, owner)
		}
		if st.Epoch != epoch {
			return fmt.Sprintf("member %d at epoch %d, owner at epoch %d", id, st.Epoch, epoch)
		}
	}
	return ""
}

// AddClient creates and registers one client node, returning its ID.
func (l *Live) AddClient() sim.NodeID {
	id := l.nextID
	l.nextID++
	cl := core.NewClient(id, SupervisorID, l.opts)
	l.Clients[id] = cl
	l.Tr.AddNode(id, cl)
	return id
}

// AddClients creates n clients and returns their IDs in creation order.
func (l *Live) AddClients(n int) []sim.NodeID {
	out := make([]sim.NodeID, n)
	for i := range out {
		out[i] = l.AddClient()
	}
	return out
}

// Join subscribes a client to a topic (via its control channel).
func (l *Live) Join(id sim.NodeID, t sim.Topic) {
	l.Tr.Send(sim.Message{To: id, From: id, Topic: t, Body: core.JoinTopic{}})
}

// sortedIDs returns the IDs of the clients in m that satisfy keep (nil:
// all of them), ascending — map order must never reach a deterministic run.
func sortedIDs(m map[sim.NodeID]*core.Client, keep func(*core.Client) bool) []sim.NodeID {
	out := make([]sim.NodeID, 0, len(m))
	for id, cl := range m {
		if keep == nil || keep(cl) {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// JoinAll subscribes every client to the topic, in ID order.
func (l *Live) JoinAll(t sim.Topic) {
	for _, id := range sortedIDs(l.Clients, nil) {
		l.Join(id, t)
	}
}

// Leave starts the unsubscribe handshake for one client.
func (l *Live) Leave(id sim.NodeID, t sim.Topic) {
	l.Tr.Send(sim.Message{To: id, From: id, Topic: t, Body: core.LeaveTopic{}})
}

// Publish makes a client publish a payload on a topic.
func (l *Live) Publish(id sim.NodeID, t sim.Topic, payload string) {
	l.Tr.Send(sim.Message{To: id, From: id, Topic: t, Body: core.PublishCmd{Payload: payload}})
}

// Crash fails a client without warning. The client object is retained so
// Restart can bring the node back with its stale state.
func (l *Live) Crash(id sim.NodeID) {
	l.Tr.Crash(id)
	if cl, ok := l.Clients[id]; ok {
		l.downed[id] = cl
		delete(l.Clients, id)
	}
}

// Restart re-registers a previously crashed client on the transport with
// whatever state it had at crash time. It reports false when id was never
// crashed (or already restarted).
func (l *Live) Restart(id sim.NodeID) bool {
	cl, ok := l.downed[id]
	if !ok {
		return false
	}
	delete(l.downed, id)
	l.Clients[id] = cl
	l.Tr.AddNode(id, cl)
	return true
}

// Downed returns the IDs of crashed, not-yet-restarted clients, sorted.
func (l *Live) Downed() []sim.NodeID { return sortedIDs(l.downed, nil) }

// Members returns the clients currently holding a live instance for t,
// sorted by ID.
func (l *Live) Members(t sim.Topic) []sim.NodeID {
	return sortedIDs(l.Clients, func(cl *core.Client) bool { return cl.Joined(t) })
}

// SettledMembers returns the members with no unsubscribe in flight,
// sorted by ID. A publication that must provably reach the whole topic
// (the chaos engine's delivery wave) needs a publisher that will remain a
// member: with non-FIFO channels a leaver's departure grant can overtake
// its own publish command, silently dropping the publication.
func (l *Live) SettledMembers(t sim.Topic) []sim.NodeID {
	return sortedIDs(l.Clients, func(cl *core.Client) bool {
		st, ok := cl.StateOf(t)
		return ok && !st.Departed && !st.Leaving
	})
}

// CorruptOrderingState scrambles the ordering state (sequence cursors,
// causal pending sets, publisher counters) of every live
// member of t — the chaos `corrupt-ordering` fault. Clients are visited in
// ID order so the scramble is deterministic given rng. A safe no-op on
// best-effort topics, which hold no ordering state.
func (l *Live) CorruptOrderingState(t sim.Topic, rng *rand.Rand) {
	for _, id := range sortedIDs(l.Clients, nil) {
		l.Clients[id].CorruptOrdering(t, rng)
	}
}

// RuleCounts sums the subscriber rule counts for t over every client the
// harness created, crashed ones included, so the sums of the sending rules
// match the transport's per-type send counts. Read it under Freeze for a
// consistent cut on a live substrate; there is no reset — take differences.
func (l *Live) RuleCounts(t sim.Topic) [core.NumRules]uint64 {
	var sum [core.NumRules]uint64
	for _, m := range []map[sim.NodeID]*core.Client{l.Clients, l.downed} {
		for _, cl := range m {
			for r, n := range cl.RuleCounts(t) {
				sum[r] += n
			}
		}
	}
	return sum
}

// Converged reports whether topic t is in a legitimate state (see Explain
// for the predicate).
func (l *Live) Converged(t sim.Topic) bool { return l.Explain(t) == "" }

// Explain returns a human-readable description of the first legitimacy
// violation, or "" when converged. On a multi-supervisor plane the topic's
// expected owner is the database of record, and ownership agreement is
// part of legitimacy: a converged system has exactly one hosting
// supervisor, and every member reports to it at its epoch.
func (l *Live) Explain(t sim.Topic) string {
	sup := l.SupFor(t)
	if sup == nil {
		return "no live supervisor"
	}
	if sup.Corrupted(t) {
		return "supervisor database corrupted"
	}
	if len(l.SupIDs) > 1 {
		if v := l.ExplainOwnership(t); v != "" {
			return v
		}
	}
	states := make(map[sim.NodeID]core.State)
	for _, id := range l.Members(t) {
		st, ok := l.Clients[id].StateOf(t)
		if !ok {
			return fmt.Sprintf("member %d has no instance", id)
		}
		states[id] = st
	}
	return CheckLegitimacy(sup.Snapshot(t), states)
}

// ConvergedWith reports legitimacy with exactly n recorded members.
func (l *Live) ConvergedWith(t sim.Topic, n int) bool {
	sup := l.SupFor(t)
	return sup != nil && sup.N(t) == n && len(l.Members(t)) == n && l.Converged(t)
}

// TriesEqual reports whether all live members hold hash-identical tries.
func (l *Live) TriesEqual(t sim.Topic) bool {
	members := l.Members(t)
	if len(members) == 0 {
		return true
	}
	first := l.Clients[members[0]].TrieRootHash(t)
	for _, id := range members[1:] {
		if l.Clients[id].TrieRootHash(t) != first {
			return false
		}
	}
	return true
}

// FloodTree replays origin's forwarding tree for t (pubsub.Split) over the
// members' current states without sending anything: hits counts the
// copies each member would receive — a node forwards only its first, as
// the protocol does — and depth is the tree's height in hops. Call it
// under Freeze on a live substrate.
func (l *Live) FloodTree(t sim.Topic, origin sim.NodeID) (hits map[sim.NodeID]int, depth int) {
	type hop struct {
		id  sim.NodeID
		arc proto.Arc
		d   int
	}
	hits = make(map[sim.NodeID]int)
	queue := []hop{{id: origin}}
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		depth = max(depth, h.d)
		cl, ok := l.Clients[h.id]
		if !ok {
			continue
		}
		in, ok := cl.Instance(t)
		if !ok {
			continue
		}
		pubsub.Split(in.Sub.Label().Frac(), in.Sub.FloodTargets(), h.arc, func(to sim.NodeID, piece proto.Arc) {
			if hits[to]++; hits[to] == 1 && to != origin {
				queue = append(queue, hop{id: to, arc: piece, d: h.d + 1})
			}
		})
	}
	return hits, depth
}

// AllHavePubs reports whether every live member knows at least k
// publications for t.
func (l *Live) AllHavePubs(t sim.Topic, k int) bool {
	for _, id := range l.Members(t) {
		if l.Clients[id].PublicationCount(t) < k {
			return false
		}
	}
	return true
}
