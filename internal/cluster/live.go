package cluster

import (
	"fmt"
	"math/rand"
	"sort"

	"sspubsub/internal/core"
	"sspubsub/internal/hashdht"
	"sspubsub/internal/ordering"
	"sspubsub/internal/sim"
	"sspubsub/internal/supervisor"
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
	// Sup is the supervisor at SupervisorID — the whole plane on a classic
	// single-supervisor harness. Multi-supervisor call sites use Sups and
	// SupFor.
	Sup *supervisor.Supervisor
	// Sups holds every supervisor by node ID (crashed ones keep their
	// instance so a restart resumes with the stale state it crashed with).
	// SupIDs is the static plane, ascending from SupervisorID.
	Sups    map[sim.NodeID]*supervisor.Supervisor
	SupIDs  []sim.NodeID
	Clients map[sim.NodeID]*core.Client
	opts    core.Options
	nextID  sim.NodeID

	// downed holds the clients of crashed nodes, so a chaos restart can
	// bring them back with exactly the stale state they crashed with — the
	// "arbitrary initial state" the protocol self-stabilizes from.
	downed map[sim.NodeID]*core.Client
	// downedSups marks crashed, not-yet-restarted supervisors.
	downedSups map[sim.NodeID]bool
	// viewRing is the driver's ground-truth live-supervisor ring: it drives
	// client routing (SupervisorFor) and the expected-ownership oracle the
	// legitimacy checks compare the plane against.
	viewRing *hashdht.Ring
	// RepFactor is the plane's directory replication factor (0 when warm
	// failover is off); the replica predicates key off it.
	RepFactor int
}

// NewLive starts a single supervisor on the transport and returns the
// harness — the paper's reliable-supervisor configuration.
func NewLive(tr sim.Transport, clientOpts core.Options) *Live {
	return NewLiveN(tr, clientOpts, 1)
}

// NewLiveN starts a plane of `supervisors` supervisors (node IDs
// SupervisorID … SupervisorID+supervisors−1) sharding topics by consistent
// hashing, with crash-tolerant ownership when supervisors > 1. Client IDs
// follow the supervisor block.
func NewLiveN(tr sim.Transport, clientOpts core.Options, supervisors int) *Live {
	return NewLiveRF(tr, clientOpts, supervisors, 0)
}

// NewLiveRF is NewLiveN with directory replication: every topic owner
// streams its database to repFactor hashdht successors, so a supervisor
// crash is repaired from a warm replica instead of the Θ(n) Reregister
// rebuild (see internal/supervisor's replica layer).
func NewLiveRF(tr sim.Transport, clientOpts core.Options, supervisors, repFactor int) *Live {
	if supervisors < 1 {
		supervisors = 1
	}
	if repFactor < 0 || supervisors == 1 {
		repFactor = 0
	}
	ids := make([]sim.NodeID, supervisors)
	for i := range ids {
		ids[i] = SupervisorID + sim.NodeID(i)
	}
	viewRing := hashdht.NewRing(0)
	clientOpts.Supervisors = ids
	clientOpts.SupervisorFor = func(t sim.Topic) sim.NodeID {
		if id, ok := viewRing.OwnerTopic(t); ok {
			return id
		}
		return SupervisorID
	}
	drv, _ := tr.(Driver)
	l := &Live{
		Tr:         tr,
		Driver:     drv,
		Sups:       make(map[sim.NodeID]*supervisor.Supervisor, supervisors),
		SupIDs:     ids,
		Clients:    make(map[sim.NodeID]*core.Client),
		opts:       clientOpts,
		nextID:     SupervisorID + sim.NodeID(supervisors),
		downed:     make(map[sim.NodeID]*core.Client),
		downedSups: make(map[sim.NodeID]bool),
		viewRing:   viewRing,
		RepFactor:  repFactor,
	}
	for _, id := range ids {
		sup := supervisor.New(id, tr)
		if supervisors > 1 {
			sup.JoinPlane(ids)
			if repFactor > 0 {
				sup.SetReplicationFactor(repFactor)
			}
		}
		if clientOpts.DeliveryMode != ordering.BestEffort {
			sup.SetDefaultMode(clientOpts.DeliveryMode)
		}
		tr.AddNode(id, sup)
		l.Sups[id] = sup
		viewRing.Add(id)
	}
	l.Sup = l.Sups[SupervisorID]
	return l
}

// ---- supervisor plane driving ----

// CrashSupervisor fails a supervisor without warning; its instance is
// retained so RestartSupervisor can bring it back with the stale state it
// crashed with. It reports false for unknown or already-crashed IDs, and
// refuses to crash the last live supervisor — with the whole plane down
// no topic has an owner and nothing can converge, which is a driver
// mistake rather than a scenario.
func (l *Live) CrashSupervisor(id sim.NodeID) bool {
	if _, ok := l.Sups[id]; !ok || l.downedSups[id] {
		return false
	}
	if len(l.LiveSupervisors()) <= 1 {
		return false
	}
	l.Tr.Crash(id)
	l.downedSups[id] = true
	l.viewRing.Remove(id)
	return true
}

// RestartSupervisor re-registers a crashed supervisor with its stale
// state — an arbitrary initial plane state the ownership machinery must
// repair (epochs, hosting flags and the deposed database are all stale).
func (l *Live) RestartSupervisor(id sim.NodeID) bool {
	if !l.downedSups[id] {
		return false
	}
	delete(l.downedSups, id)
	l.Tr.AddNode(id, l.Sups[id])
	l.viewRing.Add(id)
	return true
}

// DownedSupervisors returns the crashed, not-yet-restarted supervisors,
// sorted.
func (l *Live) DownedSupervisors() []sim.NodeID {
	out := make([]sim.NodeID, 0, len(l.downedSups))
	for id := range l.downedSups {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IsSupervisor reports whether id belongs to the static supervisor plane
// (crashed or not) — the protect predicate for churn injectors that must
// only fault subscribers.
func (l *Live) IsSupervisor(id sim.NodeID) bool {
	_, ok := l.Sups[id]
	return ok
}

// LiveSupervisors returns the supervisors currently up, sorted.
func (l *Live) LiveSupervisors() []sim.NodeID {
	out := make([]sim.NodeID, 0, len(l.SupIDs))
	for _, id := range l.SupIDs {
		if !l.downedSups[id] {
			out = append(out, id)
		}
	}
	return out
}

// ExpectedOwner returns the supervisor that ought to own the topic: the
// consistent-hashing owner over the live supervisors. ok is false when
// every supervisor is down.
func (l *Live) ExpectedOwner(t sim.Topic) (sim.NodeID, bool) {
	return l.viewRing.OwnerTopic(t)
}

// SupFor returns the supervisor instance expected to own the topic (nil
// when the whole plane is down).
func (l *Live) SupFor(t sim.Topic) *supervisor.Supervisor {
	owner, ok := l.ExpectedOwner(t)
	if !ok {
		return nil
	}
	return l.Sups[owner]
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

// ExpectedReplicas returns the supervisors that ought to hold a warm
// replica of t's directory: the RepFactor hashdht successors of the
// expected owner on the live ring. Empty when replication is off or the
// plane is too small.
func (l *Live) ExpectedReplicas(t sim.Topic) []sim.NodeID {
	if l.RepFactor <= 0 || len(l.SupIDs) <= 1 {
		return nil
	}
	return l.viewRing.Successors(hashdht.TopicKey(t), l.RepFactor)
}

// ExplainReplication checks replica convergence for a topic: every
// expected replica holder's held digest matches the owner's directory
// digest (epoch, entry count and content hash). It returns "" when all
// replicas are warm, and trivially when replication is off.
func (l *Live) ExplainReplication(t sim.Topic) string {
	if l.RepFactor <= 0 || len(l.SupIDs) <= 1 {
		return ""
	}
	owner, ok := l.ExpectedOwner(t)
	if !ok {
		return "no live supervisor"
	}
	epoch, hash, count, ok := l.Sups[owner].DirectoryDigest(t)
	if !ok {
		return fmt.Sprintf("owner %d does not host topic %d", owner, t)
	}
	mode := l.Sups[owner].ModeFor(t)
	for _, id := range l.ExpectedReplicas(t) {
		if l.downedSups[id] {
			continue
		}
		rEpoch, rHash, rCount, held := l.Sups[id].HeldReplicaDigest(t)
		if !held {
			return fmt.Sprintf("supervisor %d holds no replica of topic %d", id, t)
		}
		if rEpoch != epoch {
			return fmt.Sprintf("replica %d at epoch %d, owner at epoch %d", id, rEpoch, epoch)
		}
		if rCount != count {
			return fmt.Sprintf("replica %d has %d entries, owner has %d", id, rCount, count)
		}
		if rHash != hash {
			return fmt.Sprintf("replica %d digest mismatch against owner %d", id, owner)
		}
		if rMode := l.Sups[id].ModeFor(t); rMode != mode {
			return fmt.Sprintf("replica %d records delivery mode %v, owner records %v", id, rMode, mode)
		}
	}
	return ""
}

// ReplicasConverged reports whether every expected replica of t matches
// the owner's directory digest.
func (l *Live) ReplicasConverged(t sim.Topic) bool { return l.ExplainReplication(t) == "" }

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

// JoinAll subscribes every client to the topic, in ID order.
func (l *Live) JoinAll(t sim.Topic) {
	ids := make([]sim.NodeID, 0, len(l.Clients))
	for id := range l.Clients {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
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
func (l *Live) Downed() []sim.NodeID {
	out := make([]sim.NodeID, 0, len(l.downed))
	for id := range l.downed {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Members returns the clients currently holding a live instance for t,
// sorted by ID.
func (l *Live) Members(t sim.Topic) []sim.NodeID {
	var out []sim.NodeID
	for id, cl := range l.Clients {
		if cl.Joined(t) {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SettledMembers returns the members with no unsubscribe in flight,
// sorted by ID. A publication that must provably reach the whole topic
// (the chaos engine's delivery wave) needs a publisher that will remain a
// member: with non-FIFO channels a leaver's departure grant can overtake
// its own publish command, silently dropping the publication.
func (l *Live) SettledMembers(t sim.Topic) []sim.NodeID {
	var out []sim.NodeID
	for id, cl := range l.Clients {
		if st, ok := cl.StateOf(t); ok && !st.Departed && !st.Leaving {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CorruptOrderingState scrambles the ordering state (sequence cursors,
// duplicate bitmaps, causal pending sets, publisher counters) of every live
// member of t — the chaos `corrupt-ordering` fault. Clients are visited in
// ID order so the scramble is deterministic given rng. A safe no-op on
// best-effort topics, which hold no ordering state.
func (l *Live) CorruptOrderingState(t sim.Topic, rng *rand.Rand) {
	ids := make([]sim.NodeID, 0, len(l.Clients))
	for id := range l.Clients {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		l.Clients[id].CorruptOrdering(t, rng)
	}
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

// AllHavePubs reports whether every live member knows at least k
// publications for t.
func (l *Live) AllHavePubs(t sim.Topic, k int) bool {
	for _, id := range l.Members(t) {
		if len(l.Clients[id].Publications(t)) < k {
			return false
		}
	}
	return true
}
