package cluster

import (
	"fmt"

	"sspubsub/internal/core"
	"sspubsub/internal/hashdht"
	"sspubsub/internal/sim"
	"sspubsub/internal/supervisor"
)

// Plane is the supervisor plane as its driver sees it: the supervisors of
// a deployment (node IDs SupervisorID … SupervisorID+k−1, sharding topics
// by consistent hashing and crash-tolerant when k > 1), which of them the
// driver has crashed, and the ground-truth ring over the live ones. It is
// the one place a plane is assembled: Live embeds it, and the scale harness
// builds its supervisors through it.
//
// The ring drives client routing (ClientOptions) and is the
// expected-ownership oracle the legitimacy checks compare the supervisors'
// own view against. Like Live, a Plane is driven from one goroutine; only
// the routing function it hands to clients is safe for concurrent use.
type Plane struct {
	tr sim.Transport
	// Sup is the supervisor at SupervisorID — the whole plane of the paper's
	// single-supervisor configuration; nil on a remote plane.
	Sup *supervisor.Supervisor
	// Sups holds every hosted supervisor by node ID (crashed ones keep their
	// instance so a restart resumes with the stale state it crashed with).
	// It is empty on a remote plane. SupIDs is the static plane, ascending
	// from SupervisorID.
	Sups   map[sim.NodeID]*supervisor.Supervisor
	SupIDs []sim.NodeID
	// RepFactor is the plane's directory replication factor (0 when warm
	// failover is off); the replica predicates key off it.
	RepFactor int

	viewRing *hashdht.Ring
	crashed  map[sim.NodeID]bool
}

// NewPlane starts opts.Supervisors supervisors on the transport, every one
// with the replication factor the options name. With opts.Remote it starts
// none and only routes: the IDs are deterministic, so every process of a
// deployment sends a topic to the same supervisor.
func NewPlane(tr sim.Transport, opts Options) *Plane {
	k := max(opts.Supervisors, 1)
	rf := opts.ReplicationFactor
	if rf < 0 || k == 1 {
		rf = 0
	}
	p := &Plane{
		tr:        tr,
		Sups:      make(map[sim.NodeID]*supervisor.Supervisor, k),
		SupIDs:    make([]sim.NodeID, k),
		RepFactor: rf,
		viewRing:  hashdht.NewRing(),
		crashed:   make(map[sim.NodeID]bool),
	}
	for i := range p.SupIDs {
		p.SupIDs[i] = SupervisorID + sim.NodeID(i)
		p.viewRing.Add(p.SupIDs[i])
	}
	if opts.Remote {
		return p
	}
	for _, id := range p.SupIDs {
		sup := supervisor.New(id, tr)
		sup.JoinPlane(p.SupIDs)
		if rf > 0 {
			sup.SetReplicationFactor(rf)
		}
		tr.AddNode(id, sup)
		p.Sups[id] = sup
	}
	p.Sup = p.Sups[SupervisorID]
	return p
}

// ClientOptions returns o with the plane filled in: the static supervisor
// set and, on a sharded plane, the topic → live owner routing function.
func (p *Plane) ClientOptions(o core.Options) core.Options {
	o.Supervisors = p.SupIDs
	if ring := p.viewRing; len(p.SupIDs) > 1 {
		o.SupervisorFor = func(t sim.Topic) sim.NodeID {
			owner, _ := ring.Owner(t)
			return owner // ⊥ with the whole plane down: the client keeps its default
		}
	}
	return o
}

// CrashSupervisor fails a supervisor without warning; its instance is
// retained so RestartSupervisor can bring it back with the stale state it
// crashed with. It reports false for unknown or already-crashed IDs, and
// refuses to crash the last live supervisor — with the whole plane down
// no topic has an owner and nothing can converge, which is a driver
// mistake rather than a scenario.
func (p *Plane) CrashSupervisor(id sim.NodeID) bool {
	if _, ok := p.Sups[id]; !ok || p.crashed[id] {
		return false
	}
	if len(p.LiveSupervisors()) <= 1 {
		return false
	}
	p.tr.Crash(id)
	p.crashed[id] = true
	p.viewRing.Remove(id)
	return true
}

// RestartSupervisor re-registers a crashed supervisor with its stale
// state — an arbitrary initial plane state the ownership machinery must
// repair (epochs, hosting flags and the deposed database are all stale).
func (p *Plane) RestartSupervisor(id sim.NodeID) bool {
	if !p.crashed[id] {
		return false
	}
	delete(p.crashed, id)
	p.tr.AddNode(id, p.Sups[id])
	p.viewRing.Add(id)
	return true
}

// IsSupervisor reports whether id belongs to the static supervisor plane
// (crashed or not).
func (p *Plane) IsSupervisor(id sim.NodeID) bool {
	return id >= SupervisorID && id < SupervisorID+sim.NodeID(len(p.SupIDs))
}

// LiveSupervisors returns the supervisors currently up, sorted.
func (p *Plane) LiveSupervisors() []sim.NodeID {
	out := make([]sim.NodeID, 0, len(p.SupIDs))
	for _, id := range p.SupIDs {
		if !p.crashed[id] {
			out = append(out, id)
		}
	}
	return out
}

// DownedSupervisors returns the crashed, not-yet-restarted supervisors,
// sorted.
func (p *Plane) DownedSupervisors() []sim.NodeID {
	out := make([]sim.NodeID, 0, len(p.crashed))
	for _, id := range p.SupIDs {
		if p.crashed[id] {
			out = append(out, id)
		}
	}
	return out
}

// ExpectedOwner returns the supervisor that ought to own the topic: the
// consistent-hashing owner over the live supervisors. ok is false when
// every supervisor is down.
func (p *Plane) ExpectedOwner(t sim.Topic) (sim.NodeID, bool) {
	return p.viewRing.Owner(t)
}

// SupFor returns the supervisor instance expected to own the topic: nil
// when the whole plane is down, and on a remote plane.
func (p *Plane) SupFor(t sim.Topic) *supervisor.Supervisor {
	owner, _ := p.ExpectedOwner(t)
	return p.Sups[owner]
}

// ExpectedReplicas returns the supervisors that ought to hold a warm
// replica of t's directory: the RepFactor hashdht successors of the
// expected owner on the live ring. Empty when replication is off.
func (p *Plane) ExpectedReplicas(t sim.Topic) []sim.NodeID {
	return p.viewRing.Successors(t, p.RepFactor)
}

// ExplainReplication checks replica convergence for a topic: every
// expected replica holder's held digest matches the owner's directory
// digest (epoch, entry count and content hash). It returns "" when all
// replicas are warm, and trivially when replication is off.
func (p *Plane) ExplainReplication(t sim.Topic) string {
	if p.RepFactor <= 0 {
		return ""
	}
	owner := p.SupFor(t)
	if owner == nil {
		return "no live supervisor"
	}
	epoch, hash, count, ok := owner.DirectoryDigest(t)
	if !ok {
		return fmt.Sprintf("owner %d does not host topic %d", owner.ID(), t)
	}
	for _, id := range p.ExpectedReplicas(t) {
		rEpoch, rHash, rCount, held := p.Sups[id].HeldReplicaDigest(t)
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
			return fmt.Sprintf("replica %d digest mismatch against owner %d", id, owner.ID())
		}
	}
	return ""
}

// ReplicasConverged reports whether every expected replica of t matches
// the owner's directory digest.
func (p *Plane) ReplicasConverged(t sim.Topic) bool { return p.ExplainReplication(t) == "" }
