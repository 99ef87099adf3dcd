// Supervisor plane: the crash-tolerant multi-supervisor layer.
//
// The paper's model has a single reliable supervisor. The plane removes
// that reliability assumption while keeping every per-topic algorithm
// untouched: topics are sharded over the supervisor set by consistent
// hashing (the Section 1.3 extension), and ownership itself becomes soft,
// self-stabilizing state:
//
//   - Peer monitoring. Every supervisor screens its peers against the
//     system-wide failure detector on each Timeout — the same machinery
//     Section 3.3 uses to cull crashed subscribers.
//   - Minimal migration. Suspicion transitions remove (or re-add) the peer
//     on the local consistent-hashing ring and reconcile every hosted or
//     known topic against the ring's owner: only topics whose owner
//     actually changed move, the consistent-hashing guarantee that makes
//     supervisor failover affordable.
//   - Database reconstruction. An adopting supervisor starts from an empty
//     database at a fresh ownership epoch; the subscribers themselves are
//     the database of record. Each survivor re-reports its (label, epoch)
//     through the Reregister handshake — triggered by an OwnerAnnounce from
//     a handing-over owner, or by the subscriber's own staleness probe when
//     its owner died silently — and the adopter re-admits it under its old
//     label while the rebuild grace holds off relabelling. The surviving
//     skip ring never has to be rebuilt.
//   - Epoch ordering. Ownership eras are totally ordered per topic by an
//     epoch counter carried in SetData, OwnerAnnounce and PlaneGossip.
//     Subscribers ignore third-party configurations from older eras, which
//     is exactly what makes a deposed-but-alive owner harmless; epoch
//     repair (jumping past any higher epoch a subscriber reports) makes
//     arbitrary initial epoch states converge too.
//
// All plane state — ring view, known epochs, even the hosting flags
// themselves — is recomputed or repairable from the detector
// and the overlay, so chaos-corrupting the directory is a recoverable
// fault like any other.
package supervisor

import (
	"sort"

	"sspubsub/internal/hashdht"
	"sspubsub/internal/label"
	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
)

const (
	// rebuildGrace is how many Timeouts a freshly adopted database waits
	// before CheckLabels may relabel: long enough for every survivor's
	// staleness probe (initial threshold staleProbeInit in package core)
	// plus the detector grace and a round trip, short enough that a
	// post-rebuild repair still converges quickly.
	rebuildGrace = 48
	// gossipEvery is the plane heartbeat period in Timeouts: how often a
	// supervisor pushes its hosted topics' epochs to its live peers and
	// runs the slow ownership reconcile that heals plane-state corruption
	// no suspicion transition will ever report.
	gossipEvery = 4
)

// plane is the per-supervisor view of the sharded ownership layer.
type plane struct {
	// peers is the static supervisor set (sorted, including self): the
	// commonly known gateways of the system, fixed at deployment like the
	// paper's single supervisor.
	peers []sim.NodeID
	// ring is the consistent-hashing ring over the peers this supervisor
	// currently believes alive; a topic's owner is recomputed from it on
	// every lookup.
	ring *hashdht.Ring
	// suspected is the last detector verdict per peer; transitions drive
	// ring membership and migration.
	suspected map[sim.NodeID]bool
	// known is the highest ownership epoch observed per topic (hosted or
	// gossiped, epoch 0 included) — the floor a future adoption must start
	// above, and with the hosted topics the set a suspicion transition
	// reconciles.
	known map[sim.Topic]uint64
	tick  uint64
}

// newPlane builds the plane over the static supervisor set peers.
func newPlane(peers []sim.NodeID) *plane {
	ps := append([]sim.NodeID(nil), peers...)
	sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
	ring := hashdht.NewRing()
	for _, p := range ps {
		ring.Add(p)
	}
	return &plane{
		peers:     ps,
		ring:      ring,
		suspected: make(map[sim.NodeID]bool),
		known:     make(map[sim.Topic]uint64),
	}
}

// JoinPlane replaces this supervisor's plane of one with a sharded,
// crash-tolerant supervisor plane. peers is the full static supervisor set
// (including this supervisor); every member must be given the same set.
// Call before the supervisor is registered on a transport. A plane of one
// — New's, or JoinPlane with this supervisor alone — owns every topic and
// runs no plane action: the paper's single reliable supervisor.
func (s *Supervisor) JoinPlane(peers []sim.NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.plane = newPlane(peers)
}

// viewOwner returns the supervisor this node currently believes owns the
// topic: the consistent-hashing owner over the unsuspected peers (itself,
// in a plane of one). Lock held.
func (s *Supervisor) viewOwner(t sim.Topic) sim.NodeID {
	owner, _ := s.plane.ring.Owner(t) // ⊥ on an empty ring
	return owner
}

// PlaneOwner reports which supervisor this node believes owns the topic
// (always itself in a plane of one).
func (s *Supervisor) PlaneOwner(t sim.Topic) sim.NodeID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.viewOwner(t)
}

// planeTimeout is the per-Timeout plane action: screen peers, migrate the
// topics a suspicion transition moved, and periodically reconcile + gossip.
// Lock held.
func (s *Supervisor) planeTimeout(ctx sim.Context) {
	p := s.plane
	if len(p.peers) <= 1 {
		return
	}
	p.tick++
	changed := false
	for _, peer := range p.peers {
		if peer == s.self {
			continue
		}
		sus := s.detector.Suspects(peer)
		if sus == p.suspected[peer] {
			continue
		}
		p.suspected[peer] = sus
		changed = true
		if sus {
			p.ring.Remove(peer)
		} else {
			p.ring.Add(peer)
		}
	}
	if changed {
		// Minimal migration: reconcileTopic acts only where hosting and
		// the ring's owner disagree, so only the topics the membership
		// change moved migrate; everything else stays put.
		s.reconcileAll(ctx)
	}
	s.replicaTimeout(ctx)
	if p.tick%gossipEvery != 0 {
		return
	}
	// Slow path: the same reconcile on the gossip cadence heals states no
	// transition reports — plane corruption, lost gossip, a topic learned
	// after its owner died.
	s.reconcileAll(ctx)
	s.gossip(ctx)
}

// reconcileAll reconciles every hosted or known topic, in topic order
// (determinism). Lock held.
func (s *Supervisor) reconcileAll(ctx sim.Context) {
	ts := make([]sim.Topic, 0, len(s.topics)+len(s.plane.known))
	for t := range s.plane.known {
		ts = append(ts, t)
	}
	for t := range s.topics {
		if _, ok := s.plane.known[t]; !ok {
			ts = append(ts, t)
		}
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	for _, t := range ts {
		s.reconcileTopic(ctx, t)
	}
}

// reconcileTopic drives one topic's hosting state toward the view: adopt
// what we should own and do not host, hand over what we host but should
// not own. Lock held.
func (s *Supervisor) reconcileTopic(ctx sim.Context, t sim.Topic) {
	owner := s.viewOwner(t)
	db, hosting := s.topics[t]
	switch {
	case owner == s.self && !hosting:
		s.adopt(ctx, t)
	case owner != s.self && hosting:
		s.handover(ctx, t, db, owner)
	}
}

// adopt starts hosting a topic at a fresh ownership epoch. With a warm,
// current replica of the topic's directory (replica.go) the new database
// is seeded from it and the adopter announces itself to every recorded
// subscriber immediately — the subscribers re-home in one round trip and
// keep their labels, so failover cost no longer scales with the
// subscriber count. Without one (replication off, replica stale or
// absent) the era opens with an empty database under the full rebuild
// grace and the subscribers re-populate it through the Reregister
// handshake, as before. Either way the grace budget graceCeil caps how
// long in-grace Reregisters can keep relabelling deferred. Lock held.
func (s *Supervisor) adopt(ctx sim.Context, t sim.Topic) {
	p := s.plane
	epoch := p.known[t] + 1
	db := newTopicDB()
	db.epoch = epoch
	db.track = s.repFactor > 0
	db.grace = rebuildGrace
	db.graceCeil = graceCeiling
	if rep := s.replicas[t]; s.warmUsable(rep, t) {
		db.seedFromReplica(rep)
		// A short grace still covers stragglers, and one post-grace
		// CheckLabels pass verifies compactness in case the replica missed
		// the owner's last few mutations.
		db.grace = warmGrace
		db.graceCeil = rebuildGrace
		db.dirty = true
		delete(s.replicas, t)
		db.idx.walk(func(_ label.Label, id sim.NodeID) {
			if id != sim.None && id != s.self {
				ctx.Send(id, t, proto.OwnerAnnounce{Owner: s.self, Epoch: epoch})
			}
		})
	}
	s.topics[t] = db
	p.known[t] = epoch
}

// handover yields a hosted topic to its rightful owner: every recorded
// subscriber is pointed at the successor (which re-registers it under its
// current label), the successor is told the epoch floor, and the local
// database is dropped. Lock held.
func (s *Supervisor) handover(ctx sim.Context, t sim.Topic, db *topicDB, owner sim.NodeID) {
	next := db.epoch + 1
	if owner != sim.None {
		db.idx.walk(func(_ label.Label, id sim.NodeID) {
			if id != sim.None && id != s.self {
				ctx.Send(id, t, proto.OwnerAnnounce{Owner: owner, Epoch: next})
			}
		})
		ctx.Send(owner, t, proto.PlaneGossip{Entries: []proto.TopicEpoch{{Topic: t, Epoch: next}}})
	}
	delete(s.topics, t)
	if next > s.plane.known[t] {
		s.plane.known[t] = next
	}
}

// gossip pushes the hosted topics' epochs to every live peer. Lock held.
func (s *Supervisor) gossip(ctx sim.Context) {
	p := s.plane
	if len(s.topics) == 0 {
		return
	}
	hosted := make([]sim.Topic, 0, len(s.topics))
	for t := range s.topics {
		hosted = append(hosted, t)
	}
	sort.Slice(hosted, func(i, j int) bool { return hosted[i] < hosted[j] })
	entries := make([]proto.TopicEpoch, len(hosted))
	for i, t := range hosted {
		entries[i] = proto.TopicEpoch{Topic: t, Epoch: s.topics[t].epoch}
	}
	for _, peer := range p.peers {
		if peer == s.self || p.suspected[peer] {
			continue
		}
		ctx.Send(peer, 0, proto.PlaneGossip{Entries: entries})
	}
}

// redirectIfNotOwner answers a request for a topic this supervisor does
// not own with the owner it believes in, and reports whether it did. Lock
// held.
func (s *Supervisor) redirectIfNotOwner(ctx sim.Context, t sim.Topic, v sim.NodeID) bool {
	owner := s.viewOwner(t)
	if owner == s.self || owner == sim.None {
		return false
	}
	if v != sim.None && v != s.self {
		ctx.Send(v, t, proto.OwnerAnnounce{Owner: owner, Epoch: s.plane.known[t]})
	}
	return true
}

// reregister handles the subscriber half of the WhoSupervises handshake.
// If this supervisor owns the topic it re-admits the subscriber —
// preserving a well-formed, unclaimed reported label, the soft-state
// database reconstruction — and repairs its epoch past any newer era the
// subscriber has witnessed. Otherwise it redirects. Lock held.
func (s *Supervisor) reregister(ctx sim.Context, t sim.Topic, b proto.Reregister) {
	v := b.V
	if v == sim.None || v == s.self {
		return
	}
	if s.redirectIfNotOwner(ctx, t, v) {
		return
	}
	db, hosting := s.topics[t]
	if !hosting {
		// First contact for a topic we own but never adopted (our hosting
		// flag was lost, or the topic's owner died before we ever saw it):
		// this Reregister IS the rebuild starting — open a fresh era under
		// rebuild grace like any other adoption.
		s.adopt(ctx, t)
		db = s.topics[t]
	}
	if b.Epoch > db.epoch {
		// The subscriber was served by a newer era than ours (we adopted
		// without gossip, or restarted with stale state): jump past it, or
		// every configuration we send would be ignored as stale.
		db.epoch = b.Epoch + 1
		if db.epoch > s.plane.known[t] {
			s.plane.known[t] = db.epoch
		}
	}
	db.checkLabels()
	db.checkMultipleCopies(v)
	if db.labelOf(v) != label.Bottom {
		s.sendConfiguration(ctx, t, db, v)
		return
	}
	if b.Label.Valid() && !b.Label.IsBottom() {
		if _, taken := db.db[b.Label]; !taken {
			db.put(b.Label, v)
			// The re-reported label is whatever the survivor held before the
			// failover — almost never the compact l(0 … n−1), so the
			// post-grace CheckLabels has repair work.
			db.dirty = true
			if db.grace > 0 {
				// Still rebuilding: extend the grace so the re-registration
				// wave finishes before relabelling may run — but never past
				// the era's remaining grace budget, or a sustained
				// Reregister stream (chaos churn) could defer relabelling
				// forever.
				if g := min(rebuildGrace, db.graceCeil); g > db.grace {
					db.grace = g
				}
			}
			s.sendConfiguration(ctx, t, db, v)
			return
		}
	}
	// ⊥, malformed or conflicting label: fall back to a fresh subscription.
	s.subscribe(ctx, t, v)
}

// absorbGossip merges a peer's epoch knowledge: raises epoch floors,
// learns topics (enabling adoption of orphans we never served), and lets a
// stale restarted owner jump to the current era. Lock held.
func (s *Supervisor) absorbGossip(g proto.PlaneGossip) {
	for _, e := range g.Entries {
		// Record the topic even at epoch 0: the reconcile pass adopts it
		// if it hashes to us and nobody hosts it (its owner died before we
		// ever saw the topic).
		if floor, ok := s.plane.known[e.Topic]; !ok || e.Epoch > floor {
			s.plane.known[e.Topic] = e.Epoch
		}
		if db, ok := s.topics[e.Topic]; ok && e.Epoch > db.epoch && s.viewOwner(e.Topic) == s.self {
			db.epoch = e.Epoch
		}
	}
}

// CorruptPlane scrambles this supervisor's plane state for a topic — the
// "chaos corruption of the directory itself" fault: hosting flags and
// epochs are fair game. Everything it breaks is soft
// state the reconcile/gossip/epoch-repair machinery must rebuild; it never
// touches subscriber-side state. A no-op in a plane of one, which has no
// peer to rebuild it from.
func (s *Supervisor) CorruptPlane(t sim.Topic, rng interface{ Intn(int) int }) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.plane
	if len(p.peers) <= 1 {
		return
	}
	switch rng.Intn(3) {
	case 0:
		// Ownership amnesia: silently drop the hosted database (and with a
		// plane-wide memory lapse, the epoch floor too).
		delete(s.topics, t)
		if rng.Intn(2) == 0 {
			delete(p.known, t)
		}
	case 1:
		// Epoch scramble: the hosted era and the floor regress arbitrarily.
		if db, ok := s.topics[t]; ok {
			db.epoch = uint64(rng.Intn(3))
		}
		p.known[t] = uint64(rng.Intn(3))
	default:
		// False hosting claim: host a topic we may not own (empty database
		// at a bogus era).
		if _, ok := s.topics[t]; !ok {
			db := newTopicDB()
			db.epoch = uint64(rng.Intn(3))
			db.track = s.repFactor > 0
			s.topics[t] = db
		}
	}
}
