// Directory replication: the warm-replica layer behind supervisor failover.
//
// PR 5's plane made supervisor crashes survivable, but its repair path —
// the adopting successor re-interrogating every live subscriber through
// Reregister — costs Θ(n) traffic and Θ(n) convergence time, dominated by
// the subscribers' ratcheting staleness probes. This file demotes that
// rebuild to a fallback: with a positive replication factor every topic
// owner continuously replicates its (label, subscriber) database to the
// topic's hashdht successors, so the successor that adopts after a crash
// starts from a warm replica at a fresh epoch and can announce itself to
// the recorded subscribers immediately — near-constant failover, no
// relabelling, no dependence on the subscriber population size.
//
// The replication protocol is itself self-stabilizing, in the same spirit
// as the replicated-state-machine construction of self-stabilizing Paxos:
//
//   - Delta stream. The labels that put/del touch buffer in a bounded
//     per-topic list, and each Timeout flushes their current state to the
//     successors as a fire-and-forget ReplicaDelta: a Put for a label the
//     database holds, a Del for one it does not. A delta is state, not a
//     history — each label appears once, so applying it is idempotent and
//     order-free. There is no acknowledgement: a buffer overflow simply
//     drops the buffer and schedules a full sync.
//   - Anti-entropy. Every gossip period the owner pushes a ReplicaDigest
//     probe carrying its database root digest — an order-independent XOR
//     fold of per-entry 16-byte truncated-SHA-256 hashes, the same fold the
//     Patricia trie uses over its leaf digests — and the replica answers
//     only on mismatch. Owner and replicas alike periodically recompute
//     their digest from content, so even corruption that forged a
//     matching stored digest is caught — and a corrupted owner digest
//     stops provoking full syncs — within a bounded number of probes.
//   - Bounded-chunk sync. On mismatch the owner ships its database in
//     ReplicaSync chunks of at most maxSyncChunk entries; the replica
//     stages a round's chunks and atomically replaces its state when the
//     round completes. An arbitrarily corrupted replica therefore
//     converges like any other corrupted state.
//
// The replica is the owner's store type (store.go), so both sides share
// one mutation path, one digest and one r-order. Entries whose label is ⊥
// or malformed are dropped at receipt, as Reregister drops them: no owner
// stores one, and an adoption must never seed one.
//
// Everything here runs under the supervisor mutex, off the plane Timeout
// and OnMessage paths; a deployment with ReplicationFactor 0 (the
// default) takes none of these code paths beyond one boolean test in
// put/del, which keeps the hot-path allocation gates bit-identical.

package supervisor

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"

	"sspubsub/internal/label"
	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
)

const (
	// maxTouched bounds the per-topic delta buffer, in touches. Overflow
	// drops the buffer and falls back to a full sync — replication never
	// holds an unbounded buffer.
	maxTouched = 512
	// maxSyncChunk bounds the entries per ReplicaSync message.
	maxSyncChunk = 256
	// replicaStaleAfter is the freshness window, in plane ticks, within
	// which an adoption trusts its replica. Owner contact (a delta, a
	// matching probe, a completed sync) refreshes it; a replica whose
	// owner has been silent longer — a restart with ancient state, a
	// partition — falls back to the Reregister rebuild.
	replicaStaleAfter = 64
	// replicaVerifyEvery is how often (in plane ticks) an owner or a
	// replica recomputes its digest from content instead of probing or
	// answering with the incrementally maintained one — the self-check
	// that catches corruption which forged a coherent-looking stored
	// digest.
	replicaVerifyEvery = 16
	// graceCeiling is the hard per-era budget of rebuild-grace ticks. Each
	// in-grace Reregister may re-arm the grace window, but never past what
	// remains of this budget — a sustained Reregister stream (chaos churn
	// produces exactly that) can no longer defer relabelling forever.
	graceCeiling = 4 * rebuildGrace
	// warmGrace is the short rebuild grace of a warm adoption: the
	// database is already populated, so the window only needs to cover
	// stragglers whose Reregister answers the adoption announcement.
	warmGrace = 8
)

// entryHash is the per-tuple hash of the replication digest: SHA-256 over
// the label's canonical bytes and the subscriber ID, truncated to 16 bytes.
// (The trie's leaf digests are two 64-bit mixers instead; the digest lines
// of srsim scale print this one as dbhash.) The database digest is the XOR
// fold of its entries' hashes, which makes it order-independent and
// incrementally maintainable under put/del.
func entryHash(l label.Label, v sim.NodeID) [16]byte {
	var buf [17]byte
	binary.BigEndian.PutUint64(buf[0:8], l.Bits)
	buf[8] = l.Len
	binary.BigEndian.PutUint64(buf[9:17], uint64(v))
	sum := sha256.Sum256(buf[:])
	var out [16]byte
	copy(out[:], sum[:16])
	return out
}

func xor16(a, b [16]byte) [16]byte {
	for i := range a {
		a[i] ^= b[i]
	}
	return a
}

// ---- owner side: mutation capture ----

// touch buffers l for the next delta flush. Called from topicDB.put/del;
// a label touched twice is buffered twice and shipped once.
func (db *topicDB) touch(l label.Label) {
	if !db.tuples.track || db.repOverflow {
		return
	}
	if len(db.touched) >= maxTouched {
		// No unbounded buffers: drop it, a full sync repairs instead.
		db.touched = db.touched[:0]
		db.repOverflow = true
		return
	}
	db.touched = append(db.touched, l)
}

// ---- replica side: state ----

// replicaDB is the warm copy of one topic's directory held by a hashdht
// successor of the topic's owner.
type replicaDB struct {
	epoch uint64
	// tuples tracks its digest always; verified is the plane tick of the
	// last recompute-from-content self-check.
	tuples   store
	verified uint64
	// fresh is the plane tick of the last owner contact that confirmed
	// the replica current (delta applied, probe matched, sync completed).
	fresh uint64
	// stage accumulates the chunks of an in-flight full sync.
	stage *syncStage
}

type syncStage struct {
	epoch  uint64
	round  uint64
	total  uint64
	chunks map[uint64][]proto.ReplicaEntry
}

// replica returns (creating if needed) the replica record for t. Lock held.
func (s *Supervisor) replica(t sim.Topic) *replicaDB {
	r, ok := s.replicas[t]
	if !ok {
		r = &replicaDB{tuples: store{track: true}}
		if s.replicas == nil {
			s.replicas = make(map[sim.Topic]*replicaDB)
		}
		s.replicas[t] = r
	}
	return r
}

// SetReplicationFactor configures how many hashdht successors each topic
// owner replicates its directory to (0, the default, disables
// replication). Call alongside JoinPlane, before the supervisor is
// registered on a transport; every plane member must use the same factor.
func (s *Supervisor) SetReplicationFactor(k int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if k < 0 {
		k = 0
	}
	s.repFactor = k
	for _, db := range s.topics {
		db.tuples.track = k > 0
	}
}

// ReplicationFactor returns the configured factor.
func (s *Supervisor) ReplicationFactor() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.repFactor
}

// ---- timeout: delta flush, anti-entropy probes, replica GC ----

// replicaTimeout runs the owner-side replication work for one plane tick:
// flush buffered deltas, push digest probes on the gossip cadence, and
// garbage-collect replicas this supervisor no longer should hold. Lock
// held; called from planeTimeout after peer screening.
func (s *Supervisor) replicaTimeout(ctx sim.Context) {
	p := s.plane
	if s.repFactor <= 0 {
		return
	}
	probe := p.tick%gossipEvery == 0
	hosted := make([]sim.Topic, 0, len(s.topics))
	for t := range s.topics {
		hosted = append(hosted, t)
	}
	sort.Slice(hosted, func(i, j int) bool { return hosted[i] < hosted[j] })
	for _, t := range hosted {
		db := s.topics[t]
		if !db.tuples.track || s.viewOwner(t) != s.self {
			continue
		}
		succs := p.ring.Successors(t, s.repFactor)
		if len(succs) == 0 {
			continue
		}
		switch {
		case db.repOverflow:
			db.repOverflow = false
			for _, to := range succs {
				s.sendFullSync(ctx, t, db, to)
			}
		case len(db.touched) > 0:
			d := db.delta()
			for _, to := range succs {
				ctx.Send(to, t, d)
			}
		}
		if probe {
			if p.tick%replicaVerifyEvery == 0 {
				// Self-check, as the replicas do: a corrupted owner digest
				// would otherwise mismatch every replica forever and ship
				// a full sync each gossip period.
				db.tuples.hash = db.tuples.digest()
			}
			dig := proto.ReplicaDigest{
				Probe: true, Epoch: db.epoch,
				Count: uint64(db.tuples.len()), Hash: db.tuples.hash,
			}
			for _, to := range succs {
				ctx.Send(to, t, dig)
			}
		}
	}
	if !probe || len(s.replicas) == 0 {
		return
	}
	// Replica GC: drop replicas of topics we neither own (an adoption
	// would consume those) nor stand successor for anymore — bounded
	// memory under arbitrary membership churn.
	held := make([]sim.Topic, 0, len(s.replicas))
	for t := range s.replicas {
		held = append(held, t)
	}
	sort.Slice(held, func(i, j int) bool { return held[i] < held[j] })
	for _, t := range held {
		if s.viewOwner(t) == s.self {
			continue
		}
		mine := false
		for _, id := range p.ring.Successors(t, s.repFactor) {
			if id == s.self {
				mine = true
				break
			}
		}
		if !mine {
			delete(s.replicas, t)
		}
	}
}

// delta drains the touched buffer into one ReplicaDelta carrying each
// touched label's current state, in first-touch order.
func (db *topicDB) delta() proto.ReplicaDelta {
	d := proto.ReplicaDelta{Epoch: db.epoch}
	seen := make(map[label.Label]bool, len(db.touched))
	for _, l := range db.touched {
		if seen[l] {
			continue
		}
		seen[l] = true
		if n := db.tuples.get(l); n != nil {
			d.Put = append(d.Put, proto.ReplicaEntry{L: l, V: n.id})
		} else {
			d.Del = append(d.Del, l)
		}
	}
	db.touched = db.touched[:0]
	return d
}

// sendFullSync ships the hosted database to one replica holder in bounded
// chunks, walking the store for a deterministic chunking. Lock held.
func (s *Supervisor) sendFullSync(ctx sim.Context, t sim.Topic, db *topicDB, to sim.NodeID) {
	db.syncRound++
	entries := make([]proto.ReplicaEntry, 0, db.tuples.len())
	db.tuples.walk(func(l label.Label, v sim.NodeID) {
		entries = append(entries, proto.ReplicaEntry{L: l, V: v})
	})
	total := uint64(len(entries)+maxSyncChunk-1) / maxSyncChunk
	if total == 0 {
		total = 1
	}
	for seq := uint64(0); seq < total; seq++ {
		lo := int(seq) * maxSyncChunk
		hi := lo + maxSyncChunk
		if hi > len(entries) {
			hi = len(entries)
		}
		ctx.Send(to, t, proto.ReplicaSync{
			Epoch: db.epoch, Round: db.syncRound,
			Seq: seq, Chunks: total, Entries: entries[lo:hi],
		})
	}
}

// ---- message handlers (lock held, dispatched from OnMessage) ----

// fromOwner reports whether the sender is the supervisor this node's own
// plane view names owner of t. Replica traffic from an era below the one
// held is a deposed owner's noise — unless it comes from that supervisor:
// then the held era is the wrong one (a replica's counter is soft state
// like any other, and one corrupted above an owner that never failed over
// would otherwise refuse every repair forever) and the owner's is adopted,
// downward. Lock held.
func (s *Supervisor) fromOwner(t sim.Topic, from sim.NodeID) bool {
	return from == s.viewOwner(t)
}

// onReplicaDelta applies a streamed state batch to the local replica.
// Stale-era deltas are dropped; anti-entropy repairs any divergence a lost
// or reordered delta leaves behind.
func (s *Supervisor) onReplicaDelta(t sim.Topic, from sim.NodeID, b proto.ReplicaDelta) {
	rep := s.replica(t)
	if b.Epoch < rep.epoch && !s.fromOwner(t, from) {
		return
	}
	rep.epoch = b.Epoch
	for _, e := range b.Put {
		putValid(&rep.tuples, e)
	}
	for _, l := range b.Del {
		rep.tuples.del(l)
	}
	rep.fresh = s.plane.tick
}

// onReplicaDigest handles both halves of the anti-entropy exchange: a
// probe (owner → replica) is answered only on mismatch; an answer
// (replica → owner) triggers a bounded-chunk full sync.
func (s *Supervisor) onReplicaDigest(ctx sim.Context, t sim.Topic, from sim.NodeID, b proto.ReplicaDigest) {
	if b.Probe {
		rep := s.replica(t)
		if s.plane.tick-rep.verified >= replicaVerifyEvery {
			// Self-check: recompute from content so corruption that kept
			// the stored digest coherent is still caught within a bounded
			// number of probes.
			rep.tuples.hash = rep.tuples.digest()
			rep.verified = s.plane.tick
		}
		if b.Epoch == rep.epoch && b.Count == uint64(rep.tuples.len()) && b.Hash == rep.tuples.hash {
			rep.fresh = s.plane.tick
			return
		}
		ctx.Send(from, t, proto.ReplicaDigest{
			Epoch: rep.epoch, Count: uint64(rep.tuples.len()), Hash: rep.tuples.hash,
		})
		return
	}
	// Answer: we are (or believe we are) the owner. Ship a full sync if the
	// replica's digest disagrees with the live database.
	db, hosting := s.topics[t]
	if !hosting || !db.tuples.track || s.viewOwner(t) != s.self || from == s.self {
		return
	}
	if b.Epoch != db.epoch || b.Count != uint64(db.tuples.len()) || b.Hash != db.tuples.hash {
		s.sendFullSync(ctx, t, db, from)
	}
}

// onReplicaSync stages one full-sync chunk and atomically replaces the
// replica when the round is complete. Chunks of an older round or a stale
// era are dropped; duplicates are idempotent.
func (s *Supervisor) onReplicaSync(t sim.Topic, from sim.NodeID, b proto.ReplicaSync) {
	if b.Chunks == 0 || b.Seq >= b.Chunks {
		return
	}
	rep := s.replica(t)
	if b.Epoch < rep.epoch && !s.fromOwner(t, from) {
		return
	}
	st := rep.stage
	if st == nil || b.Epoch > st.epoch || (b.Epoch == st.epoch && b.Round > st.round) ||
		(b.Epoch < st.epoch && s.fromOwner(t, from)) {
		st = &syncStage{
			epoch: b.Epoch, round: b.Round, total: b.Chunks,
			chunks: make(map[uint64][]proto.ReplicaEntry),
		}
		rep.stage = st
	}
	if b.Epoch != st.epoch || b.Round != st.round || b.Chunks != st.total {
		return // stale or inconsistent round
	}
	st.chunks[b.Seq] = b.Entries
	if uint64(len(st.chunks)) < st.total {
		return
	}
	// Round complete: rebuild the replica wholesale.
	fresh := store{track: true}
	for seq := uint64(0); seq < st.total; seq++ {
		for _, e := range st.chunks[seq] {
			putValid(&fresh, e)
		}
	}
	rep.tuples = fresh
	rep.epoch = st.epoch
	rep.stage = nil
	rep.fresh = s.plane.tick
	rep.verified = s.plane.tick
}

// putValid stores a received replica entry unless its label is ⊥ or
// malformed.
func putValid(x *store, e proto.ReplicaEntry) {
	if e.L.Valid() && !e.L.IsBottom() {
		x.put(e.L, e.V)
	}
}

// ---- adoption: the warm path ----

// warmUsable reports whether the held replica is trustworthy enough to
// adopt from: non-empty, at least as recent an era as the plane has
// observed, and refreshed by owner contact within the staleness window.
// Lock held.
func (s *Supervisor) warmUsable(rep *replicaDB, t sim.Topic) bool {
	if rep == nil || rep.tuples.len() == 0 {
		return false
	}
	p := s.plane
	return rep.epoch >= p.known[t] && p.tick-rep.fresh <= replicaStaleAfter
}

// seedFromReplica populates a freshly adopted database from the warm
// replica, in r-order (the puts also charge the new owner's own delta
// buffer, so the warm state propagates onward to its successors). Lock
// held.
func (db *topicDB) seedFromReplica(rep *replicaDB) {
	rep.tuples.walk(db.put)
}

// ---- introspection (tests, chaos probes, cluster predicates) ----

// DirectoryDigest returns the hosted database's era and digest, recomputed
// from content (so it also cross-checks the incrementally maintained
// digest the protocol ships). ok is false when the topic is not hosted.
func (s *Supervisor) DirectoryDigest(t sim.Topic) (epoch uint64, hash [16]byte, count int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	db, hosting := s.topics[t]
	if !hosting {
		return 0, hash, 0, false
	}
	return db.epoch, db.tuples.digest(), db.tuples.len(), true
}

// HeldReplicaDigest returns the held replica's era and digest, recomputed
// from content. ok is false when no replica is held for the topic.
func (s *Supervisor) HeldReplicaDigest(t sim.Topic) (epoch uint64, hash [16]byte, count int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep, held := s.replicas[t]
	if !held {
		return 0, hash, 0, false
	}
	return rep.epoch, rep.tuples.digest(), rep.tuples.len(), true
}

// CorruptReplica scrambles the held replica for a topic — the chaos
// `corrupt-replica` fault. Entries, the stored digest and the replica era
// are all fair game; anti-entropy must detect whatever this leaves behind
// and converge the replica back to the owner's state. A safe no-op when
// no replica is held (single supervisor, ReplicationFactor 0, or a node
// that is not a successor of the topic). Deterministic given rng.
func (s *Supervisor) CorruptReplica(t sim.Topic, rng interface{ Intn(int) int }) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep, ok := s.replicas[t]
	if !ok {
		return
	}
	h := rep.tuples.hash // the scramble and the amnesia leave it stale
	switch rng.Intn(3) {
	case 0:
		// Entry scramble: bogus tuples land in the replica, digest left
		// incoherent with content. Like the Section 3.1 corruption cases,
		// the bogus subscribers are drawn from the model's node universe —
		// ⊥, this supervisor itself, or recorded subscribers at wrong
		// labels — each of which the repair machinery can evict (a node ID
		// that never existed would sit beyond the failure detector forever).
		pool := []sim.NodeID{sim.None, s.self}
		vals := make([]sim.NodeID, 0, rep.tuples.len())
		rep.tuples.walk(func(_ label.Label, v sim.NodeID) { vals = append(vals, v) })
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		pool = append(pool, vals...)
		for i := 0; i < 1+rng.Intn(3); i++ {
			rep.tuples.put(label.FromIndex(uint64(rng.Intn(8))), pool[rng.Intn(len(pool))])
		}
	case 1:
		// Amnesia: a deterministic prefix of the r-ordered entries vanishes;
		// the stored digest still claims they exist.
		if n := rep.tuples.len(); n > 0 {
			for k := 1 + rng.Intn(n); k > 0; k-- {
				rep.tuples.del(rep.tuples.kth(0).l)
			}
		}
	default:
		// Digest/era poison: the stored digest flips, and the era either
		// regresses, making the replica look like an ancient restart, or
		// leaps above the owner's.
		h[rng.Intn(16)] ^= byte(1 + rng.Intn(255))
		if rng.Intn(2) == 0 {
			rep.epoch = 0
		} else {
			rep.epoch++
		}
	}
	rep.tuples.hash = h
}
