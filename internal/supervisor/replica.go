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
//   - Delta stream. Mutations (put/del) buffer in a bounded per-topic
//     queue and flush to the successors each Timeout as fire-and-forget
//     ReplicaDelta batches. There is no log and no acknowledgement: a
//     buffer overflow simply drops the buffer and schedules a full sync.
//   - Anti-entropy. Every gossip period the owner pushes a ReplicaDigest
//     probe carrying its database root digest — an order-independent XOR
//     fold of per-entry hashes, the same truncated-SHA-256 construction
//     as the Patricia trie's node digests — and the replica answers
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
	// maxPendingOps bounds the per-topic delta buffer. Overflow drops the
	// buffer and falls back to a full sync — replication never holds an
	// unbounded log.
	maxPendingOps = 512
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

// repOp is one buffered directory mutation awaiting delta flush.
type repOp struct {
	del bool
	l   label.Label
	v   sim.NodeID
}

// entryHash is the per-tuple hash of the replication digest: truncated
// SHA-256 over the label's canonical bytes and the subscriber ID — the
// same 16-byte construction as the trie's leaf hash. The database digest
// is the XOR fold of its entries' hashes, which makes it order-independent
// and incrementally maintainable under put/del.
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

// digestOf recomputes the XOR-fold digest of a database from content.
func digestOf(db map[label.Label]sim.NodeID) [16]byte {
	var h [16]byte
	for l, v := range db {
		h = xor16(h, entryHash(l, v))
	}
	return h
}

// ---- owner side: mutation capture ----

// repNotePut records that put established l → v (replacing old when
// hadOld). Called from topicDB.put with track set.
func (db *topicDB) repNotePut(l label.Label, v sim.NodeID, old sim.NodeID, hadOld bool) {
	if hadOld {
		db.repHash = xor16(db.repHash, entryHash(l, old))
	}
	db.repHash = xor16(db.repHash, entryHash(l, v))
	db.pend(repOp{l: l, v: v})
}

// repNoteDel records that del removed l → v.
func (db *topicDB) repNoteDel(l label.Label, v sim.NodeID) {
	db.repHash = xor16(db.repHash, entryHash(l, v))
	db.pend(repOp{del: true, l: l})
}

func (db *topicDB) pend(op repOp) {
	if db.repOverflow {
		return
	}
	if len(db.pending) >= maxPendingOps {
		// No unbounded logs: drop the buffer, a full sync repairs instead.
		db.pending = db.pending[:0]
		db.repOverflow = true
		return
	}
	db.pending = append(db.pending, op)
}

// ---- replica side: state ----

// replicaDB is the warm copy of one topic's directory held by a hashdht
// successor of the topic's owner.
type replicaDB struct {
	epoch uint64
	db    map[label.Label]sim.NodeID
	// hash is the incrementally maintained digest of db; verified is the
	// plane tick of the last recompute-from-content self-check.
	hash     [16]byte
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

func (r *replicaDB) apply(l label.Label, v sim.NodeID) {
	if old, ok := r.db[l]; ok {
		if old == v {
			return
		}
		r.hash = xor16(r.hash, entryHash(l, old))
	}
	r.db[l] = v
	r.hash = xor16(r.hash, entryHash(l, v))
}

func (r *replicaDB) remove(l label.Label) {
	v, ok := r.db[l]
	if !ok {
		return
	}
	delete(r.db, l)
	r.hash = xor16(r.hash, entryHash(l, v))
}

// replica returns (creating if needed) the replica record for t. Lock held.
func (s *Supervisor) replica(t sim.Topic) *replicaDB {
	r, ok := s.replicas[t]
	if !ok {
		r = &replicaDB{db: make(map[label.Label]sim.NodeID)}
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
		db.track = k > 0
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
		if !db.track || s.viewOwner(t) != s.self {
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
		case len(db.pending) > 0:
			d := proto.ReplicaDelta{Epoch: db.epoch}
			for _, op := range db.pending {
				if op.del {
					d.Del = append(d.Del, op.l)
				} else {
					d.Put = append(d.Put, proto.ReplicaEntry{L: op.l, V: op.v})
				}
			}
			db.pending = db.pending[:0]
			for _, to := range succs {
				ctx.Send(to, t, d)
			}
		}
		if probe {
			if p.tick%replicaVerifyEvery == 0 {
				// Self-check, as the replicas do: a corrupted owner digest
				// would otherwise mismatch every replica forever and ship
				// a full sync each gossip period.
				db.repHash = digestOf(db.db)
			}
			dig := proto.ReplicaDigest{
				Probe: true, Epoch: db.epoch,
				Count: uint64(len(db.db)), Hash: db.repHash,
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

// sendFullSync ships the hosted database to one replica holder in bounded
// chunks, walking the ordered index for a deterministic chunking. Lock
// held.
func (s *Supervisor) sendFullSync(ctx sim.Context, t sim.Topic, db *topicDB, to sim.NodeID) {
	db.syncRound++
	entries := make([]proto.ReplicaEntry, 0, len(db.db))
	db.idx.walk(func(l label.Label, v sim.NodeID) {
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

// onReplicaDelta applies a streamed mutation batch to the local replica.
// Stale-era deltas are dropped; anti-entropy repairs any divergence a lost
// or reordered delta leaves behind.
func (s *Supervisor) onReplicaDelta(t sim.Topic, from sim.NodeID, b proto.ReplicaDelta) {
	rep := s.replica(t)
	if b.Epoch < rep.epoch && !s.fromOwner(t, from) {
		return
	}
	rep.epoch = b.Epoch
	for _, e := range b.Put {
		rep.apply(e.L, e.V)
	}
	for _, l := range b.Del {
		rep.remove(l)
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
			rep.hash = digestOf(rep.db)
			rep.verified = s.plane.tick
		}
		if b.Epoch == rep.epoch && b.Count == uint64(len(rep.db)) && b.Hash == rep.hash {
			rep.fresh = s.plane.tick
			return
		}
		ctx.Send(from, t, proto.ReplicaDigest{
			Epoch: rep.epoch, Count: uint64(len(rep.db)), Hash: rep.hash,
		})
		return
	}
	// Answer: we are (or believe we are) the owner. Ship a full sync if the
	// replica's digest disagrees with the live database.
	db, hosting := s.topics[t]
	if !hosting || !db.track || s.viewOwner(t) != s.self || from == s.self {
		return
	}
	if b.Epoch != db.epoch || b.Count != uint64(len(db.db)) || b.Hash != db.repHash {
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
	fresh := make(map[label.Label]sim.NodeID)
	var h [16]byte
	for seq := uint64(0); seq < st.total; seq++ {
		for _, e := range st.chunks[seq] {
			if old, ok := fresh[e.L]; ok {
				h = xor16(h, entryHash(e.L, old))
			}
			fresh[e.L] = e.V
			h = xor16(h, entryHash(e.L, e.V))
		}
	}
	rep.db = fresh
	rep.hash = h
	rep.epoch = st.epoch
	rep.stage = nil
	rep.fresh = s.plane.tick
	rep.verified = s.plane.tick
}

// ---- adoption: the warm path ----

// warmUsable reports whether the held replica is trustworthy enough to
// adopt from: non-empty, at least as recent an era as the plane has
// observed, and refreshed by owner contact within the staleness window.
// Lock held.
func (s *Supervisor) warmUsable(rep *replicaDB, t sim.Topic) bool {
	if rep == nil || len(rep.db) == 0 {
		return false
	}
	p := s.plane
	return rep.epoch >= p.known[t] && p.tick-rep.fresh <= replicaStaleAfter
}

// seedFromReplica populates a freshly adopted database from the warm
// replica, in deterministic label order (the puts also charge the new
// owner's own delta buffer, so the warm state propagates onward to its
// successors). Lock held.
func (db *topicDB) seedFromReplica(rep *replicaDB) {
	labels := make([]label.Label, 0, len(rep.db))
	for l := range rep.db {
		labels = append(labels, l)
	}
	sort.Slice(labels, func(i, j int) bool { return labelLess(labels[i], labels[j]) })
	for _, l := range labels {
		db.put(l, rep.db[l])
	}
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
	return db.epoch, digestOf(db.db), len(db.db), true
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
	return rep.epoch, digestOf(rep.db), len(rep.db), true
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
	switch rng.Intn(3) {
	case 0:
		// Entry scramble: bogus tuples land in the replica, digest left
		// incoherent with content. Like the Section 3.1 corruption cases,
		// the bogus subscribers are drawn from the model's node universe —
		// ⊥, this supervisor itself, or recorded subscribers at wrong
		// labels — each of which the repair machinery can evict (a node ID
		// that never existed would sit beyond the failure detector forever).
		pool := []sim.NodeID{sim.None, s.self}
		vals := make([]sim.NodeID, 0, len(rep.db))
		for _, v := range rep.db {
			vals = append(vals, v)
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		pool = append(pool, vals...)
		for i := 0; i < 1+rng.Intn(3); i++ {
			rep.db[label.FromIndex(uint64(rng.Intn(8)))] = pool[rng.Intn(len(pool))]
		}
	case 1:
		// Amnesia: a deterministic prefix of the label-ordered entries
		// vanishes; the stored digest still claims they exist.
		if len(rep.db) > 0 {
			labels := make([]label.Label, 0, len(rep.db))
			for l := range rep.db {
				labels = append(labels, l)
			}
			sort.Slice(labels, func(i, j int) bool { return labelLess(labels[i], labels[j]) })
			for _, l := range labels[:1+rng.Intn(len(labels))] {
				delete(rep.db, l)
			}
		}
	default:
		// Digest/era poison: the stored digest flips, and the era either
		// regresses, making the replica look like an ancient restart, or
		// leaps above the owner's.
		rep.hash[rng.Intn(16)] ^= byte(1 + rng.Intn(255))
		if rng.Intn(2) == 0 {
			rep.epoch = 0
		} else {
			rep.epoch++
		}
	}
}
