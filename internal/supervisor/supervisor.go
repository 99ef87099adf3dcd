// Package supervisor implements the supervisor side of the BuildSR protocol
// (Algorithm 3, Sections 3.1, 3.3 and 4.1 of Feldmann et al.).
//
// The supervisor is the commonly known gateway of the system. Per topic it
// maintains a database of (label, subscriber) tuples, hands out
// configurations (pred, label, succ) in a round-robin fashion, processes
// subscribe/unsubscribe requests with a constant number of messages
// (Theorem 7), repairs its database from arbitrary corruption with purely
// local actions (Lemma 9), and culls crashed subscribers reported by the
// single system-wide failure detector (Section 3.3).
//
// The paper assumes the supervisor itself is reliable. This package
// deliberately departs from that assumption: every supervisor is a member
// of a plane — a lone supervisor is a plane of one — and several can form
// a crash-tolerant plane (JoinPlane) in which topics are sharded by
// consistent hashing, peers monitor each other through the same failure
// detector that screens subscribers, a dead supervisor's topics migrate to
// their hashdht successors, and the successor rebuilds the topic database
// from the live overlay via the Reregister/OwnerAnnounce handshake — the
// database is soft state recoverable from the system, exactly the property
// the paper's legitimacy proof relies on. See plane.go.
package supervisor

import (
	"sort"
	"sync"
	"unsafe"

	"sspubsub/internal/label"
	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
)

// Supervisor is a sim.Handler managing one database per topic. All entry
// points lock, so live-runtime introspection (public API snapshots) is safe
// concurrently with the protocol goroutine.
type Supervisor struct {
	mu       sync.Mutex
	self     sim.NodeID
	detector sim.Detector
	topics   map[sim.Topic]*topicDB

	// CullPerTimeout bounds how many database entries per topic the failure
	// detector screens each Timeout (keeps per-interval work constant).
	CullPerTimeout int

	// plane is the supervisor plane this node belongs to: a plane of one
	// (itself) from New — the paper's single supervisor, owning every
	// topic — until JoinPlane replaces it. See plane.go.
	plane *plane

	// repFactor is how many hashdht successors each owned topic's
	// database is replicated to (0 disables replication); replicas holds
	// the warm copies this supervisor keeps for topics it stands
	// successor for. See replica.go.
	repFactor int
	replicas  map[sim.Topic]*replicaDB
}

// topicDB is the database for one topic plus the round-robin cursor.
//
// Three structures mirror the same tuple set so every per-request operation
// is O(log n) instead of the O(n) scans (labelOf, checkMultipleCopies) and
// O(n log n) re-sorts (neighbors) the first version paid — the structure
// that fell over first when the scale harness pushed past 10^4 subscribers:
//
//   - db is the source of truth, label → subscriber.
//   - byID inverts it for the common clean case (labelOf in O(1)); ids
//     holding several labels — corruption case (ii) — are tracked in dup
//     and fall back to the scan until CheckMultipleCopies repairs them.
//   - idx orders the tuples by ring position for predecessor/successor and
//     k-th queries (see ordindex.go).
//
// dirty gates the CheckLabels repair scan: the normal subscribe/unsubscribe
// path preserves database validity, so the O(n) repair only runs after an
// operation that can actually corrupt it (detector culls, reregistration
// under rebuild grace, injected corruption).
type topicDB struct {
	// db maps label → subscriber. The ⊥ subscriber (sim.None) and labels
	// outside {l(0) … l(n−1)} are representable on purpose: they are the
	// corrupted states of Section 3.1 that CheckLabels repairs.
	db   map[label.Label]sim.NodeID
	byID map[sim.NodeID]label.Label
	dup  map[sim.NodeID]bool
	idx  ordIndex
	next uint64
	// cullNext is the failure-detector screen's own cursor. It advances by
	// CullPerTimeout per Timeout — the width of the window it screened —
	// unlike next, which advances by one (the refresh sends one
	// configuration per interval by design). Sharing next for both roles
	// was the scale harness' second finding: consecutive screen windows
	// overlapped in all but one entry, so the sweep rate was one entry per
	// interval regardless of the configured budget, and culling a 1%
	// crash burst at n=10^4 took tens of thousands of rounds instead of
	// n/CullPerTimeout.
	cullNext uint64

	// epoch is the ownership era this database serves at. It is carried in
	// every SetData so subscribers can discriminate a deposed owner's stale
	// commands; it only ever moves forward (adoption, handover, and epoch
	// repair from Reregister reports all bump it).
	epoch uint64
	// grace, while positive, exempts the database from CheckLabels'
	// relabelling (⊥ purging still runs) and counts down one per Timeout.
	// A freshly adopted database starts with a rebuild grace so surviving
	// subscribers can re-report their pre-failover labels before the
	// compaction rule would overwrite them — preserving the live overlay
	// instead of rebuilding the ring from scratch.
	grace int
	// graceCeil is what remains of the era's total rebuild-grace budget
	// (graceCeiling at adoption, counting down with grace): in-grace
	// Reregisters may re-arm grace, but only up to this remainder, so a
	// sustained Reregister stream cannot defer relabelling forever.
	graceCeil int
	// dirty records that the database may violate validity (Section 3.1)
	// and CheckLabels has repair work to do.
	dirty bool

	// track gates replication capture: put/del maintain repHash (the
	// XOR-fold digest the anti-entropy probes ship) and buffer the
	// mutation in pending for the next delta flush. repOverflow marks a
	// dropped buffer (a full sync repairs instead); syncRound numbers
	// full-sync rounds. See replica.go.
	track       bool
	repHash     [16]byte
	pending     []repOp
	repOverflow bool
	syncRound   uint64
}

type entry struct {
	l  label.Label
	id sim.NodeID
}

func newTopicDB() *topicDB {
	return &topicDB{
		db:   make(map[label.Label]sim.NodeID),
		byID: make(map[sim.NodeID]label.Label),
	}
}

// put records l → v across all three mirrors. The ⊥ subscriber is kept in
// db and idx (it is a representable corrupted state) but never indexed by
// id.
func (db *topicDB) put(l label.Label, v sim.NodeID) {
	old, hadOld := db.db[l]
	if hadOld {
		if old == v {
			return
		}
		db.unmapID(old, l)
	}
	db.db[l] = v
	db.idx.insert(l, v)
	db.mapID(v, l)
	if db.track {
		db.repNotePut(l, v, old, hadOld)
	}
}

// del removes l across all three mirrors.
func (db *topicDB) del(l label.Label) {
	v, ok := db.db[l]
	if !ok {
		return
	}
	delete(db.db, l)
	db.idx.remove(l)
	db.unmapID(v, l)
	if db.track {
		db.repNoteDel(l, v)
	}
}

// labelLess is the "lowest label" order labelOf has always used.
func labelLess(a, b label.Label) bool { return a.Index() < b.Index() }

func (db *topicDB) mapID(v sim.NodeID, l label.Label) {
	if v == sim.None {
		return
	}
	cur, ok := db.byID[v]
	if !ok {
		db.byID[v] = l
		return
	}
	// v now holds more than one label (corruption case (ii)): keep byID at
	// the lowest and remember the id needs CheckMultipleCopies.
	if labelLess(l, cur) {
		db.byID[v] = l
	}
	if db.dup == nil {
		db.dup = make(map[sim.NodeID]bool)
	}
	db.dup[v] = true
}

func (db *topicDB) unmapID(v sim.NodeID, l label.Label) {
	if v == sim.None {
		return
	}
	if db.dup[v] {
		// Rare (only reachable through injected corruption): recount v's
		// labels to restore the lowest-label invariant.
		db.reindex(v)
		return
	}
	if db.byID[v] == l {
		delete(db.byID, v)
	}
}

// reindex rebuilds v's reverse-index entries from db. O(n); only
// corrupted databases reach it.
func (db *topicDB) reindex(v sim.NodeID) {
	delete(db.byID, v)
	delete(db.dup, v)
	for l, w := range db.db {
		if w == v {
			db.mapID(v, l)
		}
	}
}

// screen checks the entry at label l for the cull screen, so neither dirty
// nor byID is trusted forever: a gap below n, a ⊥ subscriber or a hint db
// contradicts marks the database dirty, and the hint is rebuilt. It returns
// the subscriber for the detector to screen, or ⊥.
func (db *topicDB) screen(l label.Label) sim.NodeID {
	v, ok := db.db[l]
	if !ok || v == sim.None {
		db.dirty = true
		return sim.None
	}
	if h, ok := db.byID[v]; !ok || db.db[h] != v || (h != l && !db.dup[v]) {
		db.reindex(v)
		db.dirty = true
	}
	return v
}

// New creates a supervisor with the given node ID and failure detector,
// alone in a plane of one: it owns every topic until JoinPlane gives it
// peers.
func New(self sim.NodeID, detector sim.Detector) *Supervisor {
	if detector == nil {
		detector = sim.NeverSuspects()
	}
	return &Supervisor{
		self:           self,
		detector:       detector,
		topics:         make(map[sim.Topic]*topicDB),
		CullPerTimeout: 1,
		plane:          newPlane([]sim.NodeID{self}),
	}
}

// ID returns the supervisor's node ID.
func (s *Supervisor) ID() sim.NodeID { return s.self }

func (s *Supervisor) topic(t sim.Topic) *topicDB {
	db, ok := s.topics[t]
	if !ok {
		db = newTopicDB()
		db.track = s.repFactor > 0
		s.topics[t] = db
	}
	return db
}

// OnTimeout performs the periodic supervisor action for every topic:
// repair the database, screen a few entries against the failure detector,
// and send one configuration in round-robin order (Algorithm 3, Timeout).
func (s *Supervisor) OnTimeout(ctx sim.Context) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.planeTimeout(ctx)
	// Iterate topics in a fixed order for determinism.
	ids := make([]sim.Topic, 0, len(s.topics))
	for t := range s.topics {
		ids = append(ids, t)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, t := range ids {
		s.timeoutTopic(ctx, t)
	}
}

func (s *Supervisor) timeoutTopic(ctx sim.Context, t sim.Topic) {
	db := s.topic(t)
	if db.grace > 0 {
		db.grace--
		if db.graceCeil > 0 {
			db.graceCeil--
		}
	}
	db.checkLabels()
	n := uint64(len(db.db))
	if n == 0 {
		return
	}
	// Cull crashed subscribers (Section 3.3): screen a window of
	// CullPerTimeout entries, then advance the cull cursor past the whole
	// window so successive Timeouts sweep the database in n/CullPerTimeout
	// intervals.
	for i := 0; i < s.CullPerTimeout; i++ {
		cursor := (db.cullNext + uint64(i)) % n
		if v := db.screen(label.FromIndex(cursor)); v != sim.None && s.detector.Suspects(v) {
			db.del(label.FromIndex(cursor))
			db.dirty = true // the cull leaves a gap at the cursor's label
			db.checkLabels()
			n = uint64(len(db.db))
			if n == 0 {
				return
			}
		}
	}
	db.cullNext = (db.cullNext + uint64(s.CullPerTimeout)) % n
	db.next = (db.next + 1) % n
	v, ok := db.db[label.FromIndex(db.next)]
	if !ok && db.grace > 0 {
		// During a rebuild grace the labels are whatever the survivors
		// re-reported, not the compact l(0 … n−1): walk the r-ordered index
		// so the round-robin refresh still reaches everyone.
		if nn := db.idx.kth(int(db.next) % db.idx.len()); nn != nil {
			v, ok = nn.id, true
		}
	}
	if ok && v != sim.None {
		s.sendConfiguration(ctx, t, db, v)
	}
}

// OnMessage dispatches the supervisor-bound requests. On a sharded plane,
// requests for topics this supervisor does not currently own are answered
// with an OwnerAnnounce redirect instead of being served — stale client
// routing after a migration corrects itself in one round trip, and no
// deposed supervisor ever grows a parallel database.
func (s *Supervisor) OnMessage(ctx sim.Context, m sim.Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch b := m.Body.(type) {
	case proto.Subscribe:
		v := b.V
		if v == sim.None {
			v = m.From
		}
		if s.redirectIfNotOwner(ctx, m.Topic, v) {
			return
		}
		s.subscribe(ctx, m.Topic, v)
	case proto.Unsubscribe:
		v := b.V
		if v == sim.None {
			v = m.From
		}
		if s.redirectIfNotOwner(ctx, m.Topic, v) {
			return
		}
		s.unsubscribe(ctx, m.Topic, v)
	case proto.GetConfiguration:
		v := b.V
		if v == sim.None {
			v = m.From
		}
		if s.redirectIfNotOwner(ctx, m.Topic, v) {
			return
		}
		s.getConfiguration(ctx, m.Topic, v)
	case proto.SetData:
		// A subscriber configuration addressed to a supervisor: some
		// database records this supervisor as a topic member. Only an
		// arbitrarily corrupted directory (e.g. a scrambled replica adopted
		// warm) produces such a tuple, and nothing else removes it — the
		// failure detector never suspects a live supervisor, so the
		// round-robin refresh would re-send it forever. Mirror the departed
		// subscriber's repair: answer with Unsubscribe until the database
		// forgets us. The all-⊥ permission frame that answer triggers has a
		// ⊥ label, so the exchange terminates.
		if !b.Label.IsBottom() && m.From != sim.None {
			ctx.Send(m.From, m.Topic, proto.Unsubscribe{V: s.self})
		}
	case proto.Reregister:
		s.reregister(ctx, m.Topic, b)
	case proto.PlaneGossip:
		s.absorbGossip(b)
	case proto.ReplicaDelta:
		s.onReplicaDelta(m.Topic, m.From, b)
	case proto.ReplicaDigest:
		s.onReplicaDigest(ctx, m.Topic, m.From, b)
	case proto.ReplicaSync:
		s.onReplicaSync(m.Topic, m.From, b)
	}
}

// subscribe implements Algorithm 3 Subscribe: insert v with the next free
// label and send it its configuration; if v is already recorded just
// re-send its configuration. Exactly one message either way (Theorem 7).
func (s *Supervisor) subscribe(ctx sim.Context, t sim.Topic, v sim.NodeID) {
	db := s.topic(t)
	db.checkLabels()
	db.checkMultipleCopies(v)
	if db.labelOf(v) != label.Bottom {
		s.getConfiguration(ctx, t, v)
		return
	}
	lab := db.nextFreeLabel()
	db.put(lab, v)
	if db.grace > 0 {
		// During a rebuild grace survivors hold arbitrary labels, so the
		// probe may have landed in a gap: the post-grace CheckLabels must
		// still compact.
		db.dirty = true
	}
	s.sendConfiguration(ctx, t, db, v)
}

// nextFreeLabel returns the lowest-index unused label at or above l(n). In
// the paper's compact database this is always exactly l(n); during a
// rebuild grace the database may hold gaps and out-of-range survivors, so
// probe upward until a free slot appears (at most n+1 probes).
func (db *topicDB) nextFreeLabel() label.Label {
	for i := uint64(len(db.db)); ; i++ {
		if _, taken := db.db[label.FromIndex(i)]; !taken {
			return label.FromIndex(i)
		}
	}
}

// unsubscribe implements Algorithm 3 Unsubscribe: remove v, move the node
// with the highest label into the vacated label, send that node its new
// configuration, and grant v permission to drop its connections by sending
// it the all-⊥ configuration. At most two messages (Theorem 7).
func (s *Supervisor) unsubscribe(ctx sim.Context, t sim.Topic, v sim.NodeID) {
	db := s.topic(t)
	db.checkLabels()
	db.checkMultipleCopies(v)
	lu := db.labelOf(v)
	if lu != label.Bottom {
		n := uint64(len(db.db))
		last := label.FromIndex(n - 1)
		if n > 1 && lu != last {
			w := db.db[last]
			db.del(last)
			db.put(lu, w) // w takes over v's label
			s.sendConfiguration(ctx, t, db, w)
		} else {
			db.del(lu)
		}
		if db.grace > 0 {
			// The highest *compact* label may not be the entry the database
			// actually holds mid-rebuild; let the post-grace repair recheck.
			db.dirty = true
		}
	}
	ctx.Send(v, t, proto.SetData{Epoch: db.epoch}) // all-⊥: permission to leave
}

// getConfiguration implements Algorithm 3 GetConfiguration: send v its
// configuration if recorded, the all-⊥ configuration otherwise (v will then
// re-subscribe via action (i) if it wants in — this realizes the
// "integrate v into the database" of Section 3.2.1 in two steps).
func (s *Supervisor) getConfiguration(ctx sim.Context, t sim.Topic, v sim.NodeID) {
	db := s.topic(t)
	db.checkMultipleCopies(v)
	if db.labelOf(v) == label.Bottom {
		ctx.Send(v, t, proto.SetData{Epoch: db.epoch})
		return
	}
	s.sendConfiguration(ctx, t, db, v)
}

func (s *Supervisor) sendConfiguration(ctx sim.Context, t sim.Topic, db *topicDB, v sim.NodeID) {
	lab := db.labelOf(v)
	pred, succ := db.neighbors(lab)
	ctx.Send(v, t, proto.SetData{Pred: pred, Label: lab, Succ: succ, Epoch: db.epoch})
}

// labelOf returns the (lowest) label stored for v, or ⊥. O(1) through the
// reverse index in the clean case; ids with duplicate labels, queries for
// the ⊥ subscriber and a hint db does not confirm fall back to the scan
// until repaired.
func (db *topicDB) labelOf(v sim.NodeID) label.Label {
	if v == sim.None || db.dup[v] {
		return db.scanLabelOf(v)
	}
	l, ok := db.byID[v]
	if ok && db.db[l] != v {
		return db.scanLabelOf(v)
	}
	return l // ⊥, the zero Label, when v is not recorded
}

func (db *topicDB) scanLabelOf(v sim.NodeID) label.Label {
	best := label.Bottom
	for l, w := range db.db {
		if w == v && (best == label.Bottom || labelLess(l, best)) {
			best = l
		}
	}
	return best
}

// checkMultipleCopies removes all duplicate tuples for v except the one
// with the lowest label (Algorithm 3, CheckMultipleCopies — corruption
// case (ii)). A no-op — O(1) — unless v is actually duplicated.
func (db *topicDB) checkMultipleCopies(v sim.NodeID) {
	if v == sim.None || !db.dup[v] {
		return
	}
	keep := db.scanLabelOf(v)
	for l, w := range db.db {
		if w == v && l != keep {
			db.del(l)
			// Removing the duplicate can leave a gap below l(n−1) —
			// corruption case (iii) — so CheckLabels has work again.
			db.dirty = true
		}
	}
}

// checkLabels repairs the database (Algorithm 3, CheckLabels): it removes
// tuples with ⊥ subscribers (case (i)) and relabels entries so that exactly
// the labels l(0) … l(n−1) are present (cases (iii) and (iv)), moving the
// entries with the highest/out-of-range labels into the gaps. Purely local:
// no messages are generated; the round-robin refresh propagates the
// corrected labels.
//
// The repair scan only runs while the database is marked dirty: the normal
// subscribe/unsubscribe path preserves validity, so per-request CheckLabels
// calls are O(1) until a cull, a rebuild-grace insertion or injected
// corruption actually gives the scan something to do.
func (db *topicDB) checkLabels() {
	if !db.dirty {
		return
	}
	for l, v := range db.db {
		if v == sim.None {
			db.del(l)
		}
	}
	if db.grace > 0 {
		// Rebuild grace: survivors are still re-reporting their pre-failover
		// labels; compacting now would reassign labels the rightful holders
		// are about to claim and force the whole overlay to re-linearize.
		// The database stays dirty so the post-grace pass does compact.
		return
	}
	defer func() { db.dirty = false }()
	n := uint64(len(db.db))
	var missing []label.Label // wanted labels not present, ascending
	var extra []entry         // entries with labels outside l(0 … n−1)
	for i := uint64(0); i < n; i++ {
		if _, ok := db.db[label.FromIndex(i)]; !ok {
			missing = append(missing, label.FromIndex(i))
		}
	}
	if len(missing) == 0 {
		return
	}
	for l, v := range db.db {
		if !l.Valid() || l.IsBottom() || l.Index() >= n || l != label.FromIndex(l.Index()) {
			extra = append(extra, entry{l, v})
		}
	}
	// Paper: take the tuple with maximum index j > i; sort extras by
	// descending index so the assignment is deterministic.
	sort.Slice(extra, func(i, j int) bool {
		return extraRank(extra[i].l) > extraRank(extra[j].l)
	})
	for i, gap := range missing {
		if i >= len(extra) {
			break // cannot happen with a consistent map, defensive only
		}
		id := extra[i].id
		db.del(extra[i].l)
		db.put(gap, id)
	}
}

// extraRank orders out-of-range labels: generated labels by their index,
// malformed labels last (they are replaced first in descending order).
func extraRank(l label.Label) uint64 {
	if l.Valid() && !l.IsBottom() {
		return l.Index()
	}
	return 1<<63 + uint64(l.Frac()>>1) // malformed: highest ranks
}

// neighbors returns the predecessor and successor tuples of lab in the
// r-ordering of the database, wrapping around the ring. With a single
// entry both are ⊥. O(log n) through the ordered index — this runs on
// every configuration send, so it must not touch all n entries.
func (db *topicDB) neighbors(lab label.Label) (pred, succ proto.Tuple) {
	if db.idx.len() <= 1 {
		return proto.Tuple{}, proto.Tuple{}
	}
	p := db.idx.pred(lab)
	if p == nil {
		p = db.idx.max()
	}
	var sn *onode
	if db.idx.get(lab) != nil {
		sn = db.idx.succ(lab)
	} else {
		// lab not present (transient corruption): neighbors of its position.
		sn = db.idx.ceil(lab)
	}
	if sn == nil {
		sn = db.idx.min()
	}
	return proto.Tuple{L: p.l, Ref: p.id}, proto.Tuple{L: sn.l, Ref: sn.id}
}

// ---- introspection and corruption injection (tests and experiments) ----

// N returns the number of recorded subscribers for a topic.
func (s *Supervisor) N(t sim.Topic) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if db, ok := s.topics[t]; ok {
		return len(db.db)
	}
	return 0
}

// Hosts reports whether this supervisor currently holds a database for the
// topic — i.e. considers itself the topic's owner. Unlike the other
// introspection methods it never instantiates an empty database, so probes
// can ask every supervisor without perturbing ownership state.
func (s *Supervisor) Hosts(t sim.Topic) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.topics[t]
	return ok
}

// EpochOf returns the ownership epoch the hosted database serves at (0
// when the topic is not hosted).
func (s *Supervisor) EpochOf(t sim.Topic) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if db, ok := s.topics[t]; ok {
		return db.epoch
	}
	return 0
}

// Topics returns all topics with a database, sorted.
func (s *Supervisor) Topics() []sim.Topic {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]sim.Topic, 0, len(s.topics))
	for t := range s.topics {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Snapshot returns a copy of the topic database.
func (s *Supervisor) Snapshot(t sim.Topic) map[label.Label]sim.NodeID {
	s.mu.Lock()
	defer s.mu.Unlock()
	db, ok := s.topics[t]
	if !ok {
		return map[label.Label]sim.NodeID{}
	}
	out := make(map[label.Label]sim.NodeID, len(db.db))
	for l, v := range db.db {
		out[l] = v
	}
	return out
}

// MemoryBytes estimates the resident size of the topic database: the
// label→subscriber map, the reverse index and the ordered index. It is an
// accounting figure for the scale harness (deterministic, not a heap
// measurement): per tuple, one treap node plus one entry in each of the two
// maps (Go map entries cost roughly 2× their key+value payload once bucket
// overhead and load factor are amortized).
func (s *Supervisor) MemoryBytes(t sim.Topic) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	db, ok := s.topics[t]
	if !ok {
		return 0
	}
	const (
		nodeBytes  = uint64(unsafe.Sizeof(onode{}))
		dbEntry    = 2 * uint64(unsafe.Sizeof(label.Label{})+unsafe.Sizeof(sim.NodeID(0)))
		byIDEntry  = 2 * uint64(unsafe.Sizeof(sim.NodeID(0))+unsafe.Sizeof(label.Label{}))
		perTupleSz = nodeBytes + dbEntry + byIDEntry
	)
	return uint64(unsafe.Sizeof(*db)) + uint64(len(db.db))*perTupleSz
}

// LabelOf returns the label recorded for v, or ⊥.
func (s *Supervisor) LabelOf(t sim.Topic, v sim.NodeID) label.Label {
	s.mu.Lock()
	defer s.mu.Unlock()
	if db, ok := s.topics[t]; ok {
		return db.labelOf(v)
	}
	return label.Bottom
}

// Corrupted reports whether the database currently violates any of the four
// validity conditions of Section 3.1.
func (s *Supervisor) Corrupted(t sim.Topic) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	db, ok := s.topics[t]
	if !ok {
		return false
	}
	n := uint64(len(db.db))
	seen := make(map[sim.NodeID]bool, n)
	for l, v := range db.db {
		if v == sim.None { // (i)
			return true
		}
		if seen[v] { // (ii)
			return true
		}
		seen[v] = true
		if !l.Valid() || l.IsBottom() || l.Index() >= n || l != label.FromIndex(l.Index()) { // (iv)
			return true
		}
	}
	for i := uint64(0); i < n; i++ { // (iii)
		if _, ok := db.db[label.FromIndex(i)]; !ok {
			return true
		}
	}
	return false
}

// InjectRaw force-writes a raw tuple into the database (tests: corruption
// cases (i), (ii) and (iv)).
func (s *Supervisor) InjectRaw(t sim.Topic, l label.Label, v sim.NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	db := s.topic(t)
	db.put(l, v)
	db.dirty = true
}

// DeleteLabel force-removes a label (tests: corruption case (iii)).
func (s *Supervisor) DeleteLabel(t sim.Topic, l label.Label) {
	s.mu.Lock()
	defer s.mu.Unlock()
	db := s.topic(t)
	db.del(l)
	db.dirty = true
}

// RepairNow runs the local repair actions immediately (tests).
func (s *Supervisor) RepairNow(t sim.Topic) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.topic(t).checkLabels()
}

var _ sim.Handler = (*Supervisor)(nil)
