package core

import (
	"cmp"
	"maps"
	"slices"

	"sspubsub/internal/label"
	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
)

// Staleness-probe pacing (timeout intervals): a subscriber on a sharded
// supervisor plane that has not heard from its believed owner for
// staleAfter intervals sends a round-robin Reregister probe over the
// supervisor set. The threshold starts at staleProbeInit and doubles on
// every probe up to staleProbeMax — and it never shrinks: on a ring whose
// round-robin refresh gap exceeds the initial threshold (more than
// staleProbeInit members), the threshold ratchets just past the gap after
// a handful of early probes and spurious probing stops for the life of
// the instance, while a genuinely silent plane is still probed within at
// most staleProbeMax intervals.
const (
	staleProbeInit = 16
	staleProbeMax  = 256
)

// Subscriber is one per-topic BuildSR instance. It is driven through
// OnTimeout and OnMessage by the owning node handler (Client).
type Subscriber struct {
	self       sim.NodeID
	supervisor sim.NodeID // current believed topic owner (mutable on a sharded plane)
	topic      sim.Topic

	// plane is the static supervisor set (empty outside a sharded plane).
	// epoch is the ownership era of the last accepted configuration; it is
	// what lets the subscriber ignore a deposed owner's stale commands.
	plane []sim.NodeID
	epoch uint64
	// sinceHeard counts timeouts since the supervisor plane was last heard
	// from; staleAfter is the ratcheting probe threshold (0 = unarmed; see
	// the staleProbe constants) and probeAt the round-robin cursor.
	// desperate is set while a probe is outstanding: an ownership hint of
	// any epoch is then acceptable (the believed owner is silent, possibly
	// forever), though the hint itself never regresses our epoch.
	sinceHeard int
	staleAfter int
	probeAt    int
	desperate  bool

	lab label.Label
	// nb holds the list neighbours: nb[left] is the nearest known smaller
	// node, nb[right] the nearest known larger one. ring is the closure
	// edge an extreme holds to the opposite extreme.
	nb   [2]proto.Tuple
	ring proto.Tuple
	// shortcuts maps a shortcut slot label to the node reference believed to
	// carry it; sim.None marks a derived slot whose owner is still unknown
	// (the paper's (label, ⊥) entries).
	shortcuts map[label.Label]sim.NodeID

	// leaving is set after the client requested Unsubscribe and cleared once
	// the supervisor grants permission (all-⊥ SetData).
	leaving bool
	// departed is set once permission arrived; the instance stays only to
	// answer residual introductions with RemoveConnections (Lemma 6).
	departed bool

	// version counts every mutation of (label, nb, ring, shortcuts); the
	// closure experiment asserts it stays constant.
	version uint64
	// fired counts each Rule's firings.
	fired [NumRules]uint64

	// ftCache / rnCache memoize the neighbour lists and RingNeighbors,
	// keyed by version (stored +1 so the zero value means "never built").
	// Both are on the publication fan-out path — FloodTargets used to
	// rebuild a map, a sorted slice and a closure on every PublishNew hop —
	// and in a converged overlay the neighbourhood is static, so the steady
	// state is a version compare and a slice return with no allocations.
	// ftCache lists ring slots first, then shortcuts in slot order (the
	// order departure notices go out in); ftSorted is it sorted clockwise.
	ftCache   []proto.Tuple
	ftSorted  []proto.Tuple
	ftSlots   []label.Label // scratch for deterministic shortcut ordering
	ftVersion uint64
	rnCache   []proto.Tuple
	rnVersion uint64

	// scVersion records the version (stored +1) after the last shortcut
	// reconcile that left the slot set exactly what label.Shortcuts derives
	// from the state, and scLevel the level pair it derived. While the
	// version stays there the slots are still right, so the periodic
	// action skips the reconcile. scDrop is the reconcile's scratch.
	scVersion uint64
	scLevel   [2]label.Label
	scDrop    []label.Label

	// DisableActionIV switches off the locally-minimal probe (ablation).
	DisableActionIV bool
	// ProbeProb overrides the action (ii) probability schedule 1/(2^k·k²);
	// nil selects the paper's schedule (ablation hook).
	ProbeProb func(k int) float64
}

// NewSubscriber creates a fresh, label-less instance for one topic.
func NewSubscriber(self, supervisor sim.NodeID, topic sim.Topic) *Subscriber {
	return &Subscriber{
		self:       self,
		supervisor: supervisor,
		topic:      topic,
		shortcuts:  make(map[label.Label]sim.NodeID),
	}
}

// ---- ordering ----

// pos is the total order used by linearization: primarily the label's ring
// position, with the node ID breaking ties so that duplicate labels (which
// occur in corrupted initial states) still sort consistently.
type pos struct {
	frac uint64
	id   sim.NodeID
}

func tuplePos(t proto.Tuple) pos { return pos{t.L.Frac(), t.Ref} }

func (p pos) less(q pos) bool {
	if p.frac != q.frac {
		return p.frac < q.frac
	}
	return p.id < q.id
}

// side indexes the two list neighbours.
type side uint8

const (
	left  side = iota // toward smaller positions
	right             // toward larger positions
)

var sides = [2]side{left, right}

func (d side) other() side { return 1 - d }

// nearer reports whether a comes before b walking away from the subscriber
// on side d: a > b on the left, a < b on the right. "q lies on side d of
// me" is d.nearer(me, q); "c lies strictly between me and the occupant o"
// is d.nearer(c, o).
func (d side) nearer(a, b pos) bool {
	if d == left {
		return b.less(a)
	}
	return a.less(b)
}

// sideOf returns the side of p on which q lies (right when q == p).
func (p pos) sideOf(q pos) side {
	if left.nearer(p, q) {
		return left
	}
	return right
}

func (s *Subscriber) selfPos() pos { return pos{s.lab.Frac(), s.self} }

func (s *Subscriber) selfTuple() proto.Tuple { return proto.Tuple{L: s.lab, Ref: s.self} }

// slots returns the three ring slots: both list neighbours and the closure
// edge.
func (s *Subscriber) slots() [3]*proto.Tuple {
	return [3]*proto.Tuple{&s.nb[left], &s.nb[right], &s.ring}
}

// ---- accessors ----

// Label returns the current label (⊥ if none).
func (s *Subscriber) Label() label.Label { return s.lab }

// Left, Right, Ring return the stored neighbour tuples (⊥ tuples if unset).
func (s *Subscriber) Left() proto.Tuple  { return s.nb[left] }
func (s *Subscriber) Right() proto.Tuple { return s.nb[right] }
func (s *Subscriber) Ring() proto.Tuple  { return s.ring }

// Topic returns the topic this instance belongs to.
func (s *Subscriber) Topic() sim.Topic { return s.topic }

// Supervisor returns the supervisor this instance currently reports to —
// on a sharded plane, the believed owner of the topic.
func (s *Subscriber) Supervisor() sim.NodeID { return s.supervisor }

// Epoch returns the ownership epoch of the last accepted configuration.
func (s *Subscriber) Epoch() uint64 { return s.epoch }

// SetPlane installs the static supervisor set, enabling owner re-homing
// and staleness probing. A set of one (or none) disables both: there is no
// other supervisor to fail over to.
func (s *Subscriber) SetPlane(plane []sim.NodeID) { s.plane = plane }

// planeMember reports whether id is one of the plane's supervisors.
func (s *Subscriber) planeMember(id sim.NodeID) bool {
	return id != sim.None && slices.Contains(s.plane, id)
}

// heard records supervisor-plane contact. The probe threshold is a
// ratchet, not re-armed: on rings whose refresh gap exceeds the initial
// threshold it has converged past the gap, and resetting it here would
// restart the spurious-probe cycle on every refresh.
func (s *Subscriber) heard() {
	s.sinceHeard = 0
	s.desperate = false
}

// Departed reports whether the supervisor granted an unsubscribe.
func (s *Subscriber) Departed() bool { return s.departed }

// Leaving reports whether an unsubscribe is in flight (requested but not
// yet granted).
func (s *Subscriber) Leaving() bool { return s.leaving }

// Version returns the mutation counter over the instance's explicit state.
func (s *Subscriber) Version() uint64 { return s.version }

// Shortcuts returns a copy of the shortcut slots.
func (s *Subscriber) Shortcuts() map[label.Label]sim.NodeID { return maps.Clone(s.shortcuts) }

// RingNeighbors returns the non-⊥ direct ring neighbours (left, right,
// ring), the peers the publication protocol gossips with. The returned
// slice is a cache shared with later calls: it is valid until the next
// state mutation and must not be modified or retained.
func (s *Subscriber) RingNeighbors() []proto.Tuple {
	if s.rnVersion == s.version+1 {
		return s.rnCache
	}
	out := s.rnCache[:0]
	for _, t := range s.slots() {
		if !t.IsBottom() {
			out = append(out, *t)
		}
	}
	s.rnCache, s.rnVersion = out, s.version+1
	return out
}

// FloodTargets returns every known neighbour (ring plus resolved
// shortcuts), deduplicated by reference and sorted clockwise by the
// position the subscriber believes each holds — the edge set ER ∪ ES the
// per-origin forwarding trees of Section 4.3 are cut from. Like
// RingNeighbors, the returned slice is a cache: valid until the next state
// mutation, not to be modified or retained.
func (s *Subscriber) FloodTargets() []proto.Tuple {
	s.neighbours()
	return s.ftSorted
}

// neighbours rebuilds ftCache and ftSorted if the state changed since.
func (s *Subscriber) neighbours() {
	if s.ftVersion == s.version+1 {
		return
	}
	out := s.ftCache[:0]
	add := func(t proto.Tuple) {
		if t.Ref == sim.None || t.Ref == s.self {
			return
		}
		for _, seen := range out { // the degree is O(log n); linear dedup beats a map
			if seen.Ref == t.Ref {
				return
			}
		}
		out = append(out, t)
	}
	for _, t := range s.slots() {
		add(*t)
	}
	s.ftSlots = s.ftSlots[:0]
	for l := range s.shortcuts {
		s.ftSlots = append(s.ftSlots, l)
	}
	sortSlots(s.ftSlots)
	for _, l := range s.ftSlots {
		add(proto.Tuple{L: l, Ref: s.shortcuts[l]})
	}
	s.ftSorted = append(s.ftSorted[:0], out...)
	slices.SortFunc(s.ftSorted, func(a, b proto.Tuple) int {
		if pa, pb := tuplePos(a), tuplePos(b); pa.less(pb) {
			return -1
		} else if pb.less(pa) {
			return 1
		}
		return 0
	})
	s.ftCache, s.ftVersion = out, s.version+1
}

// sortSlots sorts shortcut slot labels into ring-position order, the raw
// label breaking the Frac ties of corrupted states: map order must never
// reach a send, whose order draws the delivery delays. The order is total,
// so every sort algorithm yields the same sequence.
func sortSlots(ls []label.Label) {
	slices.SortFunc(ls, func(a, b label.Label) int {
		if c := cmp.Compare(a.Frac(), b.Frac()); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Bits, b.Bits); c != 0 {
			return c
		}
		return cmp.Compare(a.Len, b.Len)
	})
}

// Degree returns the number of distinct known neighbours.
func (s *Subscriber) Degree() int { return len(s.FloodTargets()) }

// ---- state mutation helpers (all explicit-state changes counted) ----

func (s *Subscriber) setLabel(l label.Label) {
	if s.lab != l {
		s.lab = l
		s.version++
	}
}

func (s *Subscriber) setSlot(slot *proto.Tuple, t proto.Tuple) {
	if *slot != t {
		*slot = t
		s.version++
	}
}

// dropRef empties every ring slot that refers to ref.
func (s *Subscriber) dropRef(ref sim.NodeID) {
	for _, slot := range s.slots() {
		if slot.Ref == ref {
			s.setSlot(slot, proto.Tuple{})
		}
	}
}

// send sends body to node to on this instance's topic as rule r. Every
// subscriber send goes through it, so the rule counts are the traffic.
func (s *Subscriber) send(ctx sim.Context, r Rule, to sim.NodeID, body any) {
	s.fired[r]++
	ctx.Send(to, s.topic, body)
}

// reregister asks supervisor to to take us back — a Reregister with our
// label and epoch — or, while leaving, to let us out (Unsubscribe).
func (s *Subscriber) reregister(ctx sim.Context, r Rule, to sim.NodeID) {
	if s.leaving {
		s.send(ctx, r, to, proto.Unsubscribe{V: s.self})
		return
	}
	s.send(ctx, r, to, proto.Reregister{V: s.self, Label: s.lab, Epoch: s.epoch})
}

// ---- Timeout (Algorithm 4 lines 1–14, Algorithm 2, Algorithm 1) ----

// OnTimeout runs the periodic subscriber action.
func (s *Subscriber) OnTimeout(ctx sim.Context) {
	if s.departed {
		return
	}
	s.sinceHeard++
	s.maybeProbeOwner(ctx)
	if s.leaving {
		// Re-request until the supervisor grants permission (the initial
		// Unsubscribe may have raced with database repair).
		s.send(ctx, RuleLeave, s.supervisor, proto.Unsubscribe{V: s.self})
		return
	}
	if s.lab.IsBottom() {
		// Action (i): ask the supervisor to integrate us.
		s.send(ctx, RuleSubscribe, s.supervisor, proto.Subscribe{V: s.self})
		return
	}

	s.buildRingTimeout(ctx)
	s.maintainShortcuts(ctx)
	s.superviseProbe(ctx)
}

// maybeProbeOwner is the subscriber side of supervisor-crash recovery: if
// the believed owner has been silent past the adaptive threshold, ask the
// next supervisor in round-robin order who owns us now. The probe is a
// Reregister carrying our label and epoch — a live owner (or successor
// that adopted the topic) re-admits us directly; any other supervisor
// answers with an OwnerAnnounce redirect. A leaving instance probes with
// Unsubscribe instead: it wants out, not back in.
func (s *Subscriber) maybeProbeOwner(ctx sim.Context) {
	if len(s.plane) <= 1 {
		return
	}
	if s.staleAfter <= 0 {
		s.staleAfter = staleProbeInit
	}
	if s.sinceHeard < s.staleAfter {
		return
	}
	s.sinceHeard = 0
	if s.staleAfter < staleProbeMax {
		s.staleAfter *= 2
	}
	s.desperate = true
	target := s.plane[s.probeAt%len(s.plane)]
	s.probeAt++
	s.reregister(ctx, RuleOwnerProbe, target)
}

// buildRingTimeout is the extended BuildRing periodic action (Algorithm 2
// calling Algorithm 1): re-side mis-sorted neighbours, introduce ourselves
// to both list neighbours (with the labels we believe they have), and
// maintain the cyclic closure edge.
func (s *Subscriber) buildRingTimeout(ctx sim.Context) {
	me := s.selfPos()

	// Self-references are stale garbage from corrupted states.
	s.dropRef(s.self)

	// Algorithm 1: a neighbour stored on the wrong side is re-linearized.
	for _, d := range sides {
		if c := s.nb[d]; !c.IsBottom() && !d.nearer(me, tuplePos(c)) {
			s.fired[RuleReside]++
			s.setSlot(&s.nb[d], proto.Tuple{})
			s.linearize(ctx, c)
		}
	}

	// Introduce ourselves to the list neighbours, telling each the label we
	// think it has so it can correct us (Section 2.2 extension).
	for _, t := range s.nb {
		if !t.IsBottom() {
			s.send(ctx, RuleIntroduceSelf, t.Ref, proto.Check{Sender: s.selfTuple(), YourLabel: t.L, Flag: proto.LIN})
		}
	}

	// Algorithm 2: cyclic closure maintenance.
	if s.ring.IsBottom() {
		// An extreme without a closure edge announces itself around the
		// ring so the opposite extreme can adopt it.
		for _, d := range sides {
			if inner := s.nb[d.other()]; s.nb[d].IsBottom() && !inner.IsBottom() {
				s.send(ctx, RuleClosureAnnounce, inner.Ref, proto.Introduce{C: s.selfTuple(), Flag: proto.CYC})
			}
		}
		return
	}
	// The closure edge leads to the far extreme. With no list neighbour on
	// the other side we are the near extreme and check the edge; otherwise
	// we pass the closure candidate on toward the near extreme. (The edge
	// cannot sit at our own position: self-references were dropped above.)
	inner := s.nb[me.sideOf(tuplePos(s.ring)).other()]
	if inner.IsBottom() {
		s.send(ctx, RuleClosureCheck, s.ring.Ref, proto.Check{Sender: s.selfTuple(), YourLabel: s.ring.L, Flag: proto.CYC})
		return
	}
	c := s.ring
	s.setSlot(&s.ring, proto.Tuple{})
	s.send(ctx, RuleClosurePass, inner.Ref, proto.Introduce{C: c, Flag: proto.CYC})
}

// circularNeighbors returns the effective left and right neighbours on the
// circle: the list neighbours where present, with the closure edge standing
// in for the missing side at the extremes ("we use v.left and v.right to
// indicate v's neighbor in the ring even if stored in v.ring", Section 3.2).
// At the minimum the circular left is the maximum, and vice versa.
func (s *Subscriber) circularNeighbors() [2]proto.Tuple {
	nb := s.nb
	if !s.ring.IsBottom() {
		if d := s.selfPos().sideOf(tuplePos(s.ring)).other(); nb[d].IsBottom() {
			nb[d] = s.ring
		}
	}
	return nb
}

// circularLabels returns the labels of the circular neighbours (⊥ where
// there is none).
func (s *Subscriber) circularLabels() [2]label.Label {
	var labs [2]label.Label
	for d, t := range s.circularNeighbors() {
		if !t.IsBottom() {
			labs[d] = t.L
		}
	}
	return labs
}

// maintainShortcuts keeps the shortcut slot set equal to the one derived
// from the label and the circular neighbours (Section 3.2.2) and performs
// the periodic level-k introduction that builds rings bottom-up (Algorithm
// 4 lines 12–14; Lemma 12). The slot set is a function of the explicit
// state alone, so it is reconciled only when the version moved since the
// last reconcile that settled it; a subscriber whose state did not change
// pays for the introduction only.
func (s *Subscriber) maintainShortcuts(ctx sim.Context) {
	level := s.scLevel
	if s.scVersion != s.version+1 {
		level = s.reconcileShortcuts(ctx)
	}

	// Level-k introduction: our two level-|label| neighbours are adjacent in
	// R_{|label|−1}; introduce them to each other. When we are a
	// deepest-level node the pair is simply (left, right) — the level pair
	// equals the ring neighbour labels then.
	lt := s.resolve(level[left])
	rt := s.resolve(level[right])
	if lt.IsBottom() || rt.IsBottom() || lt.Ref == rt.Ref {
		return
	}
	s.send(ctx, RuleShortcutIntro, lt.Ref, proto.IntroduceShortcut{T: rt})
	s.send(ctx, RuleShortcutIntro, rt.Ref, proto.IntroduceShortcut{T: lt})
}

// reconcileShortcuts makes the shortcut slots the set label.Shortcuts
// derives from the current state and returns the level pair it derived.
// Slots we should no longer have are dropped and their occupants delegated
// back into the sorted list so the references are not lost; dropping
// several slots (which happens from corrupted states) sends one Linearize
// each, in label order. Those delegations can relabel a ring slot, and
// then the set derived here is stale: the cache is recorded only when they
// left the label and the circular-neighbour labels as they were, so the
// next timeout reconciles again exactly when the old code would have
// changed something.
func (s *Subscriber) reconcileShortcuts(ctx sim.Context) [2]label.Label {
	lab, labs := s.lab, s.circularLabels()
	want, levelLeft, levelRight := label.Shortcuts(lab, labs[left], labs[right])
	drop := s.scDrop[:0]
	for l := range s.shortcuts {
		if !slices.Contains(want, l) {
			drop = append(drop, l)
		}
	}
	sortSlots(drop)
	for _, l := range drop {
		// Read at the drop: an earlier delegation's label correction may
		// have emptied this slot.
		ref := s.shortcuts[l]
		delete(s.shortcuts, l)
		s.version++
		s.fired[RuleShortcutDrop]++
		if ref != sim.None && ref != s.self {
			s.linearize(ctx, proto.Tuple{L: l, Ref: ref})
		}
	}
	s.scDrop = drop[:0]
	for _, l := range want {
		if _, ok := s.shortcuts[l]; !ok {
			s.shortcuts[l] = sim.None
			s.version++
		}
	}
	level := [2]label.Label{levelLeft, levelRight}
	if s.lab == lab && s.circularLabels() == labs {
		s.scVersion, s.scLevel = s.version+1, level
	}
	return level
}

// resolve maps a derived shortcut label to the tuple we currently hold for
// it: a direct ring neighbour (including the closure edge) when the label
// matches one, otherwise the shortcut slot occupant.
func (s *Subscriber) resolve(l label.Label) proto.Tuple {
	if l.IsBottom() {
		return proto.Tuple{}
	}
	for _, t := range s.slots() {
		if !t.IsBottom() && t.L == l {
			return *t
		}
	}
	if ref, ok := s.shortcuts[l]; ok && ref != sim.None {
		return proto.Tuple{L: l, Ref: ref}
	}
	return proto.Tuple{}
}

// superviseProbe implements actions (ii) and (iv) of Section 3.2.1
// (Algorithm 4 lines 7–11).
func (s *Subscriber) superviseProbe(ctx sim.Context) {
	if !s.DisableActionIV && s.nb[left].IsBottom() && s.lab != label.FromIndex(0) {
		// Action (iv): we look locally minimal (no smaller neighbour known)
		// yet do not hold the minimal label l(0) — in a legitimate state the
		// locally minimal node is exactly the label-0 node, so this is a
		// sure sign of an unrecorded component (isolated nodes, partitioned
		// mini-rings). The label-0 node itself never triggers, which keeps
		// Theorem 5's accounting intact.
		if ctx.Rand().Float64() < 0.5 {
			s.send(ctx, RuleLocalMin, s.supervisor, proto.GetConfiguration{V: s.self})
		}
		return
	}
	// Action (ii): probe with probability 1/(2^k · k²), k = |label|.
	k := int(s.lab.Len)
	var p float64
	if s.ProbeProb != nil {
		p = s.ProbeProb(k)
	} else {
		p = 1.0 / (float64(uint64(1)<<uint(k)) * float64(k) * float64(k))
	}
	if ctx.Rand().Float64() < p {
		s.send(ctx, RuleProbe, s.supervisor, proto.GetConfiguration{V: s.self})
	}
}

// Leave starts an unsubscribe (Section 4.1). The instance keeps running
// until the supervisor grants permission.
func (s *Subscriber) Leave(ctx sim.Context) {
	s.leaving = true
	s.send(ctx, RuleLeave, s.supervisor, proto.Unsubscribe{V: s.self})
}

// ---- message handling ----

// OnMessage dispatches one protocol message to this instance.
func (s *Subscriber) OnMessage(ctx sim.Context, m sim.Message) {
	switch b := m.Body.(type) {
	case proto.SetData:
		s.onSetData(ctx, m.From, b)
	case proto.OwnerAnnounce:
		s.onOwnerAnnounce(ctx, b)
	case proto.Check:
		s.onCheck(ctx, b)
	case proto.Introduce:
		s.handleIntroduce(ctx, b.C, b.Flag)
	case proto.Linearize:
		s.onLinearizeMsg(ctx, b.V)
	case proto.RemoveConnections:
		s.removeConnections(b.V)
	case proto.IntroduceShortcut:
		s.onIntroduceShortcut(ctx, b.T)
	}
}

// onSetData processes a configuration from the supervisor (Algorithm 4
// SetData), including action (iii) of Section 3.2.1. On a sharded plane
// the sender and epoch are screened first: a configuration from a node
// other than the believed owner is accepted only from a plane supervisor
// whose era is at least ours — accepting re-homes us to that supervisor —
// while a deposed owner's stale command (older epoch) is ignored without
// touching any state.
func (s *Subscriber) onSetData(ctx sim.Context, from sim.NodeID, cfg proto.SetData) {
	if from != sim.None && from != s.supervisor {
		if !s.planeMember(from) || cfg.Epoch < s.epoch {
			return
		}
		if !s.departed {
			s.supervisor = from
		}
	}
	if from == s.supervisor {
		// The believed owner is authoritative for the era — follow it even
		// downward, so a supervisor whose epoch state was corrupted can
		// re-converge with its subscribers instead of being ignored forever.
		s.epoch = cfg.Epoch
		s.heard()
	}
	if s.departed {
		// A non-⊥ configuration for a departed instance means the database
		// re-recorded us: our pre-departure Subscribe (action (i) retries,
		// or the original join) was reordered past the unsubscribe grant —
		// channels are non-FIFO — and arrived after the supervisor deleted
		// our tuple. Nothing else ever removes that entry (the failure
		// detector only screens crashed nodes, and a departed instance
		// neither probes nor rejoins), so the db ↔ membership disagreement
		// would be permanent: answer with Unsubscribe until the database
		// forgets us again. Found by the chaos engine's churn scenarios.
		if !cfg.Label.IsBottom() {
			to := from
			if to == sim.None {
				to = s.supervisor
			}
			s.send(ctx, RuleLeave, to, proto.Unsubscribe{V: s.self})
		}
		return
	}
	if s.leaving {
		if cfg.Label.IsBottom() {
			// Permission granted: drop the label and ask every neighbour to
			// delete its edges to us (Lemma 6).
			s.grantDeparture(ctx)
		}
		// Otherwise our Unsubscribe raced; OnTimeout re-sends it.
		return
	}
	if cfg.Label.IsBottom() {
		// Not recorded: clear the label; action (i) on the next timeout
		// re-subscribes us. Stored neighbour references are kept — they are
		// re-linearized once the new label arrives.
		s.fired[RuleConfigBottom]++
		s.setLabel(label.Bottom)
		return
	}
	s.fired[RuleConfig]++

	// Action (iii): if a stored direct ring neighbour is circularly closer
	// than the one the database proposes, that neighbour is unknown to the
	// supervisor — request its configuration on its behalf.
	proposed := [2]proto.Tuple{cfg.Pred, cfg.Succ}
	s.requestCloserNeighbors(ctx, cfg.Label, proposed)

	s.setLabel(cfg.Label)
	me := s.selfPos()

	// Overwrite the slots with the authoritative configuration ("Update
	// u.left, u.right, u.ring w.r.t. pred, succ and label", Algorithm 4).
	// Displaced occupants are NOT re-circulated: a displaced live node is
	// re-served by the round-robin refresh (and action (iii) above already
	// requested configurations for the closer ones), while a displaced
	// reference to a crashed node must die here — re-linearizing it would
	// let it win placement contests forever. A pred on the "wrong" side
	// means we are the minimum and pred is the cyclic closure edge
	// (likewise succ/maximum; at n = 2 pred = succ and the closure edge is
	// kept once).
	var nb [2]proto.Tuple
	var ring proto.Tuple
	for _, d := range sides {
		if t := proposed[d]; !t.IsBottom() && t.Ref != s.self {
			if d.nearer(me, tuplePos(t)) {
				nb[d] = t
			} else {
				ring = t
			}
		}
	}
	for _, d := range sides {
		s.setSlot(&s.nb[d], nb[d])
	}
	s.setSlot(&s.ring, ring)
}

// onOwnerAnnounce processes an ownership hint: the topic is (believed to
// be) owned by a.Owner at era a.Epoch. Hints naming a newer era are always
// followed; equal-or-older hints are followed only while this subscriber
// is desperate (its believed owner has gone silent) — and never regress
// the epoch, so a deposed owner cannot talk anyone back into its era.
// Following a hint re-homes the instance and immediately re-registers
// with the new owner (or re-requests the unsubscribe, if leaving), which
// is how a successor's database gets rebuilt from the live overlay.
func (s *Subscriber) onOwnerAnnounce(ctx sim.Context, a proto.OwnerAnnounce) {
	if s.departed || !s.planeMember(a.Owner) {
		return
	}
	if a.Owner == s.supervisor {
		if a.Epoch > s.epoch {
			s.epoch = a.Epoch
		}
		s.heard()
		return
	}
	if a.Epoch <= s.epoch && !s.desperate {
		return
	}
	s.supervisor = a.Owner
	if a.Epoch > s.epoch {
		s.epoch = a.Epoch
	}
	s.heard()
	s.reregister(ctx, RuleRehome, s.supervisor)
}

// requestCloserNeighbors implements action (iii): compare the stored
// direct ring neighbours against the configuration (label lab, proposed
// pred and succ) and ask the supervisor to refresh any stored neighbour
// that is circularly closer than the database's proposal.
func (s *Subscriber) requestCloserNeighbors(ctx sim.Context, lab label.Label, proposed [2]proto.Tuple) {
	closer := func(stored proto.Tuple, proposed proto.Tuple) bool {
		if stored.IsBottom() || stored.Ref == s.self {
			return false
		}
		if proposed.IsBottom() {
			return true
		}
		if stored.Ref == proposed.Ref {
			return false
		}
		return label.CircularDistance(stored.L, lab) <= label.CircularDistance(proposed.L, lab)
	}
	// The ring edge is compared with whichever side of the configuration
	// wraps around: pred for the minimum, succ for the maximum.
	wrap := pos{lab.Frac(), s.self}.sideOf(tuplePos(s.ring)).other()
	against := [3]proto.Tuple{proposed[left], proposed[right], proposed[wrap]}
	for i, t := range [3]proto.Tuple{s.nb[left], s.nb[right], s.ring} {
		if closer(t, against[i]) {
			s.send(ctx, RuleRequestCloser, s.supervisor, proto.GetConfiguration{V: t.Ref})
		}
	}
}

// grantDeparture finalizes an unsubscribe: label ⊥, all edges dropped, and
// RemoveConnections sent to every known neighbour.
func (s *Subscriber) grantDeparture(ctx sim.Context) {
	s.neighbours()
	for _, t := range s.ftCache {
		s.send(ctx, RuleDepart, t.Ref, proto.RemoveConnections{V: s.self})
	}
	s.setLabel(label.Bottom)
	for _, slot := range s.slots() {
		s.setSlot(slot, proto.Tuple{})
	}
	if len(s.shortcuts) > 0 {
		s.shortcuts = make(map[label.Label]sim.NodeID)
		s.version++
	}
	s.departed = true
	s.leaving = false
}

// onCheck answers the periodic self-introduction: correct the sender's
// stale view of our label, or accept the introduction (Algorithm 1 Check).
func (s *Subscriber) onCheck(ctx sim.Context, c proto.Check) {
	if s.lab.IsBottom() {
		s.refuse(ctx, c.Sender.Ref)
		return
	}
	if c.YourLabel != s.lab {
		s.send(ctx, RuleLabelCorrection, c.Sender.Ref, proto.Introduce{C: s.selfTuple(), Flag: c.Flag})
		return
	}
	s.handleIntroduce(ctx, c.Sender, c.Flag)
}

// refuse answers an introduction of ref while we are ⊥-labelled: ref must
// delete its edges to us (Lemma 6).
func (s *Subscriber) refuse(ctx sim.Context, ref sim.NodeID) {
	if ref != s.self && ref != sim.None {
		s.send(ctx, RuleRefuse, ref, proto.RemoveConnections{V: s.self})
	}
}

func (s *Subscriber) onLinearizeMsg(ctx sim.Context, v proto.Tuple) {
	if s.lab.IsBottom() {
		s.refuse(ctx, v.Ref)
		return
	}
	s.correctStoredLabel(v)
	s.linearize(ctx, v)
}

// handleIntroduce processes an Introduce (Algorithm 2): ⊥-labelled nodes
// refuse with RemoveConnections; otherwise the candidate's label corrects
// stale stored tuples, and it is processed as cycle-closure (CYC) or list
// (LIN) traffic.
func (s *Subscriber) handleIntroduce(ctx sim.Context, c proto.Tuple, flag proto.Flag) {
	if s.lab.IsBottom() {
		s.refuse(ctx, c.Ref)
		return
	}
	if c.Ref == s.self || c.Ref == sim.None || c.L.IsBottom() {
		return
	}
	s.correctStoredLabel(c)
	if flag == proto.CYC {
		s.handleCYC(ctx, c)
		return
	}
	s.linearize(ctx, c)
}

// correctStoredLabel updates stored tuples whose reference matches c but
// whose label is stale (Algorithm 1 lines 16–22 and Algorithm 2 lines
// 18–23): if the tuple stays on the same side it is relabelled in place,
// otherwise the slot is cleared (the candidate is then re-placed by the
// caller's linearization).
func (s *Subscriber) correctStoredLabel(c proto.Tuple) {
	me, cp := s.selfPos(), tuplePos(c)
	// A list neighbour stays only if c is still on its side; the closure
	// edge keeps pointing at the opposite extreme only if c stays on the
	// edge's side.
	stays := [3]bool{left.nearer(me, cp), right.nearer(me, cp), me.sideOf(cp) == me.sideOf(tuplePos(s.ring))}
	for i, slot := range s.slots() {
		if slot.IsBottom() || slot.Ref != c.Ref || slot.L == c.L {
			continue
		}
		if stays[i] {
			s.setSlot(slot, c)
		} else {
			s.setSlot(slot, proto.Tuple{})
		}
	}
	// Shortcut slots are keyed by label: a slot holding c's reference under
	// a different label is stale (c has exactly one label). Clear it — the
	// level-pair introductions refill it with a verified owner. Without
	// this, stale (label, ref) pairs survive in shortcut slots and keep
	// re-infecting neighbours through IntroduceShortcut.
	for slot, ref := range s.shortcuts {
		if ref == c.Ref && slot != c.L {
			s.shortcuts[slot] = sim.None
			s.version++
		}
	}
}

// handleCYC routes or adopts a cyclic-closure candidate (Algorithm 2
// Introduce with flag CYC).
func (s *Subscriber) handleCYC(ctx sim.Context, c proto.Tuple) {
	me := s.selfPos()
	cp := tuplePos(c)
	if cp == me {
		return
	}
	d := me.sideOf(cp)
	if s.ring.IsBottom() {
		// A candidate on side d closes the ring at the extreme opposite d:
		// adopt it if that is us (the maximum adopts the minimum and vice
		// versa), otherwise pass it on toward that extreme.
		if inner := s.nb[d.other()]; !inner.IsBottom() {
			s.send(ctx, RuleClosurePass, inner.Ref, proto.Introduce{C: c, Flag: proto.CYC})
			return
		}
		s.fired[RuleClosureAdopt]++
		s.setSlot(&s.ring, c)
		return
	}
	rp := tuplePos(s.ring)
	if d == me.sideOf(rp) {
		// Same side: keep the farther node as the closure edge, linearize
		// the closer one (Algorithm 2 lines 30–34).
		if c.Ref == s.ring.Ref {
			return
		}
		far, near := s.ring, c
		if distance(me, cp) > distance(me, rp) {
			s.fired[RuleClosureAdopt]++
			far, near = c, s.ring
		}
		s.setSlot(&s.ring, far)
		s.linearize(ctx, near)
		return
	}
	// Opposite sides: we cannot be the extreme both ways; re-linearize both
	// (Algorithm 2 lines 35–38).
	s.fired[RuleReside]++
	old := s.ring
	s.setSlot(&s.ring, proto.Tuple{})
	s.linearize(ctx, old)
	s.linearize(ctx, c)
}

// distance is the linear distance between two positions, used only to pick
// the farther of two same-side closure candidates.
func distance(a, b pos) uint64 {
	if a.frac > b.frac {
		return a.frac - b.frac
	}
	return b.frac - a.frac
}

// linearize places candidate c in the sorted list (the BuildList protocol,
// Algorithm 1 Linearize): adopt it if it is closer than the current
// neighbour on its side, delegating the displaced node toward c; otherwise
// delegate c toward its position.
func (s *Subscriber) linearize(ctx sim.Context, c proto.Tuple) {
	if c.Ref == s.self || c.Ref == sim.None || c.L.IsBottom() {
		return
	}
	s.correctStoredLabel(c)
	me := s.selfPos()
	cp := tuplePos(c)
	if cp.frac == me.frac {
		// A node claiming our own label: a duplicate that only the
		// supervisor can resolve (or a stale reference to a node that used
		// to hold it). Never adopt; refer it to the supervisor.
		s.send(ctx, RuleReferDuplicate, s.supervisor, proto.GetConfiguration{V: c.Ref})
		return
	}
	d := me.sideOf(cp)
	o := s.nb[d]
	switch {
	case o.IsBottom():
		s.fired[RuleAdopt]++
		s.setSlot(&s.nb[d], c)
	case c.Ref != o.Ref && cp.frac == o.L.Frac():
		// A candidate at the occupant's exact position is a duplicate
		// label — possibly a stale reference to a crashed node. Swapping
		// on an ID tie-break would let dead references displace live
		// ones forever; keep the occupant (our own SetData refresh is
		// authoritative for this slot) and refer the claimant to the
		// supervisor, where a live duplicate is corrected and a dead one
		// evaporates.
		s.send(ctx, RuleReferDuplicate, s.supervisor, proto.GetConfiguration{V: c.Ref})
	case d.nearer(cp, tuplePos(o)):
		// c lies strictly between the occupant and us: adopt it and
		// delegate the occupant toward it.
		s.setSlot(&s.nb[d], c)
		s.send(ctx, RuleDelegateDisplaced, c.Ref, proto.Linearize{V: o})
	case c.Ref != o.Ref:
		s.send(ctx, RuleDelegateCandidate, o.Ref, proto.Linearize{V: c})
	}
	// Otherwise c is the occupant, its label already corrected above.
}

// removeConnections deletes every edge to v (sent by departing or
// ⊥-labelled nodes, Lemma 6).
func (s *Subscriber) removeConnections(v sim.NodeID) {
	if v == sim.None {
		return
	}
	s.dropRef(v)
	for l, ref := range s.shortcuts {
		if ref == v {
			s.shortcuts[l] = sim.None
			s.version++
		}
	}
}

// onIntroduceShortcut adopts a shortcut introduction (Algorithm 4
// IntroduceShortcut): if we maintain a slot for T's label, occupy it and
// re-linearize any displaced occupant; otherwise treat T as a list
// candidate.
func (s *Subscriber) onIntroduceShortcut(ctx sim.Context, t proto.Tuple) {
	if s.lab.IsBottom() {
		s.refuse(ctx, t.Ref)
		return
	}
	if t.Ref == s.self || t.Ref == sim.None || t.L.IsBottom() {
		return
	}
	if old, ok := s.shortcuts[t.L]; ok {
		if old != t.Ref {
			s.shortcuts[t.L] = t.Ref
			s.version++
			if old != sim.None && old != s.self {
				s.linearize(ctx, proto.Tuple{L: t.L, Ref: old})
			}
			// Verify the adoption: if T's real label differs, it replies
			// with an Introduce carrying the truth, and correctStoredLabel
			// clears this slot again. Adoptions only happen when the slot
			// changes, so a legitimate state stays silent.
			s.send(ctx, RuleShortcutAdopt, t.Ref, proto.Check{Sender: s.selfTuple(), YourLabel: t.L, Flag: proto.LIN})
		}
		return
	}
	s.linearize(ctx, t)
}

// ---- test hooks: corrupted initial states ----

// ForceState overwrites the instance's explicit state (arbitrary initial
// states of the self-stabilization experiments).
func (s *Subscriber) ForceState(lab label.Label, left, right, ring proto.Tuple, shortcuts map[label.Label]sim.NodeID) {
	s.lab = lab
	s.nb, s.ring = [2]proto.Tuple{left, right}, ring
	s.shortcuts = make(map[label.Label]sim.NodeID)
	for l, v := range shortcuts {
		s.shortcuts[l] = v
	}
	s.version++
}
