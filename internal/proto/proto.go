// Package proto defines the wire messages of the BuildSR protocol and the
// publication protocol, shared by the supervisor (Algorithm 3), the
// subscribers (Algorithms 1, 2, 4) and the publication engine (Algorithm 5).
//
// Every message is carried inside a sim.Message envelope that also records
// the topic, so one physical node can run many per-topic protocol instances
// (Section 4).
package proto

import (
	"fmt"

	"sspubsub/internal/label"
	"sspubsub/internal/sim"
)

// Tuple pairs a node reference with the label the holder believes that node
// has ("If node v ∈ V has an edge to w ∈ V, then v locally stores the tuple
// (label_w, w)", Section 2.2). The stored label can be stale; the Check
// action repairs it.
type Tuple struct {
	L   label.Label
	Ref sim.NodeID
}

// IsBottom reports whether the tuple is ⊥ (no node).
func (t Tuple) IsBottom() bool { return t.Ref == sim.None }

// String renders "label@id" or "⊥".
func (t Tuple) String() string {
	if t.IsBottom() {
		return "⊥"
	}
	return fmt.Sprintf("%s@%d", t.L, t.Ref)
}

// Flag distinguishes introductions along the sorted list from introductions
// for the cyclic closure edge (Algorithms 1–2 use flags LIN and CYC).
type Flag uint8

const (
	// LIN marks list (linearization) traffic.
	LIN Flag = iota
	// CYC marks cycle-closure traffic.
	CYC
)

func (f Flag) String() string {
	if f == CYC {
		return "CYC"
	}
	return "LIN"
}

// ---- Supervisor-bound messages (Algorithm 3) ----

// Subscribe asks the supervisor to integrate the sender into the topic's
// database and send back a configuration. Sent by new subscribers and by
// label-less nodes (action (i) of Section 3.2.1).
type Subscribe struct {
	V sim.NodeID
}

// Unsubscribe asks the supervisor to remove V from the topic's database
// (Section 4.1).
type Unsubscribe struct {
	V sim.NodeID
}

// GetConfiguration asks the supervisor to send node V its current
// configuration (pred, label, succ). V is usually the sender (actions (ii)
// and (iv)) but can be a third node (action (iii) requests a configuration
// on behalf of a ring neighbour).
type GetConfiguration struct {
	V sim.NodeID
}

// ---- Subscriber-bound messages from the supervisor ----

// SetData delivers a configuration (pred_v, label_v, succ_v) from the
// supervisor's database. All-⊥ means "you are not in the database": the
// receiver clears its label and will re-subscribe (or stay out, if it asked
// to leave). Epoch is the sender's ownership epoch for the topic (see the
// supervisor-plane messages below): a receiver that has followed a newer
// owner ignores configurations from third parties carrying an older epoch,
// which is what makes commands from a deposed supervisor harmless.
type SetData struct {
	Pred  Tuple
	Label label.Label
	Succ  Tuple
	Epoch uint64
}

// ---- Subscriber-to-subscriber ring maintenance (Algorithms 1, 2, 4) ----

// Check is the periodic self-introduction of the extended BuildRing
// protocol: the sender introduces itself (Sender, with its current label)
// and tells the receiver which label it has stored for the receiver
// (YourLabel). If YourLabel is stale the receiver replies with its correct
// label; otherwise it processes the introduction.
type Check struct {
	Sender    Tuple
	YourLabel label.Label
	Flag      Flag
}

// Introduce carries a node reference C to the receiver (possibly the sender
// itself, possibly a delegated third node) with the list/cycle flag.
type Introduce struct {
	C    Tuple
	Flag Flag
}

// Linearize delegates a node reference V along the sorted list (the
// BuildList protocol of Onus et al., extended with label correction).
// From is the sender's own tuple: the receiver accepts V only if its own
// position lies strictly between From and V, so a delegation always moves
// toward V (see package core).
type Linearize struct {
	V    Tuple
	From Tuple
}

// RemoveConnections asks the receiver to delete every edge it stores to
// node V (sent by unsubscribed/label-less nodes, Lemma 6).
type RemoveConnections struct {
	V sim.NodeID
}

// IntroduceShortcut introduces node T as a shortcut (Section 3.2.2): the
// receiver adopts T for the shortcut slot labelled T.L if it maintains that
// slot, and re-linearizes any node it replaces.
type IntroduceShortcut struct {
	T Tuple
}

// ---- Publication protocol (Algorithm 5) ----

// Key is the fixed-width publication key h̄_m(origin, payload), stored as a
// bit string (Section 4.2). Width is configured system-wide; see pubsub.
type Key struct {
	Bits uint64
	Len  uint8
}

// Publication is one published item. Key = h̄_m(Origin, Payload) is its
// Patricia-trie key.
type Publication struct {
	Key     Key
	Origin  sim.NodeID
	Payload string
}

// NodeSummary identifies one Patricia-trie node by its label (a key prefix)
// and its digest (the XOR of the leaf digests below it); CheckTrie messages
// carry summaries only, "ignoring the node's outgoing edges".
type NodeSummary struct {
	Label Key
	Hash  [16]byte
}

// CheckTrie asks the receiver to compare the listed trie nodes against its
// own trie and respond per the three cases of Section 4.2.
type CheckTrie struct {
	Sender sim.NodeID
	Nodes  []NodeSummary
}

// CheckAndPublish combines a CheckTrie for Nodes with the request to send
// every publication whose key has prefix Prefix back to Sender.
type CheckAndPublish struct {
	Sender sim.NodeID
	Nodes  []NodeSummary
	Prefix Key
}

// PublishBatch delivers a set of publications (the paper's Publish(P)).
type PublishBatch struct {
	Pubs []Publication
}

// Arc is the clockwise ring interval [Lo, Hi) in label.Label.Frac units
// that the receiver of a flooded publication must cover: it forwards to
// each of its ring and shortcut neighbours inside the arc, handing each a
// sub-arc, so the copies travel a per-origin spanning tree. Lo == Hi is
// the whole ring — the arc a publication's origin starts from.
type Arc struct {
	Lo, Hi uint64
}

// Contains reports whether ring position p lies in the arc.
func (a Arc) Contains(p uint64) bool { return a.Lo == a.Hi || p-a.Lo < a.Hi-a.Lo }

// PublishNew floods a fresh publication down the forwarding tree over ring
// and shortcut edges (Section 4.3); Arc is the part of the ring the
// receiver must cover. On topics with an ordered delivery mode it also
// carries bounded ordering metadata — storage and forwarding are
// unchanged, only the subscriber-side delivery callback is reordered, by
// internal/ordering:
//
//   - Seq is the publisher's per-topic sequence number, starting at 1; 0
//     means unsequenced (a best-effort topic's publication).
//   - Barrier is the causal-mode summary of the publication's causal
//     predecessors, at most ordering.BarrierCap entries; nil in the other
//     modes. Receivers hold the publication until their own delivery
//     frontier covers the barrier (or the bounded force-delivery timeout
//     fires).
type PublishNew struct {
	Pub     Publication
	Seq     uint64
	Barrier []BarrierEntry
	Arc     Arc
}

// BarrierEntry is one element of a bounded causal-barrier summary: the
// publisher had delivered publications from Origin up to sequence Seq when
// it published.
type BarrierEntry struct {
	Origin sim.NodeID
	Seq    uint64
}

// ---- supervisor plane (crash-tolerant sharded supervision) ----
//
// The paper assumes one reliable supervisor. With topics sharded over
// several supervisors by consistent hashing (Section 1.3), the plane
// itself must self-stabilize: supervisors monitor each other through the
// failure detector, a dead supervisor's topics migrate to their hashdht
// successors, and the successor rebuilds the topic database from the live
// overlay — the database is soft state recoverable from the system, the
// same property the paper's legitimacy proof already relies on. Ownership
// eras are totally ordered per topic by an epoch counter, so messages from
// deposed owners are recognizably stale.

// Reregister is the subscriber half of the WhoSupervises handshake: "I
// believe I am a member of this topic with label Label, last served at
// ownership epoch Epoch — if you own the topic, adopt me into your
// database (preserving my label if it is free) and confirm my
// configuration; otherwise tell me who does." Subscribers send it to the
// announced new owner after a migration, and round-robin over the
// supervisor set when their believed owner has gone silent.
type Reregister struct {
	V     sim.NodeID
	Label label.Label
	Epoch uint64
}

// OwnerAnnounce is the supervisor half of the WhoSupervises handshake: the
// envelope's topic is owned by supervisor Owner at ownership epoch Epoch.
// Sent to subscribers by a deposed owner handing its topics over, and by
// any supervisor answering a request for a topic it does not own.
type OwnerAnnounce struct {
	Owner sim.NodeID
	Epoch uint64
}

// TopicEpoch pairs a topic with the highest ownership epoch the sender has
// observed for it.
type TopicEpoch struct {
	Topic sim.Topic
	Epoch uint64
}

// PlaneGossip is the supervisor-to-supervisor heartbeat payload: the
// sender's hosted topics with their current ownership epochs. Peers learn
// which topics exist (so they can adopt orphans of a crashed owner they
// never served themselves) and how far the epoch counter has advanced (so
// an adoption starts at a fresh era). The envelope's topic field is
// unused: one gossip message covers many topics.
type PlaneGossip struct {
	Entries []TopicEpoch
}

// ---- directory replication (warm-replica supervisor failover) ----
//
// With ReplicationFactor > 0 every topic owner continuously replicates its
// (label, subscriber) database to the topic's hashdht successors, so an
// adopting successor starts from a warm replica instead of an empty
// database and the Reregister rebuild demotes to the fallback repair path.
// Replication itself is self-stabilizing: deltas are fire-and-forget (no
// logs, no acknowledgements), and a periodic anti-entropy digest exchange
// detects any divergence — lost deltas, reordered updates, arbitrary
// replica corruption — and repairs it with a bounded-chunk full sync.

// ReplicaEntry is one (label, subscriber) tuple of a replicated topic
// directory.
type ReplicaEntry struct {
	L label.Label
	V sim.NodeID
}

// ReplicaDelta streams a bounded batch of directory mutations (label
// assignments/replacements in Put, releases in Del) from a topic's owner to
// a replica holder. Epoch is the owner's current ownership era; replicas
// ignore deltas from older eras, which makes a deposed owner's stream
// harmless. Delivery is best-effort — anti-entropy repairs any gap.
type ReplicaDelta struct {
	Epoch uint64
	Put   []ReplicaEntry
	Del   []label.Label
}

// ReplicaDigest is the anti-entropy exchange. With Probe set it is the
// owner's periodic push of its database root digest (an order-independent
// XOR fold of per-entry 16-byte truncated SHA-256 hashes); the replica
// compares and answers — Probe clear, carrying its own digest — only on
// mismatch, which makes the steady state silent. An owner receiving a
// mismatching answer ships a bounded-chunk ReplicaSync.
type ReplicaDigest struct {
	Probe bool
	Epoch uint64
	Count uint64
	Hash  [16]byte
}

// ReplicaSync is one bounded chunk of a full directory sync: chunk Seq of
// Chunks total, for sync round Round at ownership era Epoch. The replica
// stages chunks (chunks of an older round or era are dropped, duplicates
// are idempotent) and atomically replaces its replica when the round is
// complete — so an arbitrarily corrupted replica converges to the owner's
// state without any unbounded log.
type ReplicaSync struct {
	Epoch   uint64
	Round   uint64
	Seq     uint64
	Chunks  uint64
	Entries []ReplicaEntry
}
