// Package pubsub implements the self-stabilizing publication protocol of
// Sections 4.2 and 4.3 (Algorithm 5 of Feldmann et al.).
//
// Every subscriber stores its topic's publications in a hashed Patricia
// trie. A periodic anti-entropy exchange (CheckTrie / CheckAndPublish /
// Publish) reconciles neighbouring tries along ring edges, guaranteeing
// that all subscribers eventually store all publications (Theorem 17);
// a flooding layer (PublishNew) over ring and shortcut edges delivers
// fresh publications in O(log n) hops (Section 4.3).
//
// The flooding layer sends each subscriber one copy: a publication travels
// a per-origin spanning tree cut from the skip ring by arcs (tree.go). The
// origin covers the whole ring; every node forwards once, to the
// neighbours inside its arc, handing each the sub-arc between the
// midpoints to its neighbouring points. The tree has no state and no
// repair protocol of its own: a copy lost to a stale view is a latency
// event that anti-entropy closes, not a loss.
//
// On topics with an ordered delivery mode (internal/ordering), storage and
// flooding are unchanged — the PublishNew body also carries the
// publisher's sequence number (and, in causal mode, a bounded causal
// barrier), and only the delivery callback is reordered through a
// per-topic ordering.Buffer.
package pubsub

import (
	"math/rand"

	"sspubsub/internal/ordering"
	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
	"sspubsub/internal/trie"
)

// Config wires an Engine to its host subscriber.
type Config struct {
	// Self is the hosting node; Topic the topic this engine serves.
	Self  sim.NodeID
	Topic sim.Topic
	// KeyLen is the system-wide publication key width m (Section 4.2).
	KeyLen uint8
	// RingNeighbors returns the current direct ring neighbours (left,
	// right, ring) — the anti-entropy gossip partners.
	RingNeighbors func() []proto.Tuple
	// Position returns the host's ring position (its label's Frac), and
	// FloodTargets all neighbours in ER ∪ ES sorted by position: the
	// forwarding tree is cut from them.
	Position     func() uint64
	FloodTargets func() []proto.Tuple
	// OnDeliverMeta, if non-nil, is invoked exactly once per publication
	// that becomes locally known (once per time it becomes known: with a
	// HistoryCap an evicted publication can be relearned through
	// anti-entropy and delivered again — at-least-once in bounded mode),
	// with the delivery's ordering provenance (a zero Meta on best-effort
	// topics). On ordered topics, deliveries pass through the reorder
	// buffer first.
	OnDeliverMeta func(proto.Publication, ordering.Meta)

	// Mode is the topic's delivery mode. BestEffort leaves the delivery
	// path exactly as the paper specifies; FIFO/Causal interpose a bounded
	// self-stabilizing reorder buffer (internal/ordering).
	Mode ordering.Mode

	// HistoryCap bounds the number of publications retained in the trie;
	// when exceeded, the publications with the smallest keys are evicted.
	// At widths with an age-ordered key (trie.HashBits) the smallest key
	// is the oldest clock bucket, so a capped trie keeps the newest
	// publications; within a bucket the order is the hash's. 0 means
	// unlimited — the paper's model, where the trie grows monotonically
	// ("no publish messages are deleted", Theorem 17). Eviction by
	// smallest key keeps the retained set a pure function of the known
	// set, so capped replicas still converge to identical tries.
	HistoryCap int

	// DisableFlooding turns off the PublishNew layer (ablation: anti-entropy
	// only, as in the convergence proof of Theorem 17).
	DisableFlooding bool
	// DisableAntiEntropy turns off the periodic CheckTrie exchange
	// (ablation: flooding only, which cannot serve late joiners).
	DisableAntiEntropy bool
}

// clockClamp is Δ: one stored key moves the clock at most this many
// buckets ahead, so a corrupted key cannot drag it far (see mergeClock).
const clockClamp = 4

// Engine is the per-topic publication state machine of one subscriber.
type Engine struct {
	cfg Config
	t   *trie.Trie

	// clock is the clock bucket fresh publications are keyed under
	// (trie.KeyFor). It advances one per OnTimeout and max-merges from
	// every stored key, so subscribers' clocks stay close and a fresh key
	// lands next to the recent ones. It is advisory: any value keeps
	// delivery correct. Only its low trie.BucketBits bits are read.
	clock uint64

	// Ordered-mode state (nil / zero on best-effort topics).
	ord     *ordering.Buffer
	nextSeq uint64
	ticks   uint64
}

// NewEngine creates an engine with an empty trie.
func NewEngine(cfg Config) *Engine {
	if cfg.KeyLen == 0 {
		cfg.KeyLen = 64
	}
	e := &Engine{cfg: cfg, t: trie.New(cfg.KeyLen)}
	if cfg.Mode != ordering.BestEffort {
		e.ord = ordering.New(cfg.Mode, cfg.Self, e.emit)
	}
	return e
}

// Trie exposes the underlying Patricia trie (read-only use).
func (e *Engine) Trie() *trie.Trie { return e.t }

// Publications returns all locally known publications in key order.
func (e *Engine) Publications() []proto.Publication { return e.t.All() }

// emit hands one delivery to the application callback.
func (e *Engine) emit(p proto.Publication, m ordering.Meta) {
	if e.cfg.OnDeliverMeta != nil {
		e.cfg.OnDeliverMeta(p, m)
	}
}

// Publish creates, stores and floods a new publication authored by the
// host ("whenever a subscriber u generates a new publication p, u inserts
// p into u.T and broadcasts p over the ring"): the origin's arc is the
// whole ring. On ordered topics the flood body additionally carries the
// publisher's sequence number (and, in causal mode, the bounded causal
// barrier).
func (e *Engine) Publish(ctx sim.Context, payload string) proto.Publication {
	p := trie.NewPublication(e.cfg.KeyLen, e.clock, e.cfg.Self, payload)
	b := proto.PublishNew{Pub: p}
	if e.ord != nil {
		e.nextSeq++
		b.Seq, b.Barrier = e.nextSeq, e.ord.Barrier()
	}
	e.onFlood(ctx, b)
	return p
}

// insertStore inserts p into the trie (with HistoryCap eviction) without
// delivering it. It reports whether p was new and, for a flooded copy
// (flood set), whether this node still owes p its one forward.
func (e *Engine) insertStore(p proto.Publication, flood bool) (added, forward bool) {
	if p.Key.Len != e.t.KeyLen() {
		return false, false // corrupted message with a foreign key width
	}
	if flood {
		added, forward = e.t.InsertFlood(p)
	} else {
		added = e.t.Insert(p)
	}
	if !added {
		return false, forward
	}
	e.mergeClock(p.Key)
	for e.cfg.HistoryCap > 0 && e.t.Len() > e.cfg.HistoryCap {
		e.t.DeleteMin()
	}
	return true, forward
}

// insert stores p and delivers it along the unsequenced path: directly on
// best-effort topics, flagged Recovered through the buffer on ordered
// topics (anti-entropy carries no ordering metadata).
func (e *Engine) insert(p proto.Publication) {
	if added, _ := e.insertStore(p, false); !added {
		return
	}
	if e.ord != nil {
		e.ord.Recovered(p)
	} else {
		e.emit(p, ordering.Meta{})
	}
}

// mergeClock max-merges the clock from a stored key's bucket, clamped at
// clock + clockClamp. Buckets compare in serial-number arithmetic mod
// 2^BucketBits: a bucket less than half the range ahead counts as ahead,
// so the merge keeps working across a wrap.
func (e *Engine) mergeClock(k proto.Key) {
	b := trie.BucketBits(k.Len)
	if b == 0 {
		return
	}
	mask := uint64(1)<<b - 1
	ahead := (trie.Bucket(k) - e.clock) & mask
	if ahead == 0 || ahead > mask>>1 {
		return
	}
	e.clock += min(ahead, clockClamp)
}

// CorruptClock overwrites the clock with garbage — part of the
// state-corruption fault. Only locality and eviction order notice.
func (e *Engine) CorruptClock(rng *rand.Rand) { e.clock = rng.Uint64() }

// CorruptOrdering scrambles the engine's ordering state in place — the
// corrupt-ordering chaos fault. No-op on best-effort topics, which hold no
// ordering state.
func (e *Engine) CorruptOrdering(rng *rand.Rand) {
	if e.ord == nil {
		return
	}
	e.ord.Corrupt(rng)
	if rng.Intn(2) == 0 {
		// Scramble the publisher counter too. Downward makes receivers see
		// sequences below their cursors, reused by new publications (each
		// still delivered, flagged; far below, the cursor resyncs); upward
		// makes them declare a gap lost and jump.
		if rng.Intn(2) == 0 && e.nextSeq > 0 {
			e.nextSeq = uint64(rng.Int63n(int64(e.nextSeq + 1)))
		} else {
			e.nextSeq += uint64(rng.Intn(4 * ordering.Window))
		}
	}
}

// OnTimeout is the PublishTimeout action (Algorithm 5 lines 1–4): send our
// root summary to one random direct ring neighbour. It also advances the
// key clock and, on ordered topics, drives the reorder buffer's clock
// (age-out of held publications).
func (e *Engine) OnTimeout(ctx sim.Context) {
	e.clock++
	if e.ord != nil {
		e.ticks++
		e.ord.Tick(e.ticks)
	}
	if e.cfg.DisableAntiEntropy {
		return
	}
	nbs := e.cfg.RingNeighbors()
	if len(nbs) == 0 {
		return
	}
	root, ok := e.t.RootSummary()
	if !ok {
		return // empty trie: our neighbour's probe toward us will find the gap
	}
	nb := nbs[ctx.Rand().Intn(len(nbs))]
	ctx.Send(nb.Ref, e.cfg.Topic, proto.CheckTrie{Sender: e.cfg.Self, Nodes: []proto.NodeSummary{root}})
}

// OnMessage handles publication-protocol messages; it reports false for
// bodies that belong to other protocols.
func (e *Engine) OnMessage(ctx sim.Context, m sim.Message) bool {
	switch b := m.Body.(type) {
	case proto.CheckTrie:
		e.checkTrie(ctx, b.Sender, b.Nodes)
	case proto.CheckAndPublish:
		e.checkTrie(ctx, b.Sender, b.Nodes)
		if pubs := e.t.CollectPrefix(b.Prefix); len(pubs) > 0 {
			ctx.Send(b.Sender, e.cfg.Topic, proto.PublishBatch{Pubs: pubs})
		}
	case proto.PublishBatch:
		for _, p := range b.Pubs {
			e.insert(p)
		}
	case proto.PublishNew:
		e.onFlood(ctx, b)
	default:
		return false
	}
	return true
}

// onFlood handles one flooded copy — received, or the origin's own: store,
// deliver (through the reorder buffer on ordered topics), and forward down
// the tree if this is the first copy to reach this node. A copy of a
// publication already learned through anti-entropy is still forwarded, or
// the subtree below would starve. A sequenced copy reaching a best-effort
// engine (engines configured with different delivery modes) degrades
// gracefully to best-effort delivery — the metadata is ignored, never an
// error — and an unsequenced copy (Seq 0) reaching an ordered engine is
// delivered Recovered, like an anti-entropy arrival.
func (e *Engine) onFlood(ctx sim.Context, b proto.PublishNew) {
	p := b.Pub
	added, forward := e.insertStore(p, true)
	switch {
	case added && e.ord == nil:
		e.emit(p, ordering.Meta{})
	case added && b.Seq == 0:
		e.ord.Recovered(p)
	case added:
		e.ord.Arrive(p, b.Seq, b.Barrier)
	case forward && e.ord != nil && b.Seq != 0:
		// Anti-entropy delivered p first (Recovered); its sequence still
		// has to move the publisher's cursor.
		e.ord.Known(p, b.Seq, b.Barrier)
	}
	if forward && !e.cfg.DisableFlooding {
		e.forward(ctx, b)
	}
}

// checkTrie implements the three cases of the CheckTrie action
// (Section 4.2): for each received (label, hash) summary,
//
//  1. equal node hashes — subtries match, no reply;
//  2. differing hashes on an inner node — descend by replying with the two
//     child summaries;
//  3. label unknown here — the sender's subtrie is missing locally: reply
//     CheckAndPublish naming the node below the divergence (to continue the
//     walk) and the prefix of the publications we lack.
func (e *Engine) checkTrie(ctx sim.Context, sender sim.NodeID, nodes []proto.NodeSummary) {
	if sender == e.cfg.Self || sender == sim.None {
		return
	}
	for _, ns := range nodes {
		v := e.t.Find(ns.Label)
		if v != nil {
			if e.t.Digest(v) == ns.Hash {
				continue // subtries equal
			}
			if !v.IsLeaf() {
				ctx.Send(sender, e.cfg.Topic, proto.CheckTrie{
					Sender: e.cfg.Self,
					Nodes:  []proto.NodeSummary{e.t.Summary(e.t.Child(v, 0)), e.t.Summary(e.t.Child(v, 1))},
				})
			}
			// Leaf with differing hash cannot happen under a
			// collision-resistant h; nothing sensible to do.
			continue
		}
		// Case (iii): no node labelled ns.Label. Find c, the shallowest node
		// whose label properly extends it.
		c := e.t.FindAtOrBelow(ns.Label)
		if c != nil {
			b1 := trie.KeyBit(c.Label, ns.Label.Len)
			missing := trie.AppendBit(ns.Label, 1-b1)
			ctx.Send(sender, e.cfg.Topic, proto.CheckAndPublish{
				Sender: e.cfg.Self,
				Nodes:  []proto.NodeSummary{e.t.Summary(c)},
				Prefix: missing,
			})
		} else {
			// Nothing under this prefix at all: ask for everything below it.
			ctx.Send(sender, e.cfg.Topic, proto.CheckAndPublish{
				Sender: e.cfg.Self,
				Prefix: ns.Label,
			})
		}
	}
}
