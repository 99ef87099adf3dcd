package ordering

import (
	"sort"

	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
)

// Buffer is one subscriber's ordering state for one topic: the bounded
// per-publisher cursors plus the bounded pending set of publications whose
// gap or barrier is not yet satisfied. It sits between the storage layer
// (which inserts and forwards publications immediately in every mode — the
// trie and the flood are ordering-agnostic) and the application delivery
// callback, reordering only the callback. The trie is the one duplicate
// filter: the buffer is handed each publication once, when the trie first
// stores it, so it keeps no delivered-set of its own.
//
// The Buffer is not safe for concurrent use; like the rest of a protocol
// node's state it is driven from the node's handler goroutine.
type Buffer struct {
	mode Mode
	self sim.NodeID
	emit func(proto.Publication, Meta)

	now     uint64
	curs    map[sim.NodeID]*cursor
	pending []pend // kept sorted by (origin, seq)
}

// cursor is the bounded FIFO state for one publisher.
type cursor struct {
	// next is the next expected sequence (sequences start at 1; next is 1
	// for a publisher nothing was delivered from, so next-1 is always the
	// highest contiguously delivered sequence).
	next uint64
	// touch is the tick of the last arrival (eviction order).
	touch uint64
}

// pend is one held publication.
type pend struct {
	p       proto.Publication
	seq     uint64
	barrier []proto.BarrierEntry
	added   uint64
	// known marks a publication the application already has (Known): it
	// moves its cursor like any other but is never emitted again.
	known bool
}

// out emits e's delivery unless the application already has it.
func (b *Buffer) out(e pend, m Meta) {
	if !e.known {
		b.emit(e.p, m)
	}
}

// New creates a Buffer for the given mode. emit receives every delivery,
// annotated with its ordering provenance. self is the owning subscriber
// (excluded from its own barrier summaries).
func New(mode Mode, self sim.NodeID, emit func(proto.Publication, Meta)) *Buffer {
	return &Buffer{
		mode: mode,
		self: self,
		emit: emit,
		curs: make(map[sim.NodeID]*cursor),
	}
}

// Mode returns the buffer's delivery mode.
func (b *Buffer) Mode() Mode { return b.mode }

// PendingLen reports how many publications are currently held.
func (b *Buffer) PendingLen() int { return len(b.pending) }

// cur returns (creating, evicting if needed) the cursor for origin.
func (b *Buffer) cur(origin sim.NodeID) *cursor {
	if c, ok := b.curs[origin]; ok {
		return c
	}
	if len(b.curs) >= MaxPublishers {
		b.evictCursor()
	}
	c := &cursor{next: 1, touch: b.now}
	b.curs[origin] = c
	return c
}

// evictCursor removes the least-recently-touched cursor (ties broken by
// the smallest origin, so the choice is independent of map iteration
// order). Pending publications of the evicted publisher are force-
// delivered: at-least-once beats silent loss.
func (b *Buffer) evictCursor() {
	var victim sim.NodeID
	found := false
	for id, c := range b.curs {
		if !found || c.touch < b.curs[victim].touch ||
			(c.touch == b.curs[victim].touch && id < victim) {
			victim, found = id, true
		}
	}
	if !found {
		return
	}
	kept := b.pending[:0]
	var orphans []pend
	for _, e := range b.pending {
		if e.p.Origin == victim {
			orphans = append(orphans, e)
		} else {
			kept = append(kept, e)
		}
	}
	b.pending = kept
	for _, e := range orphans { // already (origin, seq) sorted
		b.out(e, Meta{Seq: e.seq, Forced: true, Barrier: e.barrier})
	}
	delete(b.curs, victim)
}

// covered reports whether every barrier entry is satisfied by the local
// cursors (the publication's causal predecessors were delivered here).
func (b *Buffer) covered(barrier []proto.BarrierEntry) bool {
	for _, e := range barrier {
		c, ok := b.curs[e.Origin]
		if !ok || c.next <= e.Seq {
			return false
		}
	}
	return true
}

// Arrive feeds one sequenced publication (the flood path). barrier is nil
// in FIFO mode. Deliveries it unblocks — including previously pending
// publications — are emitted before Arrive returns.
func (b *Buffer) Arrive(p proto.Publication, seq uint64, barrier []proto.BarrierEntry) {
	b.arrive(pend{p: p, seq: seq, barrier: barrier})
}

// Known feeds the sequenced copy of a publication the application already
// has — delivered through Recovered because anti-entropy outran the flood.
// It moves the cursor exactly as Arrive would but emits nothing for p;
// without it the publisher's later publications would wait out ForceAfter
// behind a gap that is no gap.
func (b *Buffer) Known(p proto.Publication, seq uint64, barrier []proto.BarrierEntry) {
	b.arrive(pend{p: p, seq: seq, barrier: barrier, known: true})
}

func (b *Buffer) arrive(e pend) {
	c := b.cur(e.p.Origin)
	c.touch = b.now
	b.dispatch(e)
	b.drain()
}

// dispatch routes one arrival against its cursor: deliver, buffer,
// declare loss or resync.
func (b *Buffer) dispatch(e pend) {
	seq, barrier := e.seq, e.barrier
	c := b.cur(e.p.Origin)
	if seq == 0 {
		// A sequenced frame with no sequence is corrupted metadata; hand
		// the payload through flagged rather than inventing an order.
		b.out(e, Meta{Forced: true})
		return
	}
	switch {
	case seq < c.next:
		// Below the cursor: a straggler whose gap was declared lost, or a
		// publisher whose counter regressed. Deliver flagged — outside the
		// order, never lost. Far below, the cursor rather than the stream
		// is wrong (corrupted upward, or the counter wrapped): resync it.
		if c.next-seq > Window {
			c.next = seq + 1
		}
		b.out(e, Meta{Seq: seq, Forced: true, Barrier: barrier})
	case seq == c.next && b.covered(barrier):
		b.out(e, Meta{Seq: seq, Barrier: barrier})
		c.next = seq + 1
	case seq >= c.next+Window:
		// Gap declared loss: the missing sequences are either actually
		// lost (anti-entropy will recover the payloads, flagged
		// Recovered) or the cursor is corrupted downward — either way the
		// cursor advances so the stream cannot deadlock.
		m := Meta{Seq: seq, Barrier: barrier}
		if !b.covered(barrier) {
			m.Forced = true
		}
		b.out(e, m)
		c.next = seq + 1
	default:
		b.hold(e)
	}
}

// hold buffers a not-yet-deliverable publication in the bounded pending
// set, force-delivering the oldest entry on overflow.
func (b *Buffer) hold(e pend) {
	if len(b.pending) >= PendingCap {
		b.forceOldest()
	}
	i := sort.Search(len(b.pending), func(i int) bool {
		h := b.pending[i]
		return h.p.Origin > e.p.Origin || (h.p.Origin == e.p.Origin && h.seq >= e.seq)
	})
	b.pending = append(b.pending, pend{})
	copy(b.pending[i+1:], b.pending[i:])
	e.added = b.now
	b.pending[i] = e
}

// forceOldest force-delivers the longest-held pending entry (ties broken
// by (origin, seq) — the pending set's storage order).
func (b *Buffer) forceOldest() {
	oldest := -1
	for i, e := range b.pending {
		if oldest < 0 || e.added < b.pending[oldest].added {
			oldest = i
		}
	}
	if oldest < 0 {
		return
	}
	e := b.pending[oldest]
	b.pending = append(b.pending[:oldest], b.pending[oldest+1:]...)
	b.force(e)
}

// force emits a pending entry flagged and advances its cursor so the
// publisher's stream keeps moving.
func (b *Buffer) force(e pend) {
	if c := b.cur(e.p.Origin); e.seq >= c.next {
		c.next = e.seq + 1
	}
	b.out(e, Meta{Seq: e.seq, Forced: true, Barrier: e.barrier})
}

// drain delivers pending publications whose condition is now satisfied,
// and resolves entries the cursors have moved past, until a fixpoint. The
// scan order is the pending set's (origin, seq) order — deterministic.
func (b *Buffer) drain() {
	for {
		progressed := false
		for i := 0; i < len(b.pending); i++ {
			e := b.pending[i]
			c := b.cur(e.p.Origin)
			switch {
			case e.seq < c.next:
				// The cursor moved past it while held: a straggler now.
				b.pending = append(b.pending[:i], b.pending[i+1:]...)
				b.force(e)
				progressed = true
			case e.seq == c.next && b.covered(e.barrier):
				b.pending = append(b.pending[:i], b.pending[i+1:]...)
				b.out(e, Meta{Seq: e.seq, Barrier: e.barrier})
				c.next = e.seq + 1
				progressed = true
			}
			if progressed {
				break
			}
		}
		if !progressed {
			return
		}
	}
}

// Tick advances the buffer's clock and force-delivers pending entries
// older than ForceAfter ticks: causality (and gap-filling) is enforced
// while the metadata is healthy and degrades to bounded-delay delivery
// when it is not.
func (b *Buffer) Tick(now uint64) {
	b.now = now
	for {
		expired := -1
		for i, e := range b.pending {
			if now-e.added >= ForceAfter {
				expired = i
				break // pending is (origin, seq) sorted: first hit is deterministic
			}
		}
		if expired < 0 {
			break
		}
		e := b.pending[expired]
		b.pending = append(b.pending[:expired], b.pending[expired+1:]...)
		b.force(e)
	}
	b.drain()
}

// Recovered emits a publication that arrived through anti-entropy
// reconciliation: it carries no sequencing, so it bypasses the cursors and
// is flagged exempt from the ordering invariants.
func (b *Buffer) Recovered(p proto.Publication) {
	b.emit(p, Meta{Recovered: true})
}

// Barrier summarizes this subscriber's delivery frontier as a bounded
// causal barrier for an outgoing publication: the BarrierCap highest
// delivered sequences across tracked publishers, excluding self. Eviction
// (smallest sequence first, ties by smallest origin) is deterministic.
func (b *Buffer) Barrier() []proto.BarrierEntry {
	if b.mode != Causal {
		return nil
	}
	entries := make([]proto.BarrierEntry, 0, len(b.curs))
	for id, c := range b.curs {
		if id == b.self || c.next <= 1 {
			continue
		}
		entries = append(entries, proto.BarrierEntry{Origin: id, Seq: c.next - 1})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Seq != entries[j].Seq {
			return entries[i].Seq > entries[j].Seq
		}
		return entries[i].Origin < entries[j].Origin
	})
	if len(entries) > BarrierCap {
		entries = entries[:BarrierCap]
	}
	return entries
}
