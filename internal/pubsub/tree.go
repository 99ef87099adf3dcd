package pubsub

import (
	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
)

// Split cuts arc a among the flood targets of a node at ring position self
// — the forwarding-tree step of Section 4.3. targets must be sorted by
// position (core.Subscriber.FloodTargets is). The points are the targets
// inside the arc plus the node itself, in clockwise order from a.Lo; the
// boundary between two consecutive points is the midpoint between them
// (rounded toward the later one, so each point stays inside its own
// piece), the first piece starts at a.Lo and the last ends at a.Hi. visit
// is called once per target inside the arc, in clockwise order, with that
// target's piece; the node keeps its own piece. A whole-ring arc (the
// origin's) is split at the node's antipode.
//
// On a legitimate skip ring a node's own piece holds no other member —
// its ring neighbours are its nearest points on either side — so the
// pieces partition the arc's remaining members, and the recursion reaches
// every member exactly once. On any other overlay the copies still stop
// after one forward per node; anti-entropy covers what a stale view
// misses.
func Split(self uint64, targets []proto.Tuple, a proto.Arc, visit func(to sim.NodeID, piece proto.Arc)) {
	if a.Lo == a.Hi {
		a.Lo = self + 1<<63
		a.Hi = a.Lo
	}
	start := 0
	for start < len(targets) && targets[start].L.Frac() < a.Lo {
		start++
	}
	var (
		lo      = a.Lo     // where the pending point's piece starts
		prev    uint64     // the pending point's offset from a.Lo
		pending sim.NodeID // the pending point; sim.None is the node itself
		have    bool       // whether there is a pending point
	)
	point := func(off uint64, id sim.NodeID) {
		if have {
			d := off - prev
			b := a.Lo + prev + d/2 + d&1
			if pending != sim.None {
				visit(pending, proto.Arc{Lo: lo, Hi: b})
			}
			lo = b
		}
		prev, pending, have = off, id, true
	}
	selfOff, selfLeft := self-a.Lo, a.Contains(self)
	for k := range targets {
		t := targets[(start+k)%len(targets)]
		p := t.L.Frac()
		if !a.Contains(p) {
			continue
		}
		if selfLeft && selfOff <= p-a.Lo {
			point(selfOff, sim.None)
			selfLeft = false
		}
		point(p-a.Lo, t.Ref)
	}
	if selfLeft {
		point(selfOff, sim.None)
	}
	if have && pending != sim.None {
		visit(pending, proto.Arc{Lo: lo, Hi: a.Hi})
	}
}

// forward sends flood body b down the tree: one copy per target inside
// b's arc, each carrying its piece.
func (e *Engine) forward(ctx sim.Context, b proto.PublishNew) {
	Split(e.cfg.Position(), e.cfg.FloodTargets(), b.Arc, func(to sim.NodeID, piece proto.Arc) {
		c := b
		c.Arc = piece
		ctx.Send(to, e.cfg.Topic, c)
	})
}
