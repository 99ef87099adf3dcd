// Ordered index over the topic database: a treap keyed by the r-ordering
// of labels. It replaces the sorted-slice cache that was rebuilt with a full
// O(n log n) sort whenever the database changed — at 10^5+ subscribers that
// rebuild (triggered by every subscribe via the configuration send) turned
// the paper's O(log n) join into O(n log n) and the whole join wave into
// O(n^2 log n). The treap gives O(log n) insert/delete/neighbor/k-th.
//
// Determinism matters here: the deterministic simulator replays runs
// bit-exactly, so the index must not depend on map iteration order or a
// random source. A treap whose priorities are a pure hash of the key has a
// shape that is a function of the key *set* alone — the heap order and BST
// order together determine the tree uniquely, regardless of insertion
// order. Ties in the r-ordering (malformed labels sharing a Frac, possible
// only in corrupted states) are broken by (Len, Bits) so the order is total
// and stable, which the old sort.Slice by Frac alone did not guarantee.

package supervisor

import (
	"sspubsub/internal/label"
	"sspubsub/internal/sim"
)

// onode is one treap node: a (label, subscriber) tuple plus heap priority
// and subtree size (for k-th element queries used by the round-robin
// refresh during a rebuild grace).
type onode struct {
	l           label.Label
	id          sim.NodeID
	prio        uint64
	size        int
	left, right *onode
}

// ordIndex is the treap root. The zero value is an empty index.
type ordIndex struct {
	root *onode
}

// cmpLabel orders labels by ring position (Frac), breaking the corrupted-
// state ties by length then bits. Total and deterministic.
func cmpLabel(a, b label.Label) int {
	af, bf := a.Frac(), b.Frac()
	switch {
	case af < bf:
		return -1
	case af > bf:
		return 1
	case a.Len < b.Len:
		return -1
	case a.Len > b.Len:
		return 1
	case a.Bits < b.Bits:
		return -1
	case a.Bits > b.Bits:
		return 1
	}
	return 0
}

// labelPrio derives the heap priority from the key itself (two rounds of
// SplitMix64 over the label's fields, which identify it uniquely), so the
// treap shape is a pure function of the key set and replays are bit-exact.
func labelPrio(l label.Label) uint64 {
	return sim.SplitMix64(sim.SplitMix64(l.Bits) ^ uint64(l.Len))
}

func osize(n *onode) int {
	if n == nil {
		return 0
	}
	return n.size
}

func (n *onode) fix() { n.size = 1 + osize(n.left) + osize(n.right) }

func rotRight(n *onode) *onode {
	l := n.left
	n.left = l.right
	l.right = n
	n.fix()
	l.fix()
	return l
}

func rotLeft(n *onode) *onode {
	r := n.right
	n.right = r.left
	r.left = n
	n.fix()
	r.fix()
	return r
}

func oinsert(n, nn *onode) *onode {
	if n == nil {
		nn.size = 1
		return nn
	}
	if cmpLabel(nn.l, n.l) < 0 {
		n.left = oinsert(n.left, nn)
		if n.left.prio > n.prio {
			n = rotRight(n)
		}
	} else {
		n.right = oinsert(n.right, nn)
		if n.right.prio > n.prio {
			n = rotLeft(n)
		}
	}
	n.fix()
	return n
}

func omerge(a, b *onode) *onode {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if a.prio > b.prio {
		a.right = omerge(a.right, b)
		a.fix()
		return a
	}
	b.left = omerge(a, b.left)
	b.fix()
	return b
}

func oremove(n *onode, l label.Label) *onode {
	if n == nil {
		return nil
	}
	switch c := cmpLabel(l, n.l); {
	case c < 0:
		n.left = oremove(n.left, l)
	case c > 0:
		n.right = oremove(n.right, l)
	default:
		return omerge(n.left, n.right)
	}
	n.fix()
	return n
}

func (x *ordIndex) len() int { return osize(x.root) }

// get returns the node holding exactly l, or nil.
func (x *ordIndex) get(l label.Label) *onode {
	n := x.root
	for n != nil {
		switch c := cmpLabel(l, n.l); {
		case c < 0:
			n = n.left
		case c > 0:
			n = n.right
		default:
			return n
		}
	}
	return nil
}

// insert records l → id, replacing the subscriber in place if l is already
// present (no structural change, so the shape invariant is preserved).
func (x *ordIndex) insert(l label.Label, id sim.NodeID) {
	if n := x.get(l); n != nil {
		n.id = id
		return
	}
	x.root = oinsert(x.root, &onode{l: l, id: id, prio: labelPrio(l)})
}

// remove deletes l if present.
func (x *ordIndex) remove(l label.Label) { x.root = oremove(x.root, l) }

// min and max return the first and last nodes in r-order, or nil when empty.
func (x *ordIndex) min() *onode {
	n := x.root
	if n == nil {
		return nil
	}
	for n.left != nil {
		n = n.left
	}
	return n
}

func (x *ordIndex) max() *onode {
	n := x.root
	if n == nil {
		return nil
	}
	for n.right != nil {
		n = n.right
	}
	return n
}

// pred returns the greatest node strictly before l, or nil.
func (x *ordIndex) pred(l label.Label) *onode {
	var best *onode
	for n := x.root; n != nil; {
		if cmpLabel(n.l, l) < 0 {
			best = n
			n = n.right
		} else {
			n = n.left
		}
	}
	return best
}

// succ returns the least node strictly after l, or nil.
func (x *ordIndex) succ(l label.Label) *onode {
	var best *onode
	for n := x.root; n != nil; {
		if cmpLabel(n.l, l) > 0 {
			best = n
			n = n.left
		} else {
			n = n.right
		}
	}
	return best
}

// ceil returns the least node at or after l, or nil.
func (x *ordIndex) ceil(l label.Label) *onode {
	var best *onode
	for n := x.root; n != nil; {
		if cmpLabel(n.l, l) >= 0 {
			best = n
			n = n.left
		} else {
			n = n.right
		}
	}
	return best
}

// kth returns the k-th node in r-order (0-based), or nil if out of range.
func (x *ordIndex) kth(k int) *onode {
	n := x.root
	for n != nil {
		ls := osize(n.left)
		switch {
		case k < ls:
			n = n.left
		case k > ls:
			k -= ls + 1
			n = n.right
		default:
			return n
		}
	}
	return nil
}

// walk visits every tuple in r-order.
func (x *ordIndex) walk(f func(l label.Label, id sim.NodeID)) {
	var rec func(n *onode)
	rec = func(n *onode) {
		if n == nil {
			return
		}
		rec(n.left)
		f(n.l, n.id)
		rec(n.right)
	}
	rec(x.root)
}
