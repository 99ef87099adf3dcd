// The tuple store: one topic's (label, subscriber) set, ordered by ring
// position and digested. The owner's database and its warm replica hold the
// same type, so both share one mutation path, one digest and one order.
//
// It is a treap keyed by the r-ordering of labels. It replaced a sorted
// slice that was rebuilt with a full O(n log n) sort whenever the database
// changed — at 10^5+ subscribers that rebuild (triggered by every subscribe
// via the configuration send) turned the paper's O(log n) join into
// O(n log n) and the whole join wave into O(n^2 log n). The treap gives
// O(log n) get/put/del/neighbor/k-th and an O(n) walk in r-order.
//
// Determinism matters here: the deterministic simulator replays runs
// bit-exactly, so the store must not depend on map iteration order or a
// random source. A treap whose priorities are a pure hash of the key has a
// shape that is a function of the key *set* alone — the heap order and BST
// order together determine the tree uniquely, regardless of insertion
// order. Ties in the r-ordering (malformed labels sharing a Frac, possible
// only in corrupted states) are broken by (Len, Bits) so the order is total
// and stable.

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

// store is the treap root plus the replication digest. The zero value is
// an empty store that hashes nothing.
type store struct {
	root *onode
	// track gates the digest: while set, put and del keep hash equal to the
	// XOR fold of entryHash over the tuples (replica.go). A topic at
	// replication factor 0 hashes nothing.
	track bool
	hash  [16]byte
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

func (x *store) len() int { return osize(x.root) }

// get returns the node holding exactly l, or nil.
func (x *store) get(l label.Label) *onode {
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

// at returns the subscriber stored at l, or ⊥ when l is absent.
func (x *store) at(l label.Label) sim.NodeID {
	if n := x.get(l); n != nil {
		return n.id
	}
	return sim.None
}

// put records l → id, replacing the subscriber in place if l is already
// present (no structural change, so the shape invariant is preserved).
func (x *store) put(l label.Label, id sim.NodeID) {
	if n := x.get(l); n != nil {
		if n.id != id {
			x.fold(l, n.id)
			n.id = id
			x.fold(l, id)
		}
		return
	}
	x.root = oinsert(x.root, &onode{l: l, id: id, prio: labelPrio(l)})
	x.fold(l, id)
}

// del removes l and returns the subscriber it held; ok is false when l was
// absent.
func (x *store) del(l label.Label) (id sim.NodeID, ok bool) {
	n := x.get(l)
	if n == nil {
		return sim.None, false
	}
	x.root = oremove(x.root, l)
	x.fold(l, n.id)
	return n.id, true
}

// fold toggles the tuple l → id in the tracked digest.
func (x *store) fold(l label.Label, id sim.NodeID) {
	if x.track {
		x.hash = xor16(x.hash, entryHash(l, id))
	}
}

// digest recomputes the digest from content, whatever track says: the
// self-checks compare it against hash, and introspection reports it.
func (x *store) digest() [16]byte {
	var h [16]byte
	x.walk(func(l label.Label, id sim.NodeID) { h = xor16(h, entryHash(l, id)) })
	return h
}

// pred returns the greatest node strictly before l, or nil.
func (x *store) pred(l label.Label) *onode {
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
func (x *store) succ(l label.Label) *onode {
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

// kth returns the k-th node in r-order (0-based), or nil if out of range.
func (x *store) kth(k int) *onode {
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
func (x *store) walk(f func(l label.Label, id sim.NodeID)) {
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
