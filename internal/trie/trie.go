package trie

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strings"
	"unsafe"

	"sspubsub/internal/proto"
)

// Node is one Patricia-trie node. Invariants (Section 4.2):
//   - a leaf's label is a full m-bit key and it stores one publication;
//   - an inner node has exactly two children and its label is the longest
//     common prefix of its children's labels;
//   - Hash is h(key) for leaves (truncated SHA-256) and c0.Hash ⊕ c1.Hash
//     for inner nodes — so every node's digest is the XOR of the leaf
//     digests below it, a function of the stored set alone, and a single
//     root comparison still certifies set equality.
//
// Insert and DeleteMin keep the digests incrementally: one SHA-256 per
// operation, XORed into every node on the path they already walk. Every
// digest anti-entropy reads (Digest, Summary) is first recomputed in O(1)
// from the node's children, or for a leaf from its key, so a corrupted
// digest is repaired by the first probe that descends through it.
type Node struct {
	Label Key
	Hash  [16]byte
	// Child holds the two subtries of an inner node, indexed by the first
	// bit after Label; both nil for leaves.
	Child [2]*Node
	// Pub is the stored publication (leaves only).
	Pub proto.Publication
	// leaves counts the publications stored in this subtree, so prefix
	// collection can size its result exactly instead of growing it.
	leaves int32
	// flooded marks a leaf whose publication this node has already
	// forwarded down its forwarding tree (see InsertFlood). It is not part
	// of any digest.
	flooded bool
}

// Leaves returns the number of publications stored under n.
func (n *Node) Leaves() int { return int(n.leaves) }

// IsLeaf reports whether n stores a publication.
func (n *Node) IsLeaf() bool { return n.Child[0] == nil }

// Digest recomputes n's digest from its children (a leaf: from its key),
// stores it and returns it.
func (n *Node) Digest() [16]byte {
	if n.IsLeaf() {
		n.Hash = leafHash(n.Label)
	} else {
		n.Hash = xor16(n.Child[0].Hash, n.Child[1].Hash)
	}
	return n.Hash
}

// Summary returns the (label, digest) pair sent in CheckTrie messages, the
// digest recomputed first (see Digest).
func (n *Node) Summary() proto.NodeSummary {
	return proto.NodeSummary{Label: n.Label, Hash: n.Digest()}
}

// Trie is a hashed Patricia trie over fixed-width keys. The zero value is
// not usable; call New.
type Trie struct {
	keyLen uint8
	root   *Node
	size   int
}

// New creates an empty trie for keys of width m bits (1 ≤ m ≤ 64).
func New(m uint8) *Trie {
	if m == 0 || m > 64 {
		panic(fmt.Sprintf("trie: invalid key width %d", m))
	}
	return &Trie{keyLen: m}
}

// KeyLen returns the key width m.
func (t *Trie) KeyLen() uint8 { return t.keyLen }

// Len returns the number of stored publications.
func (t *Trie) Len() int { return t.size }

// Root returns the root node, or nil for an empty trie.
func (t *Trie) Root() *Node { return t.root }

// RootSummary returns the root's summary; ok is false for an empty trie.
func (t *Trie) RootSummary() (proto.NodeSummary, bool) {
	if t.root == nil {
		return proto.NodeSummary{}, false
	}
	return t.root.Summary(), true
}

func leafHash(k Key) [16]byte {
	var buf [9]byte
	binary.BigEndian.PutUint64(buf[:8], k.Bits)
	buf[8] = k.Len
	s := sha256.Sum256(buf[:])
	var out [16]byte
	copy(out[:], s[:16])
	return out
}

func xor16(a, b [16]byte) [16]byte {
	for i := range a {
		a[i] ^= b[i]
	}
	return a
}

// Insert adds publication p. It returns true if p was new; re-inserting an
// existing key is a no-op ("no publish messages are deleted", Theorem 17 —
// the trie grows monotonically).
func (t *Trie) Insert(p proto.Publication) bool {
	added, _ := t.insert(p, false)
	return added
}

// InsertFlood is Insert for a publication that is being published here or
// arrived over the forwarding tree: it also sets the leaf's flooded mark,
// and forward reports whether the mark was clear — whether this node still
// owes p its one forward. A node that learned p through anti-entropy first
// still forwards the tree copy, so its subtree does not starve.
func (t *Trie) InsertFlood(p proto.Publication) (added, forward bool) {
	return t.insert(p, true)
}

func (t *Trie) insert(p proto.Publication, flood bool) (added, forward bool) {
	if p.Key.Len != t.keyLen {
		panic(fmt.Sprintf("trie: key width %d, trie width %d", p.Key.Len, t.keyLen))
	}
	if t.root == nil {
		t.root = &Node{Label: p.Key, Hash: leafHash(p.Key), Pub: p, leaves: 1, flooded: flood}
		t.size++
		return true, flood
	}
	// Walk down, remembering the path for the digest update. Keys are at
	// most 64 bits wide, so the path fits a fixed stack buffer — no
	// per-insert slice.
	var pathBuf [64]*Node
	path := pathBuf[:0]
	cur := t.root
	var parent *Node
	var parentIdx uint8
	for {
		lcp := LCP(p.Key, cur.Label)
		if lcp.Len == cur.Label.Len {
			if cur.IsLeaf() { // full key match: already present
				forward = flood && !cur.flooded
				cur.flooded = cur.flooded || flood
				return false, forward
			}
			path = append(path, cur)
			parent = cur
			parentIdx = KeyBit(p.Key, cur.Label.Len)
			cur = cur.Child[parentIdx]
			continue
		}
		// Diverged inside cur.Label: split with a new inner node labelled
		// with the common prefix. The two nodes are born and die together,
		// so one allocation carries both.
		h := leafHash(p.Key)
		pair := &[2]Node{
			{Label: p.Key, Hash: h, Pub: p, leaves: 1, flooded: flood},
			{Label: lcp, Hash: xor16(cur.Hash, h), leaves: cur.leaves + 1},
		}
		leaf, inner := &pair[0], &pair[1]
		inner.Child[KeyBit(p.Key, lcp.Len)] = leaf
		inner.Child[KeyBit(cur.Label, lcp.Len)] = cur
		if parent == nil {
			t.root = inner
		} else {
			parent.Child[parentIdx] = inner
		}
		for _, n := range path {
			n.Hash = xor16(n.Hash, h)
			n.leaves++
		}
		t.size++
		return true, flood
	}
}

// DeleteMin removes and returns the publication with the smallest key.
// ok is false for an empty trie.
//
// This is the eviction primitive for bounded publication stores: evicting
// by smallest *key* (not insertion order) keeps eviction a pure function of
// the stored set, so replicas that converged to the same set evict the same
// publication and their root hashes stay equal — an insertion-order policy
// would make equal sets hash-unequal forever under anti-entropy.
func (t *Trie) DeleteMin() (proto.Publication, bool) {
	if t.root == nil {
		return proto.Publication{}, false
	}
	// The leftmost leaf holds the smallest key: walk() and All() visit
	// Child[0] first and yield key order.
	var pathBuf [64]*Node
	path := pathBuf[:0]
	cur := t.root
	for !cur.IsLeaf() {
		path = append(path, cur)
		cur = cur.Child[0]
	}
	pub := cur.Pub
	t.size--
	if len(path) == 0 {
		t.root = nil
		return pub, true
	}
	// Splice out the leaf's parent: its other child takes the parent's
	// place (an inner node always has exactly two children).
	parent := path[len(path)-1]
	sibling := parent.Child[1]
	if len(path) == 1 {
		t.root = sibling
	} else {
		grand := path[len(path)-2]
		grand.Child[0] = sibling // parent was reached via Child[0]
	}
	h := leafHash(cur.Label)
	for _, n := range path[:len(path)-1] {
		n.Hash = xor16(n.Hash, h)
		n.leaves--
	}
	return pub, true
}

// MemoryBytes estimates the resident size of the trie: a full binary tree
// of 2·size−1 nodes plus the payload strings. Deterministic accounting for
// the scale harness, not a heap measurement.
func (t *Trie) MemoryBytes() uint64 {
	if t.size == 0 {
		return uint64(unsafe.Sizeof(*t))
	}
	nodes := uint64(2*t.size - 1)
	total := uint64(unsafe.Sizeof(*t)) + nodes*uint64(unsafe.Sizeof(Node{}))
	var rec func(n *Node)
	rec = func(n *Node) {
		if n.IsLeaf() {
			total += uint64(len(n.Pub.Payload))
			return
		}
		rec(n.Child[0])
		rec(n.Child[1])
	}
	rec(t.root)
	return total
}

// Has reports whether a publication with the given key is stored.
func (t *Trie) Has(k Key) bool {
	n := t.Find(k)
	return n != nil && n.IsLeaf()
}

// Get returns the publication stored under k.
func (t *Trie) Get(k Key) (proto.Publication, bool) {
	n := t.Find(k)
	if n == nil || !n.IsLeaf() {
		return proto.Publication{}, false
	}
	return n.Pub, true
}

// Find returns the node whose label equals l exactly (the paper's
// SearchNode), or nil.
func (t *Trie) Find(l Key) *Node {
	n := t.FindAtOrBelow(l)
	if n != nil && n.Label == l {
		return n
	}
	return nil
}

// FindAtOrBelow returns the node with minimal label length whose label has
// l as a (not necessarily proper) prefix — the node c of case (iii) in
// Section 4.2 — or nil if no stored key extends l.
func (t *Trie) FindAtOrBelow(l Key) *Node {
	cur := t.root
	for cur != nil {
		lcp := LCP(l, cur.Label)
		switch {
		case lcp.Len == l.Len:
			// cur.Label extends (or equals) l: cur is the shallowest such
			// node, since its parent's label was a proper prefix of l.
			return cur
		case lcp.Len == cur.Label.Len:
			// cur.Label is a proper prefix of l: descend.
			if cur.IsLeaf() {
				return nil
			}
			cur = cur.Child[KeyBit(l, cur.Label.Len)]
		default:
			return nil // diverged strictly inside both
		}
	}
	return nil
}

// CollectPrefix returns all stored publications whose key starts with l,
// in key order. The result is sized exactly from the subtree's leaf count.
func (t *Trie) CollectPrefix(l Key) []proto.Publication {
	n := t.FindAtOrBelow(l)
	if n == nil {
		return nil
	}
	out := make([]proto.Publication, 0, n.Leaves())
	n.walk(func(leaf *Node) { out = append(out, leaf.Pub) })
	return out
}

// All returns every stored publication in key order.
func (t *Trie) All() []proto.Publication {
	if t.root == nil {
		return nil
	}
	out := make([]proto.Publication, 0, t.size)
	t.root.walk(func(leaf *Node) { out = append(out, leaf.Pub) })
	return out
}

func (n *Node) walk(visit func(*Node)) {
	if n.IsLeaf() {
		visit(n)
		return
	}
	n.Child[0].walk(visit)
	n.Child[1].walk(visit)
}

// Equal reports whether both tries store the same publication set, by root
// digest comparison (the legitimate-state test of Theorem 23).
func (t *Trie) Equal(o *Trie) bool {
	if t.root == nil || o.root == nil {
		return t.root == nil && o.root == nil
	}
	return t.root.Digest() == o.root.Digest()
}

// CheckInvariants verifies the structural invariants; it returns a
// description of the first violation, or "".
func (t *Trie) CheckInvariants() string {
	if t.root == nil {
		if t.size != 0 {
			return "empty root with nonzero size"
		}
		return ""
	}
	leaves := 0
	var rec func(n *Node) string
	rec = func(n *Node) string {
		if n.IsLeaf() {
			leaves++
			if n.Child[1] != nil {
				return "leaf with one child"
			}
			if n.Label.Len != t.keyLen {
				return fmt.Sprintf("leaf label %s has wrong width", KeyString(n.Label))
			}
			if n.Pub.Key != n.Label {
				return "leaf label differs from publication key"
			}
			if n.Hash != leafHash(n.Label) {
				return fmt.Sprintf("leaf %s digest is not h(key)", KeyString(n.Label))
			}
			if n.leaves != 1 {
				return fmt.Sprintf("leaf %s has leaf count %d", KeyString(n.Label), n.leaves)
			}
			return ""
		}
		if n.Child[1] == nil {
			return "inner node with one child"
		}
		if n.leaves != n.Child[0].leaves+n.Child[1].leaves {
			return fmt.Sprintf("inner %s leaf count %d ≠ %d + %d", KeyString(n.Label),
				n.leaves, n.Child[0].leaves, n.Child[1].leaves)
		}
		for b := 0; b < 2; b++ {
			c := n.Child[b]
			if !HasPrefix(c.Label, n.Label) || c.Label.Len <= n.Label.Len {
				return fmt.Sprintf("child label %s does not extend %s", KeyString(c.Label), KeyString(n.Label))
			}
			if KeyBit(c.Label, n.Label.Len) != uint8(b) {
				return "child under wrong branch"
			}
		}
		if lcp := LCP(n.Child[0].Label, n.Child[1].Label); lcp != n.Label {
			return fmt.Sprintf("inner label %s is not the children's LCP %s", KeyString(n.Label), KeyString(lcp))
		}
		if n.Hash != xor16(n.Child[0].Hash, n.Child[1].Hash) {
			return fmt.Sprintf("inner %s digest is not the XOR of its children's", KeyString(n.Label))
		}
		if msg := rec(n.Child[0]); msg != "" {
			return msg
		}
		return rec(n.Child[1])
	}
	if msg := rec(t.root); msg != "" {
		return msg
	}
	if leaves != t.size {
		return fmt.Sprintf("size %d but %d leaves", t.size, leaves)
	}
	return ""
}

// Dump renders the trie structure for debugging and the Figure 2 test.
func (t *Trie) Dump() string {
	if t.root == nil {
		return "(empty)"
	}
	var sb strings.Builder
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		if n.IsLeaf() {
			fmt.Fprintf(&sb, "leaf %s %q\n", KeyString(n.Label), n.Pub.Payload)
			return
		}
		fmt.Fprintf(&sb, "node %s\n", KeyString(n.Label))
		rec(n.Child[0], depth+1)
		rec(n.Child[1], depth+1)
	}
	rec(t.root, 0)
	return sb.String()
}
