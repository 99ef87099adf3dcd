package trie

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"strings"
	"unsafe"

	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
)

// Node is one Patricia-trie node. Invariants (Section 4.2):
//   - a leaf's label is a full m-bit key and it stores one publication;
//   - an inner node has exactly two children and its label is the longest
//     common prefix of its children's labels;
//   - Hash is h(key) for leaves (see leafHash) and c0.Hash ⊕ c1.Hash for
//     inner nodes — so every node's digest is the XOR of the leaf digests
//     below it, a function of the stored set alone, and a single root
//     comparison still certifies set equality.
//
// Insert keeps the digests incrementally in one walk: it computes the new
// key's leaf digest first and XORs it into every inner node it passes on
// the way down; DeleteMin XORs it out along its own walk. Every digest
// anti-entropy reads (Trie.Digest, Trie.Summary) is first recomputed in
// O(1) from the node's children, or for a leaf from its key, so a
// corrupted digest is repaired by the first probe that descends through it.
//
// A Node lives by value in its trie's slab (see Trie) and holds no
// pointers: its children are slab references and a leaf's payload and
// origin sit in the slab's parallel leaf table, so the garbage collector
// never scans the nodes. TestNodeHoldsNoPointers keeps it that way, and
// TestNodeSize holds it at 48 bytes.
type Node struct {
	Label Key
	Hash  [16]byte
	// child holds the slab references of an inner node's two subtries,
	// indexed by the first bit after Label; both 0 ("none") for leaves. A
	// freed slot threads the free list through child[0].
	child [2]uint32
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
func (n *Node) IsLeaf() bool { return n.child[0] == 0 }

// The slab: slot references run 1, 2, 3, … (0 is "none"), and chunk k
// holds the 2^k references [2^k, 2^(k+1)), so a trie of one publication
// costs one slot and reference r lives in chunk bits.Len(r) − 1. A chunk
// is allocated once and never moves. maxChunk caps a chunk at 2^30 slots,
// which keeps every reference inside uint32.
const maxChunk = 1 << 30

// chunk is one slab allocation: nodes holds no pointers, and pubs[i] is the
// rest of the publication stored in the leaf nodes[i] (zero for inner and
// free slots); the leaf's label is its key.
type chunk struct {
	nodes []Node
	pubs  []leafPub
}

// leafPub is a stored publication's payload and publisher.
type leafPub struct {
	payload string
	origin  sim.NodeID
}

// Trie is a hashed Patricia trie over fixed-width keys. The zero value is
// not usable; call New.
//
// Its nodes live by value in a slab of chunks that double in size, so
// storing a publication allocates nothing once the slab has room, and the
// garbage collector scans only the payload strings, never the nodes. A
// *Node handed out (Root, Find, Child) stays valid until the next
// DeleteMin, whose two freed slots go on a free list that Insert reuses
// first, so a capped trie's slab stops growing.
type Trie struct {
	chunks []chunk
	size   int
	root   uint32 // 0 for an empty trie
	top    uint32 // slots handed out so far: the slab's high-water
	free   uint32 // head of the free list, 0 when empty
	keyLen uint8
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

// locate maps slot reference r ≥ 1 to its chunk and offset.
func locate(r uint32) (k int, off uint32) {
	k = bits.Len32(r) - 1
	return k, r - 1<<k
}

// at returns the node in slot r ≥ 1.
func (t *Trie) at(r uint32) *Node {
	k, off := locate(r)
	return &t.chunks[k].nodes[off]
}

// node returns the node in slot r, nil for r = 0.
func (t *Trie) node(r uint32) *Node {
	if r == 0 {
		return nil
	}
	return t.at(r)
}

// pub rebuilds the publication stored in leaf slot r.
func (t *Trie) pub(r uint32) proto.Publication {
	k, off := locate(r)
	c := &t.chunks[k]
	lp := &c.pubs[off]
	return proto.Publication{Key: c.nodes[off].Label, Origin: lp.origin, Payload: lp.payload}
}

// alloc hands out a slot: the free list's head, else the next fresh slot,
// opening a chunk when the fresh slot is the first of one.
func (t *Trie) alloc() uint32 {
	if r := t.free; r != 0 {
		t.free = t.at(r).child[0]
		return r
	}
	t.top++
	if r := t.top; r&(r-1) == 0 { // chunk k starts at reference 2^k
		if r > maxChunk {
			panic("trie: slab full")
		}
		t.chunks = append(t.chunks, chunk{nodes: make([]Node, r), pubs: make([]leafPub, r)})
	}
	return t.top
}

// release pushes slot r onto the free list and drops its payload, so the
// string is not kept alive by a dead slot.
func (t *Trie) release(r uint32) {
	k, off := locate(r)
	c := &t.chunks[k]
	c.pubs[off] = leafPub{}
	c.nodes[off].child[0] = t.free
	t.free = r
}

// Root returns the root node, or nil for an empty trie.
func (t *Trie) Root() *Node { return t.node(t.root) }

// Child returns the subtrie of inner node n under bit b, nil for a leaf.
func (t *Trie) Child(n *Node, b uint8) *Node { return t.node(n.child[b&1]) }

// Digest recomputes n's digest from its children (a leaf: from its key),
// stores it and returns it.
func (t *Trie) Digest(n *Node) [16]byte {
	if n.IsLeaf() {
		n.Hash = leafHash(n.Label)
	} else {
		n.Hash = xor16(t.at(n.child[0]).Hash, t.at(n.child[1]).Hash)
	}
	return n.Hash
}

// Summary returns the (label, digest) pair sent in CheckTrie messages, the
// digest recomputed first (see Digest).
func (t *Trie) Summary(n *Node) proto.NodeSummary {
	return proto.NodeSummary{Label: n.Label, Hash: t.Digest(n)}
}

// RootSummary returns the root's summary; ok is false for an empty trie.
func (t *Trie) RootSummary() (proto.NodeSummary, bool) {
	if t.root == 0 {
		return proto.NodeSummary{}, false
	}
	return t.Summary(t.at(t.root)), true
}

// leafHash is a leaf's digest h(key), not collision-resistant (the package
// documentation says why it need not be). Its first 8 bytes are
// sim.SplitMix64 of the key bits, a bijection, so two distinct keys of one
// width never share a first half; the other 8 are mixB, a mixer with
// different constants and shifts, of the key bits salted with the width. A
// digest is never zero: SplitMix64 is zero at one key only, and mixB is not
// zero there (TestLeafHashFirstHalfInjective).
func leafHash(k Key) [16]byte {
	var out [16]byte
	binary.LittleEndian.PutUint64(out[:8], sim.SplitMix64(k.Bits))
	binary.LittleEndian.PutUint64(out[8:], mixB(k.Bits^uint64(k.Len)*widthSalt))
	return out
}

// widthSalt spreads a key width over mixB's input (the fractional part of
// √2, as in SHA-512's first initial hash value).
const widthSalt = 0x6a09e667f3bcc908

// mixB is MurmurHash3's 64-bit finalizer.
func mixB(x uint64) uint64 {
	x = (x ^ x>>33) * 0xff51afd7ed558ccd
	x = (x ^ x>>33) * 0xc4ceb9fe1a85ec53
	return x ^ x>>33
}

// xor16 XORs two digests a word at a time.
func xor16(a, b [16]byte) [16]byte {
	binary.LittleEndian.PutUint64(a[:8], binary.LittleEndian.Uint64(a[:8])^binary.LittleEndian.Uint64(b[:8]))
	binary.LittleEndian.PutUint64(a[8:], binary.LittleEndian.Uint64(a[8:])^binary.LittleEndian.Uint64(b[8:]))
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

// newLeaf stores p in a fresh slot and returns its reference.
func (t *Trie) newLeaf(p proto.Publication, h [16]byte, flood bool) uint32 {
	r := t.alloc()
	k, off := locate(r)
	c := &t.chunks[k]
	c.nodes[off] = Node{Label: p.Key, Hash: h, leaves: 1, flooded: flood}
	c.pubs[off] = leafPub{payload: p.Payload, origin: p.Origin}
	return r
}

func (t *Trie) insert(p proto.Publication, flood bool) (added, forward bool) {
	if p.Key.Len != t.keyLen {
		panic(fmt.Sprintf("trie: key width %d, trie width %d", p.Key.Len, t.keyLen))
	}
	h := leafHash(p.Key)
	if t.root == 0 {
		t.root = t.newLeaf(p, h, flood)
		t.size++
		return true, flood
	}
	// One walk down, folding the new leaf's digest and count into every
	// inner node it passes, on the bet that the key is new. link is the
	// reference that points at cur; chunks never move, so it survives the
	// allocations below.
	link := &t.root
	cur := t.at(t.root)
	for {
		lcp := LCP(p.Key, cur.Label)
		if lcp.Len == cur.Label.Len {
			if cur.IsLeaf() { // full key match: already present
				forward = flood && !cur.flooded
				cur.flooded = cur.flooded || flood
				t.unfold(p.Key, h)
				return false, forward
			}
			cur.Hash = xor16(cur.Hash, h)
			cur.leaves++
			link = &cur.child[KeyBit(p.Key, cur.Label.Len)]
			cur = t.at(*link)
			continue
		}
		// Diverged inside cur.Label: split with a new inner node labelled
		// with the common prefix.
		leaf := t.newLeaf(p, h, flood)
		r := t.alloc()
		inner := t.at(r)
		*inner = Node{Label: lcp, Hash: xor16(cur.Hash, h), leaves: cur.leaves + 1}
		inner.child[KeyBit(p.Key, lcp.Len)] = leaf
		inner.child[KeyBit(cur.Label, lcp.Len)] = *link
		*link = r
		t.size++
		return true, flood
	}
}

// unfold undoes a lost bet of insert: key k turned out to be stored
// already, so the digest h and the count insert folded into the inner
// nodes above k's leaf come back out. Nothing structural changed, so
// steering by k's bits from the root retraces insert's walk exactly.
func (t *Trie) unfold(k Key, h [16]byte) {
	for n := t.at(t.root); !n.IsLeaf(); n = t.at(n.child[KeyBit(k, n.Label.Len)]) {
		n.Hash = xor16(n.Hash, h)
		n.leaves--
	}
}

// DeleteMin removes and returns the publication with the smallest key.
// ok is false for an empty trie. The leaf's slot and its parent's go on the
// free list.
//
// This is the eviction primitive for bounded publication stores: evicting
// by smallest *key* (not insertion order) keeps eviction a pure function of
// the stored set, so replicas that converged to the same set evict the same
// publication and their root hashes stay equal — an insertion-order policy
// would make equal sets hash-unequal forever under anti-entropy.
func (t *Trie) DeleteMin() (proto.Publication, bool) {
	if t.root == 0 {
		return proto.Publication{}, false
	}
	// The leftmost leaf holds the smallest key: All() visits child 0
	// first and yields key order.
	var pathBuf [64]uint32
	path := pathBuf[:0]
	r := t.root
	for n := t.at(r); !n.IsLeaf(); n = t.at(r) {
		path = append(path, r)
		r = n.child[0]
	}
	pub := t.pub(r)
	t.release(r)
	t.size--
	if len(path) == 0 {
		t.root = 0
		return pub, true
	}
	// Splice out the leaf's parent: its other child takes the parent's
	// place (an inner node always has exactly two children).
	parent := path[len(path)-1]
	sibling := t.at(parent).child[1]
	if len(path) == 1 {
		t.root = sibling
	} else {
		t.at(path[len(path)-2]).child[0] = sibling // parent was reached via child 0
	}
	t.release(parent)
	h := leafHash(pub.Key)
	for _, a := range path[:len(path)-1] {
		n := t.at(a)
		n.Hash = xor16(n.Hash, h)
		n.leaves--
	}
	return pub, true
}

// MemoryBytes estimates the resident size of the trie: a full binary tree
// of 2·size−1 slab slots (a node and a leaf-table entry each) plus
// the payload bytes. Deterministic accounting for the scale harness, not a
// heap measurement: the slab's unused capacity is not counted.
func (t *Trie) MemoryBytes() uint64 {
	total := uint64(unsafe.Sizeof(*t))
	if t.size == 0 {
		return total
	}
	slots := uint64(2*t.size - 1)
	total += slots * uint64(unsafe.Sizeof(Node{})+unsafe.Sizeof(leafPub{}))
	for _, c := range t.chunks {
		for _, lp := range c.pubs {
			total += uint64(len(lp.payload))
		}
	}
	return total
}

// Has reports whether a publication with the given key is stored.
func (t *Trie) Has(k Key) bool {
	n := t.Find(k)
	return n != nil && n.IsLeaf()
}

// Get returns the publication stored under k.
func (t *Trie) Get(k Key) (proto.Publication, bool) {
	if r := t.findAtOrBelow(k); r != 0 {
		if n := t.at(r); n.Label == k && n.IsLeaf() {
			return t.pub(r), true
		}
	}
	return proto.Publication{}, false
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
func (t *Trie) FindAtOrBelow(l Key) *Node { return t.node(t.findAtOrBelow(l)) }

func (t *Trie) findAtOrBelow(l Key) uint32 {
	r := t.root
	for r != 0 {
		cur := t.at(r)
		lcp := LCP(l, cur.Label)
		switch {
		case lcp.Len == l.Len:
			// cur.Label extends (or equals) l: cur is the shallowest such
			// node, since its parent's label was a proper prefix of l.
			return r
		case lcp.Len == cur.Label.Len:
			// cur.Label is a proper prefix of l: descend.
			if cur.IsLeaf() {
				return 0
			}
			r = cur.child[KeyBit(l, cur.Label.Len)]
		default:
			return 0 // diverged strictly inside both
		}
	}
	return 0
}

// CollectPrefix returns all stored publications whose key starts with l,
// in key order. The result is sized exactly from the subtree's leaf count.
func (t *Trie) CollectPrefix(l Key) []proto.Publication {
	r := t.findAtOrBelow(l)
	if r == 0 {
		return nil
	}
	return t.appendLeaves(make([]proto.Publication, 0, t.at(r).leaves), r)
}

// All returns every stored publication in key order.
func (t *Trie) All() []proto.Publication {
	if t.root == 0 {
		return nil
	}
	return t.appendLeaves(make([]proto.Publication, 0, t.size), t.root)
}

// appendLeaves appends the publications under slot r to out in key order.
func (t *Trie) appendLeaves(out []proto.Publication, r uint32) []proto.Publication {
	n := t.at(r)
	if n.IsLeaf() {
		return append(out, t.pub(r))
	}
	out = t.appendLeaves(out, n.child[0])
	return t.appendLeaves(out, n.child[1])
}

// Equal reports whether both tries store the same publication set, by root
// digest comparison (the legitimate-state test of Theorem 23).
func (t *Trie) Equal(o *Trie) bool {
	if t.root == 0 || o.root == 0 {
		return t.root == 0 && o.root == 0
	}
	return t.Digest(t.at(t.root)) == o.Digest(o.at(o.root))
}

// CheckInvariants verifies the structural invariants; it returns a
// description of the first violation, or "". A child reference outside the
// slab is reported, not followed.
func (t *Trie) CheckInvariants() string {
	if t.root == 0 {
		if t.size != 0 {
			return "empty root with nonzero size"
		}
		return ""
	}
	if t.root > t.top {
		return fmt.Sprintf("root index %d outside the slab (%d slots)", t.root, t.top)
	}
	leaves := 0
	var rec func(n *Node) string
	rec = func(n *Node) string {
		if n.IsLeaf() {
			leaves++
			if n.child[1] != 0 {
				return "leaf with one child"
			}
			if n.Label.Len != t.keyLen {
				return fmt.Sprintf("leaf label %s has wrong width", KeyString(n.Label))
			}
			if n.Hash != leafHash(n.Label) {
				return fmt.Sprintf("leaf %s digest is not h(key)", KeyString(n.Label))
			}
			if n.leaves != 1 {
				return fmt.Sprintf("leaf %s has leaf count %d", KeyString(n.Label), n.leaves)
			}
			return ""
		}
		if n.child[1] == 0 {
			return "inner node with one child"
		}
		for b, r := range n.child {
			if r > t.top {
				return fmt.Sprintf("inner %s child %d index %d outside the slab (%d slots)",
					KeyString(n.Label), b, r, t.top)
			}
		}
		c0, c1 := t.at(n.child[0]), t.at(n.child[1])
		if n.leaves != c0.leaves+c1.leaves {
			return fmt.Sprintf("inner %s leaf count %d ≠ %d + %d", KeyString(n.Label),
				n.leaves, c0.leaves, c1.leaves)
		}
		for b, c := range [2]*Node{c0, c1} {
			if !HasPrefix(c.Label, n.Label) || c.Label.Len <= n.Label.Len {
				return fmt.Sprintf("child label %s does not extend %s", KeyString(c.Label), KeyString(n.Label))
			}
			if KeyBit(c.Label, n.Label.Len) != uint8(b) {
				return "child under wrong branch"
			}
		}
		if lcp := LCP(c0.Label, c1.Label); lcp != n.Label {
			return fmt.Sprintf("inner label %s is not the children's LCP %s", KeyString(n.Label), KeyString(lcp))
		}
		if n.Hash != xor16(c0.Hash, c1.Hash) {
			return fmt.Sprintf("inner %s digest is not the XOR of its children's", KeyString(n.Label))
		}
		if msg := rec(c0); msg != "" {
			return msg
		}
		return rec(c1)
	}
	if msg := rec(t.at(t.root)); msg != "" {
		return msg
	}
	if leaves != t.size {
		return fmt.Sprintf("size %d but %d leaves", t.size, leaves)
	}
	return ""
}

// Dump renders the trie structure for debugging and the Figure 2 test.
func (t *Trie) Dump() string {
	if t.root == 0 {
		return "(empty)"
	}
	var sb strings.Builder
	var rec func(r uint32, depth int)
	rec = func(r uint32, depth int) {
		n := t.at(r)
		sb.WriteString(strings.Repeat("  ", depth))
		if n.IsLeaf() {
			fmt.Fprintf(&sb, "leaf %s %q\n", KeyString(n.Label), t.pub(r).Payload)
			return
		}
		fmt.Fprintf(&sb, "node %s\n", KeyString(n.Label))
		rec(n.child[0], depth+1)
		rec(n.child[1], depth+1)
	}
	rec(t.root, 0)
	return sb.String()
}
