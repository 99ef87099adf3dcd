// Package trie implements the hashed Patricia trie of Section 4.2: a
// compressed binary trie over fixed-width publication keys whose nodes
// carry digests of their subtrees, so two subscribers can locate the exact
// difference between their publication sets by exchanging O(depth) node
// summaries (the CheckTrie protocol). A node's digest is the XOR of the
// leaf digests of the keys below it — a function of the stored set, kept
// incrementally along the one walk an insert makes and recomputed from a
// node's children whenever anti-entropy reads it, so corruption is
// repaired by reading (see Node).
//
// A leaf digest is two fixed 64-bit mixers of the key, not a cryptographic
// hash: the fold needs distinct keys to give distinct, well-spread
// digests, which a mixer gives for a fraction of a SHA-256's cost, and the
// keys themselves stay SHA-256 (KeyFor). The first mixer is a bijection,
// so two distinct keys never share a leaf digest. An XOR fold, unlike a
// Merkle hash, can be steered by an adversary who picks the keys whatever
// the leaf digest is; it never was collision-resistant against one, and
// the threat model here is transient faults, as for the supervisor's
// replica digest, which folds the same way. Dropping SHA-256 from the leaf
// digest therefore loses nothing the system relied on.
//
// Storage: the trie only grows (Theorem 17: "no publish messages are
// deleted"), so on an uncapped topic it is most of a subscriber's heap.
// Each trie therefore keeps its nodes by value in a slab of chunks that
// double in size and never move, addressed by uint32 references. A Node
// holds no pointers — its children are references and a leaf's payload
// and origin sit in a parallel leaf table — so the garbage collector
// allocates the node chunks as pointer-free memory and never scans them;
// the payload strings are the only pointers left. DeleteMin returns its
// two slots to a free list that Insert reuses, so a capped trie's slab
// plateaus. CheckInvariants reports a child reference outside the slab
// instead of following it.
//
// Keys are h̄_m(origin, payload): a collision-resistant hash (SHA-256,
// truncated to the configured width m ≤ 64) of the publishing node's unique
// ID and the payload, so every key has the same length and keys identify
// publications ("the constant m and the hash function h̄_m are known to all
// subscribers").
//
// Departure: keys wider than HashBits are age-ordered. Section 4.2 asks
// only that keys have one fixed width m and are unique with high
// probability, not that they be uniform, so at m > HashBits a key is
// (bucket ∥ h̄): the low HashBits = 40 bits are h̄_m(origin, payload)
// truncated, and the top m − 40 bits (24 at m = 64) are the publisher's
// clock bucket, a per-topic counter every subscriber advances once per
// timeout and max-merges from the keys it stores (pubsub.Engine). A fresh
// publication therefore lands next to the ones before it, so its insert
// walk stays in cache, and the smallest keys belong to the oldest bucket,
// so a capped history evicts the oldest first. The costs:
//   - keys can collide only within a bucket, and B publications in one
//     bucket collide with probability about B²/2^41;
//   - buckets compare mod 2^(m−40), so the order wraps after 2^24
//     intervals at m = 64 (46.6 h at a 10 ms interval);
//   - the same (origin, payload) published in a later bucket has a
//     different key, so it is a new publication.
//
// Keys of width m ≤ HashBits stay pure hashes (E9's 3-bit Figure 2 and
// the narrow-key tests). Correctness of anti-entropy (Theorem 17) needs
// only unique keys, so the bucket is advisory: any clock values, corrupted
// ones included, change locality and eviction order but not delivery.
package trie

import (
	"crypto/sha256"
	"encoding/binary"
	"math/bits"

	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
)

// Key re-exports proto.Key locally; a Key is a bit string of Len ≤ 64 bits
// stored most-significant-first in Bits. Trie node labels are key prefixes;
// leaf labels are full keys.
type Key = proto.Key

// EmptyKey is the empty bit string ⊥ (the label of a root whose children
// share no common prefix).
var EmptyKey = Key{}

// KeyBit returns bit i of k, counting from the most significant (leftmost)
// bit, i.e. the bit consumed at trie depth i.
func KeyBit(k Key, i uint8) uint8 {
	return uint8(k.Bits>>(k.Len-1-i)) & 1
}

// KeyPrefix returns the first n bits of k.
func KeyPrefix(k Key, n uint8) Key {
	if n >= k.Len {
		return k
	}
	return Key{Bits: k.Bits >> (k.Len - n), Len: n}
}

// HasPrefix reports whether p is a prefix of k (every key is a prefix of
// itself; the empty key is a prefix of everything).
func HasPrefix(k, p Key) bool {
	return k.Len >= p.Len && KeyPrefix(k, p.Len) == p
}

// LCP returns the longest common prefix of a and b.
func LCP(a, b Key) Key {
	n := a.Len
	if b.Len < n {
		n = b.Len
	}
	if n == 0 {
		return EmptyKey
	}
	x := (a.Bits >> (a.Len - n)) ^ (b.Bits >> (b.Len - n))
	if x == 0 {
		return Key{Bits: a.Bits >> (a.Len - n), Len: n}
	}
	common := n - uint8(64-bits.LeadingZeros64(x))
	return Key{Bits: a.Bits >> (a.Len - common), Len: common}
}

// AppendBit extends k with one bit.
func AppendBit(k Key, b uint8) Key {
	return Key{Bits: k.Bits<<1 | uint64(b&1), Len: k.Len + 1}
}

// KeyString renders the bit string, "⊥" for the empty key.
func KeyString(k Key) string {
	if k.Len == 0 {
		return "⊥"
	}
	buf := make([]byte, k.Len)
	for i := uint8(0); i < k.Len; i++ {
		buf[i] = '0' + KeyBit(k, i)
	}
	return string(buf)
}

// ParseKey parses a bit string into a Key; it panics on invalid input
// (test/table helper).
func ParseKey(s string) Key {
	var k Key
	for _, c := range s {
		switch c {
		case '0':
			k = AppendBit(k, 0)
		case '1':
			k = AppendBit(k, 1)
		default:
			panic("trie: invalid key string " + s)
		}
	}
	return k
}

// HashBits is the width of the hash part of an age-ordered key: a key of
// width m > HashBits carries its clock bucket in the top m − HashBits bits.
const HashBits = 40

// BucketBits returns the width of the clock bucket in an m-bit key, 0 for
// pure-hash widths (m ≤ HashBits).
func BucketBits(m uint8) uint8 {
	if m <= HashBits {
		return 0
	}
	return m - HashBits
}

// Bucket returns k's clock bucket (0 for a pure-hash key).
func Bucket(k Key) uint64 {
	if k.Len <= HashBits {
		return 0
	}
	return k.Bits >> HashBits
}

// KeyFor computes the m-bit publication key of (origin, payload) published
// in clock bucket bucket (Section 4.2, with the age-ordered layout of the
// package documentation): h̄_m(origin, payload) for m ≤ HashBits, else the
// bucket mod 2^(m−HashBits) above h̄ truncated to HashBits bits. SHA-256
// stands in for the paper's collision-resistant hash function.
//
// The hash input is built in a stack buffer, so a payload of up to 120
// bytes costs no allocation.
func KeyFor(m uint8, bucket uint64, origin sim.NodeID, payload string) Key {
	var buf [128]byte
	in := binary.BigEndian.AppendUint64(buf[:0], uint64(origin))
	sum := sha256.Sum256(append(in, payload...))
	v := binary.BigEndian.Uint64(sum[:8])
	if b := BucketBits(m); b > 0 {
		v = (bucket&(1<<b-1))<<HashBits | v>>(64-HashBits)
	} else if m < 64 {
		v >>= 64 - m
	}
	return Key{Bits: v, Len: m}
}

// NewPublication builds a Publication with its key (m is the system-wide
// key width, bucket the publisher's clock bucket).
func NewPublication(m uint8, bucket uint64, origin sim.NodeID, payload string) proto.Publication {
	return proto.Publication{Key: KeyFor(m, bucket, origin, payload), Origin: origin, Payload: payload}
}
