package trie

import (
	"math/rand"
	"testing"

	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
)

// unxorshift inverts y = x ^ x>>s.
func unxorshift(y uint64, s uint) uint64 {
	x := y
	for i := uint(0); i < 64; i += s {
		x = y ^ x>>s
	}
	return x
}

// oddInverse returns the inverse of odd c mod 2^64 by Newton's iteration,
// which doubles the correct low bits each step from the 3 that c·c ≡ 1
// (mod 8) gives.
func oddInverse(c uint64) uint64 {
	inv := c
	for i := 0; i < 5; i++ {
		inv *= 2 - c*inv
	}
	return inv
}

// unSplitMix64 inverts sim.SplitMix64 step by step.
func unSplitMix64(y uint64) uint64 {
	y = unxorshift(y, 31) * oddInverse(0x94d049bb133111eb)
	y = unxorshift(y, 27) * oddInverse(0xbf58476d1ce4e5b9)
	return unxorshift(y, 30) - 0x9e3779b97f4a7c15
}

// TestLeafHashFirstHalfInjective: the first half of a leaf digest is
// sim.SplitMix64 of the key bits, and SplitMix64 has an inverse, so no two
// keys of one width share it. The inverse is checked on sequential age-ordered keys
// (the layout KeyFor produces, bucket above a 40-bit hash) and on 10^6
// random ones. The one key whose first half is zero has a nonzero second
// half at every width, so no leaf digest is zero.
func TestLeafHashFirstHalfInjective(t *testing.T) {
	check := func(x uint64) {
		if got := unSplitMix64(sim.SplitMix64(x)); got != x {
			t.Fatalf("SplitMix64(%#x) inverts to %#x", x, got)
		}
	}
	for bucket := uint64(0); bucket < 256; bucket++ {
		for i := uint64(0); i < 256; i++ {
			check(bucket<<HashBits | i)
			check(bucket<<HashBits | (1<<HashBits - 1 - i))
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		check(rng.Uint64())
	}
	zero := unSplitMix64(0)
	if sim.SplitMix64(zero) != 0 {
		t.Fatalf("unSplitMix64(0) = %#x is not SplitMix64's zero", zero)
	}
	for m := uint8(1); m <= 64; m++ {
		if mixB(zero^uint64(m)*widthSalt) == 0 {
			t.Fatalf("width %d: the key with a zero first half has a zero digest", m)
		}
	}
}

// TestDuplicateInsertLeavesDigests: insert folds the new leaf's digest
// into the path on its way down and takes it back out when the key turns
// out to be stored. A duplicate Insert or InsertFlood must leave every
// node's digest and leaf count exactly as they were.
func TestDuplicateInsertLeavesDigests(t *testing.T) {
	for _, m := range []uint8{3, 12, 64} {
		rng := rand.New(rand.NewSource(int64(m)))
		tr := New(m)
		for i := 0; i < 300; i++ {
			k := Key{Bits: rng.Uint64(), Len: m}
			if m < 64 {
				k.Bits &= 1<<m - 1
			}
			tr.Insert(proto.Publication{Key: k, Origin: sim.NodeID(i), Payload: "x"})
		}
		type sums struct {
			hash   [16]byte
			leaves int32
		}
		snapshot := func() []sums {
			out := make([]sums, tr.top+1)
			for r := uint32(1); r <= tr.top; r++ {
				n := tr.at(r)
				out[r] = sums{n.Hash, n.leaves}
			}
			return out
		}
		before := snapshot()
		for i, p := range tr.All() {
			var added bool
			if i%2 == 0 {
				added = tr.Insert(p)
			} else {
				added, _ = tr.InsertFlood(p)
			}
			if added {
				t.Fatalf("m=%d: stored key %s inserted again", m, KeyString(p.Key))
			}
			after := snapshot()
			for r := range before {
				if before[r] != after[r] {
					t.Fatalf("m=%d: duplicate of %s moved slot %d: %+v → %+v",
						m, KeyString(p.Key), r, before[r], after[r])
				}
			}
		}
		if msg := tr.CheckInvariants(); msg != "" {
			t.Fatalf("m=%d: %s", m, msg)
		}
	}
}
