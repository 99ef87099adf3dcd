package trie

import (
	"math/rand"
	"testing"

	"sspubsub/internal/proto"
)

// TestDeleteMinOrderAndInvariants deletes a random trie down to empty and
// checks that publications come out in key order with every structural
// invariant intact after each step.
func TestDeleteMinOrderAndInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		tr := New(16)
		n := 1 + rng.Intn(60)
		for i := 0; i < n; i++ {
			k := Key{Bits: rng.Uint64() & 0xffff, Len: 16}
			tr.Insert(proto.Publication{Key: k, Origin: 1, Payload: KeyString(k)})
		}
		want := tr.All() // key order
		for i, w := range want {
			got, ok := tr.DeleteMin()
			if !ok || got != w {
				t.Fatalf("trial %d: DeleteMin #%d = %v ok=%v, want %v", trial, i, got, ok, w)
			}
			if msg := tr.CheckInvariants(); msg != "" {
				t.Fatalf("trial %d after delete %d: %s", trial, i, msg)
			}
			if tr.Len() != len(want)-i-1 {
				t.Fatalf("trial %d: Len = %d, want %d", trial, tr.Len(), len(want)-i-1)
			}
		}
		if _, ok := tr.DeleteMin(); ok {
			t.Fatal("DeleteMin on empty trie returned ok")
		}
	}
}

// TestDeleteMinPreservesSetEquality checks the property bounded stores rely
// on: two tries holding the same set hash equal after both evict their
// minimum, regardless of how the sets were built.
func TestDeleteMinPreservesSetEquality(t *testing.T) {
	a, b := New(16), New(16)
	keys := []string{"1010101010101010", "0000000011111111", "1111000011110000",
		"0101010101010101", "1000000000000001"}
	for _, s := range keys {
		a.Insert(pub(s))
	}
	for i := len(keys) - 1; i >= 0; i-- {
		b.Insert(pub(keys[i]))
	}
	for a.Len() > 0 {
		pa, _ := a.DeleteMin()
		pb, _ := b.DeleteMin()
		if pa.Key != pb.Key {
			t.Fatalf("divergent eviction: %v vs %v", pa.Key, pb.Key)
		}
		if !a.Equal(b) {
			t.Fatalf("root hashes diverged at size %d", a.Len())
		}
	}
}

// TestMemoryBytesShrinks checks the accounting moves with the stored set.
func TestMemoryBytesShrinks(t *testing.T) {
	tr := New(16)
	empty := tr.MemoryBytes()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		k := Key{Bits: rng.Uint64() & 0xffff, Len: 16}
		tr.Insert(proto.Publication{Key: k, Origin: 1, Payload: "x"})
	}
	full := tr.MemoryBytes()
	if full <= empty {
		t.Fatalf("MemoryBytes did not grow: empty %d, full %d", empty, full)
	}
	for tr.Len() > 0 {
		tr.DeleteMin()
	}
	if got := tr.MemoryBytes(); got != empty {
		t.Fatalf("MemoryBytes after draining = %d, want %d", got, empty)
	}
}

// TestDigestOrderIndependent: the root digest is a function of the stored
// set alone — random insertion orders interleaved with DeleteMin evictions
// always land on the digest of a trie built fresh from the surviving set,
// with every node's digest the XOR of its children's (CheckInvariants).
func TestDigestOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		keys := make([]Key, 1+rng.Intn(40))
		for i := range keys {
			keys[i] = Key{Bits: rng.Uint64() & 0xfff, Len: 12}
		}
		tr := New(12)
		for _, i := range rng.Perm(len(keys)) {
			tr.Insert(proto.Publication{Key: keys[i], Origin: 1})
			if rng.Intn(4) == 0 {
				tr.DeleteMin()
			}
			if msg := tr.CheckInvariants(); msg != "" {
				t.Fatalf("trial %d: %s", trial, msg)
			}
		}
		fresh := New(12)
		for _, p := range tr.All() {
			fresh.Insert(p)
		}
		if tr.Len() > 0 && tr.Root().Hash != fresh.Root().Hash || !tr.Equal(fresh) {
			t.Fatalf("trial %d: digest depends on the insertion/eviction history", trial)
		}
	}
}
