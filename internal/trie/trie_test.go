package trie

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"sspubsub/internal/proto"
)

func pub(key string) proto.Publication {
	k := ParseKey(key)
	return proto.Publication{Key: k, Origin: 1, Payload: key}
}

func TestKeyBasics(t *testing.T) {
	k := ParseKey("1011")
	if KeyString(k) != "1011" {
		t.Fatalf("roundtrip: %s", KeyString(k))
	}
	bitsWant := []uint8{1, 0, 1, 1}
	for i, w := range bitsWant {
		if KeyBit(k, uint8(i)) != w {
			t.Errorf("bit %d = %d, want %d", i, KeyBit(k, uint8(i)), w)
		}
	}
	if KeyString(KeyPrefix(k, 2)) != "10" {
		t.Errorf("prefix(2) = %s", KeyString(KeyPrefix(k, 2)))
	}
	if !HasPrefix(k, ParseKey("10")) || HasPrefix(k, ParseKey("11")) {
		t.Error("HasPrefix wrong")
	}
	if !HasPrefix(k, EmptyKey) {
		t.Error("empty key must prefix everything")
	}
	if got := LCP(ParseKey("1011"), ParseKey("1001")); KeyString(got) != "10" {
		t.Errorf("LCP = %s", KeyString(got))
	}
	if got := LCP(ParseKey("0"), ParseKey("1")); got != EmptyKey {
		t.Errorf("LCP(0,1) = %s", KeyString(got))
	}
	if got := LCP(ParseKey("101"), ParseKey("10111")); KeyString(got) != "101" {
		t.Errorf("LCP nested = %s", KeyString(got))
	}
}

func TestKeyForDeterministicAndSpread(t *testing.T) {
	a := KeyFor(64, 0, 7, "hello")
	b := KeyFor(64, 0, 7, "hello")
	if a != b {
		t.Error("KeyFor must be deterministic")
	}
	if a == KeyFor(64, 0, 8, "hello") {
		t.Error("origin must affect the key")
	}
	if a == KeyFor(64, 0, 7, "hellp") {
		t.Error("payload must affect the key")
	}
	if k := KeyFor(8, 0, 1, "x"); k.Len != 8 || k.Bits>>8 != 0 {
		t.Errorf("width-8 key malformed: %+v", k)
	}
}

// Figure 2 of the paper: subscriber u stores P1=000, P2=010, P3=100, P4=101
// (3-bit keys); its trie has root ⊥ with children 0 (inner) and 10 (inner).
func TestFigure2Structure(t *testing.T) {
	u := New(3)
	for _, p := range []string{"000", "010", "100", "101"} {
		if !u.Insert(pub(p)) {
			t.Fatalf("insert %s failed", p)
		}
	}
	if msg := u.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	root := u.Root()
	if root.Label != EmptyKey {
		t.Fatalf("root label %s, want ⊥", KeyString(root.Label))
	}
	if got := KeyString(u.Child(root, 0).Label); got != "0" {
		t.Errorf("left child label %s, want 0", got)
	}
	if got := KeyString(u.Child(root, 1).Label); got != "10" {
		t.Errorf("right child label %s, want 10", got)
	}
	// v (missing P4) has children 0 and the leaf 100.
	v := New(3)
	for _, p := range []string{"000", "010", "100"} {
		v.Insert(pub(p))
	}
	if got := KeyString(v.Child(v.Root(), 1).Label); got != "100" {
		t.Errorf("v right child %s, want leaf 100", got)
	}
	if u.Equal(v) {
		t.Error("u and v differ; root hashes must differ")
	}
	v.Insert(pub("101"))
	if !u.Equal(v) {
		t.Error("after inserting P4 the tries must be hash-equal")
	}
}

// TestCheckInvariantsDigests: CheckInvariants flags an inner digest that
// is not the XOR of its children's and a leaf digest that is not h(key);
// Digest recomputes a node's digest in place from its children or key.
func TestCheckInvariantsDigests(t *testing.T) {
	for _, corrupt := range []func(*Trie) *Node{
		func(tr *Trie) *Node { return tr.Child(tr.Root(), 0) },              // inner node 0
		func(tr *Trie) *Node { return tr.Child(tr.Child(tr.Root(), 1), 0) }, // leaf 100
	} {
		tr := New(3)
		for _, p := range []string{"000", "010", "100", "101"} {
			tr.Insert(pub(p))
		}
		n := corrupt(tr)
		good := n.Hash
		n.Hash[3] ^= 0x40
		if msg := tr.CheckInvariants(); !strings.Contains(msg, "digest") {
			t.Fatalf("corrupted %s digest not flagged: %q", KeyString(n.Label), msg)
		}
		if tr.Digest(n) != good {
			t.Fatalf("Digest did not repair %s", KeyString(n.Label))
		}
		if msg := tr.CheckInvariants(); msg != "" {
			t.Fatal(msg)
		}
	}
}

// TestInsertFloodMark: the flooded mark lets exactly one flooded copy
// through per publication, whether or not p was stored before, and is not
// part of the digest.
func TestInsertFloodMark(t *testing.T) {
	tr, plain := New(4), New(4)
	for _, k := range []string{"0110", "1000"} {
		tr.Insert(pub(k))
		plain.Insert(pub(k))
	}
	if added, forward := tr.InsertFlood(pub("0110")); added || !forward {
		t.Fatalf("first flooded copy of a known publication: added=%v forward=%v, want false true", added, forward)
	}
	if added, forward := tr.InsertFlood(pub("1011")); !added || !forward {
		t.Fatalf("first flooded copy of a new publication: added=%v forward=%v", added, forward)
	}
	plain.Insert(pub("1011"))
	for _, k := range []string{"0110", "1011"} {
		if added, forward := tr.InsertFlood(pub(k)); added || forward {
			t.Fatalf("second flooded copy of %s: added=%v forward=%v", k, added, forward)
		}
	}
	if !tr.Equal(plain) {
		t.Fatal("the flooded mark changed the digest")
	}
}

func TestInsertDuplicate(t *testing.T) {
	tr := New(4)
	if !tr.Insert(pub("1010")) || tr.Insert(pub("1010")) {
		t.Error("duplicate insert must return false")
	}
	if tr.Len() != 1 {
		t.Errorf("len = %d", tr.Len())
	}
}

func TestFindAtOrBelow(t *testing.T) {
	tr := New(3)
	for _, p := range []string{"000", "010", "100"} {
		tr.Insert(pub(p))
	}
	// Exact inner node.
	if n := tr.Find(ParseKey("0")); n == nil || KeyString(n.Label) != "0" {
		t.Fatal("Find(0) failed")
	}
	// "10" is not a node label in this trie (leaf 100 hangs below root).
	if n := tr.Find(ParseKey("10")); n != nil {
		t.Error("Find(10) should be nil")
	}
	// …but FindAtOrBelow(10) returns the leaf 100 (case (iii)'s node c).
	if n := tr.FindAtOrBelow(ParseKey("10")); n == nil || KeyString(n.Label) != "100" {
		t.Fatal("FindAtOrBelow(10) should return leaf 100")
	}
	// Prefix with no extension.
	if n := tr.FindAtOrBelow(ParseKey("11")); n != nil {
		t.Error("FindAtOrBelow(11) should be nil")
	}
	// Empty prefix returns the root.
	if n := tr.FindAtOrBelow(EmptyKey); n != tr.Root() {
		t.Error("FindAtOrBelow(⊥) should be the root")
	}
}

func TestCollectPrefix(t *testing.T) {
	tr := New(4)
	keys := []string{"0000", "0001", "0100", "1000", "1011", "1111"}
	for _, k := range keys {
		tr.Insert(pub(k))
	}
	got := tr.CollectPrefix(ParseKey("10"))
	var names []string
	for _, p := range got {
		names = append(names, p.Payload)
	}
	if !reflect.DeepEqual(names, []string{"1000", "1011"}) {
		t.Errorf("CollectPrefix(10) = %v", names)
	}
	if all := tr.All(); len(all) != len(keys) {
		t.Errorf("All() returned %d items", len(all))
	}
	if got := tr.CollectPrefix(ParseKey("110")); got != nil {
		t.Errorf("CollectPrefix(110) = %v, want nil", got)
	}
}

func TestHashesCertifySetEquality(t *testing.T) {
	// Insertion order must not affect the root hash (history independence).
	keys := []string{"0000", "1111", "0101", "0011", "1001", "0110"}
	a, b := New(4), New(4)
	for _, k := range keys {
		a.Insert(pub(k))
	}
	perm := rand.New(rand.NewSource(5)).Perm(len(keys))
	for _, i := range perm {
		b.Insert(pub(keys[i]))
	}
	if !a.Equal(b) {
		t.Error("same set via different orders must hash equal")
	}
	b.Insert(pub("1110"))
	if a.Equal(b) {
		t.Error("different sets must not hash equal")
	}
}

func TestEmptyTrie(t *testing.T) {
	tr := New(8)
	if _, ok := tr.RootSummary(); ok {
		t.Error("empty trie must have no root summary")
	}
	if tr.Find(ParseKey("1")) != nil || tr.FindAtOrBelow(EmptyKey) != nil {
		t.Error("lookups on empty trie must be nil")
	}
	if msg := tr.CheckInvariants(); msg != "" {
		t.Error(msg)
	}
	if !tr.Equal(New(8)) {
		t.Error("two empty tries are equal")
	}
	if tr.Equal(func() *Trie { o := New(8); o.Insert(proto.Publication{Key: Key{Bits: 1, Len: 8}}); return o }()) {
		t.Error("empty vs nonempty must differ")
	}
}

// Property: a trie over any random key set contains exactly that set, in
// sorted order, and all structural invariants hold.
func TestPropertyInsertLookup(t *testing.T) {
	f := func(raw []uint16, width uint8) bool {
		m := width%12 + 5 // widths 5..16
		tr := New(m)
		want := map[Key]bool{}
		for _, r := range raw {
			k := Key{Bits: uint64(r) & ((1 << m) - 1), Len: m}
			tr.Insert(proto.Publication{Key: k, Origin: 1})
			want[k] = true
		}
		if tr.CheckInvariants() != "" {
			return false
		}
		if tr.Len() != len(want) {
			return false
		}
		for k := range want {
			if !tr.Has(k) {
				return false
			}
		}
		all := tr.All()
		if !sort.SliceIsSorted(all, func(i, j int) bool { return all[i].Key.Bits < all[j].Key.Bits }) {
			return false
		}
		return len(all) == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: CollectPrefix(p) returns exactly the stored keys extending p.
func TestPropertyCollectPrefix(t *testing.T) {
	f := func(raw []uint16, pfx uint16, pfxLen uint8) bool {
		const m = 12
		tr := New(m)
		keys := map[Key]bool{}
		for _, r := range raw {
			k := Key{Bits: uint64(r) & ((1 << m) - 1), Len: m}
			tr.Insert(proto.Publication{Key: k, Origin: 1})
			keys[k] = true
		}
		pl := pfxLen % (m + 1)
		p := Key{Bits: uint64(pfx) & ((1 << pl) - 1), Len: pl}
		got := map[Key]bool{}
		for _, x := range tr.CollectPrefix(p) {
			got[x.Key] = true
		}
		want := map[Key]bool{}
		for k := range keys {
			if HasPrefix(k, p) {
				want[k] = true
			}
		}
		return reflect.DeepEqual(got, want) || len(got) == 0 && len(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDump(t *testing.T) {
	tr := New(3)
	tr.Insert(pub("000"))
	tr.Insert(pub("010"))
	d := tr.Dump()
	if d == "" || d == "(empty)" {
		t.Error("dump of nonempty trie is empty")
	}
	if New(3).Dump() != "(empty)" {
		t.Error("dump of empty trie")
	}
}
