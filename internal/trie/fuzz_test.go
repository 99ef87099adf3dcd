package trie

import (
	"strings"
	"testing"

	"sspubsub/internal/sim"
)

// FuzzKeyStringRoundTrip checks ParseKey/KeyString over arbitrary strings:
// well-formed bit strings of width ≤ 64 round-trip exactly, everything
// else must panic (ParseKey is a table/test helper with a hard contract).
func FuzzKeyStringRoundTrip(f *testing.F) {
	for _, s := range []string{"", "0", "1", "0110", "x", "01x", "2",
		strings.Repeat("10", 32)} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		wellFormed := len(s) <= 64
		for _, c := range s {
			if c != '0' && c != '1' {
				wellFormed = false
			}
		}
		if !wellFormed {
			defer func() {
				if recover() == nil && len(s) <= 64 {
					t.Fatalf("ParseKey(%q) accepted malformed input", s)
				}
			}()
			ParseKey(s)
			return
		}
		k := ParseKey(s)
		if int(k.Len) != len(s) {
			t.Fatalf("ParseKey(%q).Len = %d", s, k.Len)
		}
		got := KeyString(k)
		if s == "" {
			if got != "⊥" {
				t.Fatalf("KeyString(empty) = %q", got)
			}
			return
		}
		if got != s {
			t.Fatalf("KeyString(ParseKey(%q)) = %q", s, got)
		}
	})
}

// FuzzKeyOps checks the prefix algebra the CheckTrie reconciliation relies
// on: KeyPrefix truncates, HasPrefix accepts every prefix, LCP is the
// maximal common prefix, and AppendBit extends consistently.
func FuzzKeyOps(f *testing.F) {
	f.Add(uint64(0), uint8(0), uint64(0), uint8(0), uint8(0))
	f.Add(uint64(0b1011), uint8(4), uint64(0b1010), uint8(4), uint8(2))
	f.Add(^uint64(0), uint8(64), uint64(1), uint8(1), uint8(63))
	f.Add(uint64(0b110), uint8(3), uint64(0b1101), uint8(4), uint8(1))
	f.Fuzz(func(t *testing.T, abits uint64, alen uint8, bbits uint64, blen uint8, n uint8) {
		mk := func(bits uint64, l uint8) Key {
			l %= 65
			if l < 64 {
				bits &= (1 << l) - 1
			}
			return Key{Bits: bits, Len: l}
		}
		a, b := mk(abits, alen), mk(bbits, blen)

		p := KeyPrefix(a, n)
		if n < a.Len && p.Len != n || n >= a.Len && p != a {
			t.Fatalf("KeyPrefix(%v, %d) = %v", a, n, p)
		}
		if !HasPrefix(a, p) {
			t.Fatalf("HasPrefix(%v, KeyPrefix=%v) = false", a, p)
		}
		if !HasPrefix(a, EmptyKey) || !HasPrefix(a, a) {
			t.Fatal("HasPrefix must accept the empty key and the key itself")
		}

		l := LCP(a, b)
		if !HasPrefix(a, l) || !HasPrefix(b, l) {
			t.Fatalf("LCP(%v, %v) = %v is not a common prefix", a, b, l)
		}
		if LCP(a, a) != a {
			t.Fatalf("LCP(%v, %v) != itself", a, a)
		}
		// Maximality: the bit after the LCP differs (when both keys go on).
		if l.Len < a.Len && l.Len < b.Len {
			if KeyBit(a, l.Len) == KeyBit(b, l.Len) {
				t.Fatalf("LCP(%v, %v) = %v not maximal", a, b, l)
			}
		}

		if a.Len < 64 {
			bit := uint8(abits>>63) & 1
			e := AppendBit(a, bit)
			if e.Len != a.Len+1 || KeyBit(e, a.Len) != bit || !HasPrefix(e, a) {
				t.Fatalf("AppendBit(%v, %d) = %v", a, bit, e)
			}
		}
	})
}

// FuzzKeyFor checks the publication-key construction: fixed width,
// determinism, the bucket above the hash at age-ordered widths (and no
// bucket below them), and stability of the derived Publication.
func FuzzKeyFor(f *testing.F) {
	f.Add(int64(1), "hello", uint8(64), uint64(0))
	f.Add(int64(0), "", uint8(8), uint64(5))
	f.Add(int64(-3), "payload", uint8(1), uint64(1)<<40)
	f.Fuzz(func(t *testing.T, origin int64, payload string, m uint8, bucket uint64) {
		m = m%64 + 1
		k1 := KeyFor(m, bucket, sim.NodeID(origin), payload)
		k2 := KeyFor(m, bucket, sim.NodeID(origin), payload)
		if k1 != k2 {
			t.Fatalf("KeyFor not deterministic: %v vs %v", k1, k2)
		}
		if k1.Len != m {
			t.Fatalf("KeyFor width %d, want %d", k1.Len, m)
		}
		if m < 64 && k1.Bits>>m != 0 {
			t.Fatalf("KeyFor(%d bits) has stray high bits: %x", m, k1.Bits)
		}
		next := KeyFor(m, bucket+1, sim.NodeID(origin), payload)
		if b := BucketBits(m); b == 0 {
			if next != k1 || Bucket(k1) != 0 {
				t.Fatalf("pure-hash width %d depends on the bucket: %v vs %v", m, k1, next)
			}
		} else {
			if Bucket(k1) != bucket&(1<<b-1) {
				t.Fatalf("Bucket = %d, want %d mod 2^%d", Bucket(k1), bucket, b)
			}
			if k1.Bits&(1<<HashBits-1) != next.Bits&(1<<HashBits-1) {
				t.Fatalf("hash bits depend on the bucket: %x vs %x", k1.Bits, next.Bits)
			}
		}
		p := NewPublication(m, bucket, sim.NodeID(origin), payload)
		if p.Key != k1 || p.Payload != payload || p.Origin != sim.NodeID(origin) {
			t.Fatalf("NewPublication mismatch: %+v", p)
		}
	})
}
