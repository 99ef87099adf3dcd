package label

import "testing"

// FuzzIndexRoundTrip checks the l(x) codec: FromIndex always yields a
// valid label and Index inverts it, over the supported index domain
// [0, 2^MaxLen-1) (MaxLen bounds the label length at 62 bits).
func FuzzIndexRoundTrip(f *testing.F) {
	for _, x := range []uint64{0, 1, 2, 3, 7, 8, 63, 64, 1 << 20, 1 << 61, 1<<61 - 1, 1<<62 - 1} {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x uint64) {
		x %= 1 << MaxLen // keep l(x) within MaxLen bits
		l := FromIndex(x)
		if !l.Valid() {
			t.Fatalf("FromIndex(%d) = %v invalid", x, l)
		}
		if got := l.Index(); got != x {
			t.Fatalf("Index(FromIndex(%d)) = %d", x, got)
		}
		// The string round trip must also be exact.
		p, err := Parse(l.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", l.String(), err)
		}
		if p != l {
			t.Fatalf("Parse(String(%v)) = %v", l, p)
		}
		// Frac/FromFrac is the ring-position encoding: exact for every
		// valid label.
		if got := FromFrac(l.Frac()); got != l {
			t.Fatalf("FromFrac(Frac(%v)) = %v", l, got)
		}
	})
}

// FuzzParse checks that Parse accepts exactly well-formed bit strings and
// that accepted inputs round-trip through String.
func FuzzParse(f *testing.F) {
	for _, s := range []string{"", "⊥", "0", "1", "01", "11", "0101", "x", "10", "00",
		"1111111111111111111111111111111111111111111111111111111111111111"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		l, err := Parse(s)
		if err != nil {
			return // rejected inputs carry no invariant
		}
		if !l.Valid() {
			t.Fatalf("Parse(%q) accepted invalid label %#v", s, l)
		}
		if l.IsBottom() {
			if s != "" && s != "⊥" {
				t.Fatalf("Parse(%q) = ⊥", s)
			}
			return
		}
		if got := l.String(); got != s {
			t.Fatalf("String(Parse(%q)) = %q", s, got)
		}
	})
}
