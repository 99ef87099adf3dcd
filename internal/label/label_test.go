package label

import (
	"sort"
	"testing"
	"testing/quick"
)

// The first labels in generation order, from Section 2.1 of the paper:
// "Labels are generated in the order: 0, 1, 01, 11, 001, 011, 101, 111, 0001…"
func TestFromIndexPaperSequence(t *testing.T) {
	want := []string{"0", "1", "01", "11", "001", "011", "101", "111", "0001"}
	for x, w := range want {
		if got := FromIndex(uint64(x)).String(); got != w {
			t.Errorf("l(%d) = %s, want %s", x, got, w)
		}
	}
}

// Figure 1 of the paper lists the triples (x, l(x), r(l(x))) for SR(16).
func TestFigure1Triples(t *testing.T) {
	cases := []struct {
		x     uint64
		label string
		real  float64
	}{
		{0, "0", 0}, {1, "1", 1.0 / 2}, {2, "01", 1.0 / 4}, {3, "11", 3.0 / 4},
		{4, "001", 1.0 / 8}, {5, "011", 3.0 / 8}, {6, "101", 5.0 / 8}, {7, "111", 7.0 / 8},
		{8, "0001", 1.0 / 16}, {9, "0011", 3.0 / 16}, {10, "0101", 5.0 / 16},
		{11, "0111", 7.0 / 16}, {12, "1001", 9.0 / 16}, {13, "1011", 11.0 / 16},
		{14, "1101", 13.0 / 16}, {15, "1111", 15.0 / 16},
	}
	for _, c := range cases {
		l := FromIndex(c.x)
		if l.String() != c.label {
			t.Errorf("l(%d) = %s, want %s", c.x, l, c.label)
		}
		if l.Real() != c.real {
			t.Errorf("r(l(%d)) = %g, want %g", c.x, l.Real(), c.real)
		}
	}
}

func TestIndexInvertsFromIndex(t *testing.T) {
	f := func(x uint64) bool {
		x %= 1 << 50
		return FromIndex(x).Index() == x
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestFracFromFracRoundTrip(t *testing.T) {
	f := func(x uint64) bool {
		l := FromIndex(x % (1 << 40))
		return FromFrac(l.Frac()) == l
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestLabelLengths(t *testing.T) {
	// f(1) = 2 labels of length 1, f(k) = 2^{k−1} labels of length k (Lemma 3).
	counts := map[uint8]int{}
	for x := uint64(0); x < 1024; x++ {
		counts[FromIndex(x).Len]++
	}
	if counts[1] != 2 {
		t.Errorf("f(1) = %d, want 2", counts[1])
	}
	for k := uint8(2); k <= 10; k++ {
		if want := 1 << (k - 1); counts[k] != want {
			t.Errorf("f(%d) = %d, want %d", k, counts[k], want)
		}
	}
}

// New labels in generation x ∈ {2^d … 2^{d+1}−1} fall exactly halfway
// between consecutive older labels (uniform spreading, Section 2.1).
func TestUniformSpreading(t *testing.T) {
	for d := 1; d <= 8; d++ {
		var old []uint64
		for x := uint64(0); x < 1<<d; x++ {
			old = append(old, FromIndex(x).Frac())
		}
		sort.Slice(old, func(i, j int) bool { return old[i] < old[j] })
		for x := uint64(1 << d); x < 1<<(d+1); x++ {
			f := FromIndex(x).Frac()
			i := sort.Search(len(old), func(i int) bool { return old[i] > f })
			lo := old[i-1]
			hi := uint64(0) // wrap: next is 1.0 ≡ 0
			if i < len(old) {
				hi = old[i]
			}
			mid := lo + (hi-lo)/2 // wraps correctly for hi = 0
			if f != mid {
				t.Fatalf("d=%d x=%d: frac %x not midpoint of (%x, %x)", d, x, f, lo, hi)
			}
		}
	}
}

func TestParseString(t *testing.T) {
	for _, s := range []string{"0", "1", "01", "11", "0001", "1011"} {
		l, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if l.String() != s {
			t.Errorf("Parse(%q).String() = %q", s, l.String())
		}
	}
	if l, err := Parse(""); err != nil || !l.IsBottom() {
		t.Errorf("Parse(\"\") = %v, %v; want ⊥", l, err)
	}
	if _, err := Parse("10x"); err == nil {
		t.Error("Parse(10x) should fail")
	}
}

func TestValid(t *testing.T) {
	for x := uint64(0); x < 512; x++ {
		if !FromIndex(x).Valid() {
			t.Errorf("l(%d) not valid", x)
		}
	}
	if !Bottom.Valid() {
		t.Error("⊥ should be valid")
	}
	for _, bad := range []Label{
		{Bits: 2, Len: 2},  // "10": ends in 0, not a generated label
		{Bits: 0, Len: 2},  // "00"
		{Bits: 8, Len: 2},  // bits exceed length
		{Bits: 1, Len: 63}, // too long
	} {
		if bad.Valid() {
			t.Errorf("%v should be invalid", bad)
		}
	}
}

// The running example of Section 3.2.2: subscriber 1/4 ("01") with ring
// neighbours 3/16 ("0011") and 5/16 ("0101") derives shortcuts
// 1/8 then 0 on the left and 3/8 then 1/2 on the right.
func TestShortcutChainPaperExample(t *testing.T) {
	v := MustParse("01")       // 1/4
	left := MustParse("0011")  // 3/16
	right := MustParse("0101") // 5/16

	gotL := ShortcutChain(v, left)
	wantL := []Label{MustParse("001"), MustParse("0")} // 1/8, 0
	if len(gotL) != len(wantL) {
		t.Fatalf("left chain %v, want %v", gotL, wantL)
	}
	for i := range wantL {
		if gotL[i] != wantL[i] {
			t.Errorf("left chain[%d] = %v, want %v", i, gotL[i], wantL[i])
		}
	}

	gotR := ShortcutChain(v, right)
	wantR := []Label{MustParse("011"), MustParse("1")} // 3/8, 1/2
	if len(gotR) != len(wantR) {
		t.Fatalf("right chain %v, want %v", gotR, wantR)
	}
	for i := range wantR {
		if gotR[i] != wantR[i] {
			t.Errorf("right chain[%d] = %v, want %v", i, gotR[i], wantR[i])
		}
	}
}

// A node whose ring neighbours are both short already (a deepest-level node)
// has no shortcuts: its chain is just the neighbour itself.
func TestShortcutChainDeepNode(t *testing.T) {
	v := MustParse("0011") // 3/16, length 4
	if got := ShortcutChain(v, MustParse("001")); len(got) != 1 || got[0] != MustParse("001") {
		t.Errorf("chain = %v, want [001]", got)
	}
	set, ll, lr := Shortcuts(v, MustParse("001"), MustParse("01"))
	if len(set) != 0 {
		t.Errorf("deep node should have no shortcut labels, got %v", set)
	}
	if ll != MustParse("001") || lr != MustParse("01") {
		t.Errorf("level pair = %v, %v; want 001, 01", ll, lr)
	}
}

// Reflection across the top of the ring: node 3/4 with right neighbour
// 7/8 reflects to 1.0 ≡ 0 (label "0").
func TestReflectWraps(t *testing.T) {
	got := Reflect(MustParse("11"), MustParse("111"))
	if got != MustParse("0") {
		t.Errorf("Reflect(3/4, 7/8) = %v, want label 0", got)
	}
}

// In a full ring SR(2^m), every node v has exactly 2 shortcut/ring labels
// per level in {|v|, …, m}, and the derived labels all exist in the ring.
func TestShortcutsStructure(t *testing.T) {
	const m = 5
	n := uint64(1) << m
	fracs := make([]uint64, 0, n)
	byFrac := map[uint64]Label{}
	for x := uint64(0); x < n; x++ {
		l := FromIndex(x)
		fracs = append(fracs, l.Frac())
		byFrac[l.Frac()] = l
	}
	sort.Slice(fracs, func(i, j int) bool { return fracs[i] < fracs[j] })
	for i, f := range fracs {
		v := byFrac[f]
		left := byFrac[fracs[(i+int(n)-1)%int(n)]]
		right := byFrac[fracs[(i+1)%int(n)]]
		set, ll, lr := Shortcuts(v, left, right)
		// Every derived label must exist in the ring.
		for _, s := range set {
			if _, ok := byFrac[s.Frac()]; !ok {
				t.Fatalf("node %v derived nonexistent shortcut %v", v, s)
			}
		}
		if _, ok := byFrac[ll.Frac()]; !ok || lr.Frac() == ll.Frac() && n > 2 && v.Len != 1 {
			if !ok {
				t.Fatalf("node %v level-left %v does not exist", v, ll)
			}
		}
		// Count per level: shortcuts at levels |v| … m−1, two per level
		// (counting the terminal labels at level |v|). The level of an
		// edge is the longer of its two labels (Definition 2).
		perLevel := map[uint8]int{}
		for _, s := range set {
			perLevel[max(v.Len, s.Len)]++
		}
		// ring edges are level m; set excludes ring neighbours.
		want := 2 * (int(m) - int(v.Len)) // levels |v| … m−1, minus the 2 ring edges
		if len(set) != want {
			t.Errorf("node %v: %d shortcut labels, want %d (set %v)", v, len(set), want, set)
		}
		for lvl, c := range perLevel {
			if c != 2 {
				t.Errorf("node %v: %d shortcuts at level %d, want 2", v, c, lvl)
			}
		}
	}
}

func TestCircularDistance(t *testing.T) {
	a, b := MustParse("0001"), MustParse("1111") // 1/16 and 15/16: 1/8 apart around 0
	if got := CircularDistance(a, b); got != uint64(1)<<61 {
		t.Errorf("CircularDistance = %x, want %x (1/8)", got, uint64(1)<<61)
	}
	if got := LineDistance(a, b); got != (uint64(7) << 61) {
		t.Errorf("LineDistance = %x, want %x (7/8)", got, uint64(7)<<61)
	}
}
