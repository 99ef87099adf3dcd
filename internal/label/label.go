// Package label implements the label algebra of the supervised skip ring
// (Feldmann et al., "Self-Stabilizing Supervised Publish-Subscribe Systems",
// Definition 2 and Section 3.2.2).
//
// The supervisor assigns subscriber x the label l(x): the binary
// representation of x with its leading bit moved to the units place.
// Labels are generated in the order 0, 1, 01, 11, 001, 011, 101, 111, 0001…
// A label y = (y1 … yd) is also interpreted as the real value
// r(y) = Σ yi/2^i in [0, 1), which induces the ring order.
//
// Labels are represented exactly: Bits holds the bit string read
// most-significant-first and Len its length. r(y) is represented as a 64-bit
// fixed-point fraction (Frac), so all comparisons and the shortcut
// reflection r(s) = 2·r(w) − r(v) are exact. The wrap 1.0 ≡ 0.0 of the ring
// falls out of mod-2^64 arithmetic, matching the paper's convention that the
// value 1 is represented by the subscriber with label 0.
package label

import (
	"fmt"
	"math/bits"
	"strings"
)

// MaxLen is the maximum supported label length. It bounds the number of
// subscribers per topic at 2^62, far beyond simulation scale, while keeping
// Frac arithmetic exact in 64 bits.
const MaxLen = 62

// Label is a bit string {0,1}^Len. The zero value is the bottom label ⊥
// (a subscriber that has not received a label yet); every valid label has
// Len ≥ 1. Labels are comparable with == and usable as map keys.
type Label struct {
	// Bits holds the label bits, first bit (y1) most significant.
	// Only the low Len bits are meaningful; the rest are zero.
	Bits uint64
	// Len is the number of bits; 0 means ⊥.
	Len uint8
}

// Bottom is the ⊥ label (no label assigned).
var Bottom = Label{}

// IsBottom reports whether l is the ⊥ label.
func (l Label) IsBottom() bool { return l.Len == 0 }

// Valid reports whether l is a well-formed label: ⊥, the unique label "0",
// or a bit string ending in 1 (every l(x) with x ≥ 1 ends in its leading
// bit, which is 1).
func (l Label) Valid() bool {
	if l.Len == 0 {
		return l.Bits == 0
	}
	if l.Len > MaxLen {
		return false
	}
	if l.Bits>>l.Len != 0 {
		return false
	}
	if l.Bits == 0 {
		return l.Len == 1 // label "0"
	}
	return l.Bits&1 == 1
}

// New constructs a label from its bit string value and length.
func New(bits uint64, length uint8) Label { return Label{Bits: bits, Len: length} }

// FromIndex computes l(x): the binary representation (x_d … x_0) of x with
// minimum d, rotated so the leading bit moves to the units place, i.e.
// (x_{d−1} … x_0 x_d). FromIndex(0) is the label "0".
func FromIndex(x uint64) Label {
	if x == 0 {
		return Label{Bits: 0, Len: 1}
	}
	d := uint8(bits.Len64(x) - 1) // position of the leading bit
	low := x & ((1 << d) - 1)     // x_{d−1} … x_0
	return Label{Bits: low<<1 | 1, Len: d + 1}
}

// Index computes l⁻¹(label), the subscriber index that was assigned this
// label. It is the inverse of FromIndex for valid non-⊥ labels.
func (l Label) Index() uint64 {
	if l.Len == 0 {
		panic("label: Index of ⊥")
	}
	if l.Bits == 0 {
		return 0
	}
	// label = (x_{d−1} … x_0 x_d) with x_d = 1 and Len = d+1.
	d := uint64(l.Len - 1)
	return (l.Bits >> 1) | (l.Bits&1)<<d
}

// Frac returns r(l) = Σ yi/2^i as a 64-bit fixed-point fraction:
// Frac/2^64 = r(l). Frac(⊥) is 0 by convention (callers must not order ⊥).
func (l Label) Frac() uint64 {
	if l.Len == 0 {
		return 0
	}
	return l.Bits << (64 - l.Len)
}

// FromFrac reconstructs the unique label with r(label) = frac/2^64.
// frac 0 maps to the label "0" (the ring position 0 ≡ 1).
func FromFrac(frac uint64) Label {
	if frac == 0 {
		return Label{Bits: 0, Len: 1}
	}
	t := bits.TrailingZeros64(frac)
	return Label{Bits: frac >> t, Len: uint8(64 - t)}
}

// Real returns r(l) as a float64, for display only.
func (l Label) Real() float64 { return float64(l.Frac()) / (1 << 63) / 2 }

// String renders the bit string, or "⊥".
func (l Label) String() string {
	if l.Len == 0 {
		return "⊥"
	}
	var sb strings.Builder
	for i := int(l.Len) - 1; i >= 0; i-- {
		if l.Bits>>uint(i)&1 == 1 {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// GoString renders the label with its real value, for debugging.
func (l Label) GoString() string {
	if l.Len == 0 {
		return "⊥"
	}
	return fmt.Sprintf("%s(%g)", l.String(), l.Real())
}

// Parse parses a bit string such as "011" into a label. An empty string is ⊥.
func Parse(s string) (Label, error) {
	if s == "" || s == "⊥" {
		return Bottom, nil
	}
	if len(s) > MaxLen {
		return Bottom, fmt.Errorf("label: %q longer than %d bits", s, MaxLen)
	}
	var b uint64
	for _, c := range s {
		switch c {
		case '0':
			b <<= 1
		case '1':
			b = b<<1 | 1
		default:
			return Bottom, fmt.Errorf("label: invalid character %q in %q", c, s)
		}
	}
	l := Label{Bits: b, Len: uint8(len(s))}
	if !l.Valid() {
		// Only "0" and strings ending in 1 are generated labels; accepting
		// others would create Labels that compare equal on Frac but not ==.
		return Bottom, fmt.Errorf("label: %q is not a well-formed label", s)
	}
	return l, nil
}

// MustParse is Parse that panics on error, for tests and tables.
func MustParse(s string) Label {
	l, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return l
}

// Reflect computes the label s with r(s) = 2·r(w) − r(v), the reflection of
// v across w on the ring (Section 3.2.2): w was inserted between s and v,
// so s is v's neighbour one level below w's. Arithmetic wraps mod 1.
func Reflect(v, w Label) Label {
	return FromFrac(2*w.Frac() - v.Frac())
}

// CircularDistance returns the distance between the ring positions of a and
// b, measured the short way around, as a 64-bit fraction of the circle.
func CircularDistance(a, b Label) uint64 {
	d := a.Frac() - b.Frac()
	if int64(d) < 0 {
		d = -d
	}
	return d
}

// LineDistance returns |r(a) − r(b)| without wrapping, as the paper's
// configuration-checking action (iii) uses plain distances on [0,1).
func LineDistance(a, b Label) uint64 {
	af, bf := a.Frac(), b.Frac()
	if af < bf {
		return bf - af
	}
	return af - bf
}

// ShortcutChain computes the chain of shortcut labels derived from one ring
// neighbour (Section 3.2.2): starting from neighbour label nb of node v, it
// repeatedly reflects (s ← 2·r(s_prev) − r(v), with s_0 = nb) while the
// current label is strictly longer than |v|, and returns the labels
// produced, nearest first, ending with the first label of length ≤ |v|
// (the level-|v| neighbour). If |nb| ≤ |v| the chain is just {nb}: the ring
// neighbour itself is already v's level-|v| neighbour on that side.
//
// The returned slice therefore contains v's neighbours in the rings
// R_{|nb|−1}, R_{|nb|−2}, …, R_{|v|} on one side. The last element is the
// terminal (level-|v|) label; all previous elements are shortcuts at level
// equal to their own length.
func ShortcutChain(v, nb Label) []Label {
	if v.IsBottom() || nb.IsBottom() {
		return nil
	}
	if nb.Len <= v.Len {
		return []Label{nb}
	}
	var out []Label
	cur := nb
	for cur.Len > v.Len {
		cur = Reflect(v, cur)
		out = append(out, cur)
		if len(out) > MaxLen { // corrupted-state guard: never loop forever
			break
		}
	}
	return out
}

// Shortcuts computes the complete set of shortcut labels node v must hold
// given its current ring neighbours (left and right labels), per the local
// derivation of Section 3.2.2. Ring neighbours themselves are not included.
// The second and third return values are the terminal level-|v| labels on
// the left and right side (which may equal left/right when those are already
// short enough); they are the pair v introduces to each other on Timeout.
func Shortcuts(v, left, right Label) (set []Label, levelLeft, levelRight Label) {
	if v.IsBottom() {
		return nil, Bottom, Bottom
	}
	if !left.IsBottom() {
		chain := ShortcutChain(v, left)
		levelLeft = chain[len(chain)-1]
		for _, s := range chain {
			if s != left {
				set = append(set, s)
			}
		}
	}
	if !right.IsBottom() {
		chain := ShortcutChain(v, right)
		levelRight = chain[len(chain)-1]
		for _, s := range chain {
			if s != right {
				set = append(set, s)
			}
		}
	}
	return set, levelLeft, levelRight
}
