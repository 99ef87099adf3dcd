package supervisor

import (
	"math/rand"
	"sort"
	"testing"

	"sspubsub/internal/label"
	"sspubsub/internal/sim"
)

// refIndex is the O(n log n) oracle: a plain sorted slice.
type refIndex struct {
	entries []entry
}

func (r *refIndex) sortEntries() {
	sort.Slice(r.entries, func(i, j int) bool {
		return cmpLabel(r.entries[i].l, r.entries[j].l) < 0
	})
}

func (r *refIndex) insert(l label.Label, id sim.NodeID) {
	for i := range r.entries {
		if r.entries[i].l == l {
			r.entries[i].id = id
			return
		}
	}
	r.entries = append(r.entries, entry{l, id})
	r.sortEntries()
}

func (r *refIndex) remove(l label.Label) {
	for i := range r.entries {
		if r.entries[i].l == l {
			r.entries = append(r.entries[:i], r.entries[i+1:]...)
			return
		}
	}
}

func (r *refIndex) find(l label.Label) int {
	return sort.Search(len(r.entries), func(i int) bool {
		return cmpLabel(r.entries[i].l, l) >= 0
	})
}

// TestOrdIndexMatchesSortedSlice drives random put/del traffic through the
// store and cross-checks its count, walk order, digest and every query
// against the sorted-slice oracle.
func TestOrdIndexMatchesSortedSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	idx := store{track: true}
	ref := &refIndex{}

	labels := make([]label.Label, 200)
	for i := range labels {
		if rng.Intn(4) == 0 {
			// Arbitrary (possibly malformed) labels, like corrupted states.
			labels[i] = label.Label{Bits: rng.Uint64() & 0xffff, Len: uint8(1 + rng.Intn(16))}
		} else {
			labels[i] = label.FromIndex(uint64(rng.Intn(300)))
		}
	}

	check := func(step int) {
		t.Helper()
		if idx.len() != len(ref.entries) {
			t.Fatalf("step %d: len %d, want %d", step, idx.len(), len(ref.entries))
		}
		var walked []entry
		idx.walk(func(l label.Label, id sim.NodeID) { walked = append(walked, entry{l, id}) })
		var want [16]byte
		for i, e := range walked {
			if e != ref.entries[i] {
				t.Fatalf("step %d: walk[%d] = %v, want %v", step, i, e, ref.entries[i])
			}
			want = xor16(want, entryHash(e.l, e.id))
		}
		if idx.hash != want || idx.digest() != want {
			t.Fatalf("step %d: digest %x (recomputed %x), want %x", step, idx.hash, idx.digest(), want)
		}
		for k := 0; k < len(ref.entries); k++ {
			n := idx.kth(k)
			if n == nil || n.l != ref.entries[k].l || n.id != ref.entries[k].id {
				t.Fatalf("step %d: kth(%d) mismatch", step, k)
			}
		}
		if idx.kth(len(ref.entries)) != nil || idx.kth(-1) != nil {
			t.Fatalf("step %d: kth out of range not nil", step)
		}
		// Probe pred/succ/get/at at both present and absent labels.
		for trial := 0; trial < 30; trial++ {
			probe := labels[rng.Intn(len(labels))]
			i := ref.find(probe)
			present := i < len(ref.entries) && ref.entries[i].l == probe
			if g := idx.get(probe); (g != nil) != present {
				t.Fatalf("step %d: get(%v) present=%v, want %v", step, probe, g != nil, present)
			}
			if want := sim.None; present && idx.at(probe) != ref.entries[i].id || !present && idx.at(probe) != want {
				t.Fatalf("step %d: at(%v) = %d", step, probe, idx.at(probe))
			}
			p := idx.pred(probe)
			if i == 0 {
				if p != nil {
					t.Fatalf("step %d: pred(%v) = %v, want nil", step, probe, p.l)
				}
			} else if p == nil || p.l != ref.entries[i-1].l {
				t.Fatalf("step %d: pred(%v) mismatch", step, probe)
			}
			si := i
			if present {
				si = i + 1
			}
			sn := idx.succ(probe)
			if si >= len(ref.entries) {
				if sn != nil {
					t.Fatalf("step %d: succ(%v) = %v, want nil", step, probe, sn.l)
				}
			} else if sn == nil || sn.l != ref.entries[si].l {
				t.Fatalf("step %d: succ(%v) mismatch", step, probe)
			}
		}
	}

	for step := 0; step < 2000; step++ {
		l := labels[rng.Intn(len(labels))]
		switch rng.Intn(3) {
		case 0, 1:
			id := sim.NodeID(1 + rng.Intn(50))
			idx.put(l, id)
			ref.insert(l, id)
		default:
			i := ref.find(l)
			present := i < len(ref.entries) && ref.entries[i].l == l
			if id, ok := idx.del(l); ok != present || present && id != ref.entries[i].id {
				t.Fatalf("step %d: del(%v) = %d, %v", step, l, id, ok)
			}
			ref.remove(l)
		}
		if step%50 == 0 || step > 1950 {
			check(step)
		}
	}
}

// TestOrdIndexShapeIsInsertionOrderIndependent verifies the determinism
// property the sim replay relies on: the treap shape is a pure function of
// the key set, so any insertion order yields an identical tree.
func TestOrdIndexShapeIsInsertionOrderIndependent(t *testing.T) {
	keys := make([]label.Label, 500)
	for i := range keys {
		keys[i] = label.FromIndex(uint64(i))
	}
	build := func(perm []int) *onode {
		var idx store
		for _, i := range perm {
			idx.put(keys[i], sim.NodeID(i+1))
		}
		return idx.root
	}
	var sameShape func(a, b *onode) bool
	sameShape = func(a, b *onode) bool {
		if a == nil || b == nil {
			return a == b
		}
		return a.l == b.l && a.id == b.id && a.size == b.size &&
			sameShape(a.left, b.left) && sameShape(a.right, b.right)
	}
	fwd := make([]int, len(keys))
	rev := make([]int, len(keys))
	for i := range fwd {
		fwd[i] = i
		rev[i] = len(keys) - 1 - i
	}
	shuffled := rand.New(rand.NewSource(7)).Perm(len(keys))
	base := build(fwd)
	if !sameShape(base, build(rev)) || !sameShape(base, build(shuffled)) {
		t.Fatal("treap shape depends on insertion order")
	}
}
