package trie

import (
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
)

// TestNodeHoldsNoPointers walks Node's fields: none may hold a pointer, or
// every slab chunk would go back on the garbage collector's scan list.
func TestNodeHoldsNoPointers(t *testing.T) {
	var check func(path string, ty reflect.Type)
	check = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		case reflect.Array:
			check(path+"[]", ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				check(path+"."+f.Name, f.Type)
			}
		default:
			t.Errorf("%s is a %s, which can hold a pointer", path, ty.Kind())
		}
	}
	check("Node", reflect.TypeOf(Node{}))
}

// TestNodeSize pins Node at 48 bytes: a leaf's origin lives in the leaf
// table, not in every node, so inner nodes do not carry it.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got != 48 {
		t.Fatalf("Node is %d bytes, want 48", got)
	}
}

// capacity is the number of slots the slab's chunks hold.
func (t *Trie) capacity() int {
	n := 0
	for _, c := range t.chunks {
		n += len(c.nodes)
	}
	return n
}

// randomPubs draws n publications with uniform 64-bit keys.
func randomPubs(rng *rand.Rand, n int) []proto.Publication {
	out := make([]proto.Publication, n)
	for i := range out {
		out[i] = proto.Publication{Key: Key{Bits: rng.Uint64(), Len: 64}, Origin: 1, Payload: "x"}
	}
	return out
}

// TestWarmInsertAllocatesOnlyForChunks: 10,000 inserts into a warm trie
// allocate only the chunks the slab opens (a node and a payload slice each)
// and the growth of the chunk table, never per publication.
func TestWarmInsertAllocatesOnlyForChunks(t *testing.T) {
	runtime.GC() // the first GC cycle starts its workers, which allocates
	rng := rand.New(rand.NewSource(1))
	tr := New(64)
	for _, p := range randomPubs(rng, 1000) {
		tr.Insert(p)
	}
	// AllocsPerRun calls f once to warm up, then once measured: each call
	// gets a batch of its own.
	batches := [][]proto.Publication{randomPubs(rng, 10000), randomPubs(rng, 10000)}
	calls, budget := 0, 0
	allocs := testing.AllocsPerRun(1, func() {
		chunks, tableCap := len(tr.chunks), cap(tr.chunks)
		for _, p := range batches[calls] {
			tr.Insert(p)
		}
		calls++
		budget = 2 * (len(tr.chunks) - chunks)
		if cap(tr.chunks) != tableCap {
			budget++
		}
	})
	t.Logf("%.0f allocations, chunk growth accounts for %d", allocs, budget)
	if allocs > float64(budget) {
		t.Fatalf("10,000 warm inserts allocated %.0f times, chunk growth accounts for %d", allocs, budget)
	}
	if msg := tr.CheckInvariants(); msg != "" || tr.Len() != 21000 {
		t.Fatalf("len %d: %s", tr.Len(), msg)
	}
}

// TestCappedSlabPlateaus: a trie held at a cap by Insert + DeleteMin (a
// HistoryCap store) reuses its freed slots, so after warm-up its slab
// neither grows nor allocates.
func TestCappedSlabPlateaus(t *testing.T) {
	const cap = 64
	rng := rand.New(rand.NewSource(2))
	tr := New(64)
	for _, p := range randomPubs(rng, 4*cap) {
		tr.Insert(p)
		for tr.Len() > cap {
			tr.DeleteMin()
		}
	}
	top, chunks := tr.top, len(tr.chunks)
	if top > 2*cap+1 {
		t.Fatalf("high-water %d slots for at most %d publications", top, cap+1)
	}
	pubs := randomPubs(rng, 10*cap)
	i := 0
	allocs := testing.AllocsPerRun(len(pubs)-1, func() {
		tr.Insert(pubs[i])
		i++
		for tr.Len() > cap {
			tr.DeleteMin()
		}
	})
	if allocs != 0 || tr.top != top || len(tr.chunks) != chunks {
		t.Fatalf("capped slab moved: %.2f allocs per insert, high-water %d → %d, chunks %d → %d",
			allocs, top, tr.top, chunks, len(tr.chunks))
	}
}

// TestCheckInvariantsSlabIndex: a child reference outside the slab is
// reported, not followed.
func TestCheckInvariantsSlabIndex(t *testing.T) {
	tr := New(3)
	for _, p := range []string{"000", "010", "100", "101"} {
		tr.Insert(pub(p))
	}
	tr.Root().child[1] = tr.top + 1
	if msg := tr.CheckInvariants(); !strings.Contains(msg, "outside the slab") {
		t.Fatal("a child index past the slab's high-water was not flagged")
	}
}

// FuzzTrieOps runs random Insert / InsertFlood / DeleteMin / Get against a
// map model. Every operation must agree with the model and leave the
// invariants intact; the slab's high-water must stay within twice the
// peak size (s publications use 2s−1 slots, so freed slots are reused)
// and its capacity within twice the high-water; at the end the root digest
// must equal that of a fresh trie built from All().
//
// data[0] picks the key width m; then every 3 bytes are one operation: the
// opcode, and two bytes that hash to the key. Only the first maxOps
// operations run, since the checks after each one cost O(size).
func FuzzTrieOps(f *testing.F) {
	f.Add([]byte{63, 0, 0, 1, 0, 0, 2, 2, 0, 0, 3, 0, 1})
	f.Add([]byte{3, 0, 0, 1, 0, 0, 2, 0, 0, 3, 1, 0, 0, 2, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		m := data[0]%64 + 1
		tr := New(m)
		type entry struct {
			pub     proto.Publication
			flooded bool
		}
		model := map[Key]*entry{}
		peak := 0
		const maxOps = 1000
		for i, ops := 0, data[1:]; len(ops) >= 3 && i < maxOps; i, ops = i+1, ops[3:] {
			raw := uint64(ops[1])<<8 | uint64(ops[2])
			k := Key{Bits: raw * 0x9E3779B97F4A7C15, Len: m}
			if m < 64 {
				k.Bits &= 1<<m - 1
			}
			p := proto.Publication{Key: k, Origin: sim.NodeID(i), Payload: strconv.Itoa(i)}
			e := model[k]
			switch ops[0] % 4 {
			case 0:
				if added := tr.Insert(p); added != (e == nil) {
					t.Fatalf("op %d: Insert(%s) added=%v, model has it: %v", i, KeyString(k), added, e != nil)
				}
				if e == nil {
					model[k] = &entry{pub: p}
				}
			case 1:
				added, forward := tr.InsertFlood(p)
				if added != (e == nil) || forward != (e == nil || !e.flooded) {
					t.Fatalf("op %d: InsertFlood(%s) = %v, %v", i, KeyString(k), added, forward)
				}
				if e == nil {
					e = &entry{pub: p}
					model[k] = e
				}
				e.flooded = true
			case 2:
				got, ok := tr.DeleteMin()
				if ok != (len(model) > 0) {
					t.Fatalf("op %d: DeleteMin ok=%v with %d stored", i, ok, len(model))
				}
				if ok {
					for mk := range model {
						if mk.Bits < got.Key.Bits {
							t.Fatalf("op %d: DeleteMin returned %s, %s is smaller", i, KeyString(got.Key), KeyString(mk))
						}
					}
					if want := model[got.Key]; want == nil || want.pub != got {
						t.Fatalf("op %d: DeleteMin returned %+v, model %+v", i, got, want)
					}
					delete(model, got.Key)
				}
			case 3:
				got, ok := tr.Get(k)
				if ok != (e != nil) || ok && got != e.pub {
					t.Fatalf("op %d: Get(%s) = %+v, %v", i, KeyString(k), got, ok)
				}
			}
			if msg := tr.CheckInvariants(); msg != "" {
				t.Fatalf("op %d: %s", i, msg)
			}
			if tr.Len() != len(model) {
				t.Fatalf("op %d: Len %d, model %d", i, tr.Len(), len(model))
			}
			peak = max(peak, len(model))
			if int(tr.top) > 2*peak {
				t.Fatalf("op %d: high-water %d slots at peak size %d: freed slots not reused", i, tr.top, peak)
			}
			if c := tr.capacity(); c > 2*int(tr.top) {
				t.Fatalf("op %d: %d slots allocated for a high-water of %d", i, c, tr.top)
			}
		}
		all := tr.All()
		want := make([]proto.Publication, 0, len(model))
		for _, e := range model {
			want = append(want, e.pub)
		}
		sort.Slice(want, func(i, j int) bool { return want[i].Key.Bits < want[j].Key.Bits })
		if !reflect.DeepEqual(all, want) && len(want) > 0 {
			t.Fatalf("All() = %v, model %v", all, want)
		}
		fresh := New(m)
		for _, p := range all {
			fresh.Insert(p)
		}
		if !tr.Equal(fresh) {
			t.Fatal("root digest differs from a fresh trie over the same set")
		}
	})
}
