package psim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"sspubsub/internal/sim"
)

// TestHeapPopsInKeyOrder pushes and pops random event sequences — times
// drawn from a small grid so ties on t are common, external injections
// (extLane), and fault-dup copies (one message, two sequence numbers) —
// and requires the pops to follow a reference kept sorted by the same key.
// Each popped slot must no longer reference its body.
func TestHeapPopsInKeyOrder(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h pheap
		var ref []pevent
		seqs := map[int32]int64{}
		newEvent := func() pevent {
			lane := int32(rng.Intn(5)) - 1 // -1 is extLane
			ev := pevent{
				t:       float64(rng.Intn(8)) / 4,
				srcLane: lane,
				srcSeq:  seqs[lane],
				kind:    evDeliver,
				msg:     sim.Message{To: sim.NodeID(1 + rng.Intn(4)), Body: &ping{Hop: rng.Intn(100)}},
			}
			seqs[lane]++
			return ev
		}
		for op := 0; op < 2000; op++ {
			if len(ref) > 0 && rng.Intn(5) < 2 {
				slot := h.keys[0].slot
				got := h.pop()
				if got != ref[0] {
					t.Fatalf("seed %d op %d: popped %+v, want %+v", seed, op, got, ref[0])
				}
				if h.slab[slot].msg.Body != nil {
					t.Fatalf("seed %d op %d: popped slot %d still holds its body", seed, op, slot)
				}
				ref = ref[1:]
				continue
			}
			ev := newEvent()
			h.push(ev)
			ref = insertSorted(ref, ev)
			if rng.Intn(6) == 0 { // a FaultDup copy: same message, next sequence number
				dup := ev
				dup.t = float64(rng.Intn(8)) / 4
				dup.srcSeq = seqs[ev.srcLane]
				seqs[ev.srcLane]++
				h.push(dup)
				ref = insertSorted(ref, dup)
			}
		}
		if h.len() != len(ref) || len(h.free)+h.len() != len(h.slab) {
			t.Fatalf("seed %d: %d keys, %d free of %d slots, reference holds %d", seed, h.len(), len(h.free), len(h.slab), len(ref))
		}
	}
}

func keyOf(e pevent) hkey { return hkey{t: e.t, srcSeq: e.srcSeq, srcLane: e.srcLane} }

// insertSorted inserts e into ref, which is sorted by key.
func insertSorted(ref []pevent, e pevent) []pevent {
	i := sort.Search(len(ref), func(i int) bool { return keyOf(e).before(keyOf(ref[i])) })
	return slices.Insert(ref, i, e)
}

// BenchmarkLaneHeap is one push and one pop at a steady population of
// 4,096 events, the shape of a lane's heap in the middle of a scale run.
func BenchmarkLaneHeap(b *testing.B) {
	const population = 4096
	rng := rand.New(rand.NewSource(1))
	var h pheap
	var seq int64
	var body any = ping{}
	event := func(now float64) pevent {
		seq++
		return pevent{t: now + 0.05 + 0.9*rng.Float64(), srcSeq: seq, kind: evDeliver, msg: sim.Message{To: 1, Body: body}}
	}
	for i := 0; i < population; i++ {
		h.push(event(0))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := h.pop()
		h.push(event(ev.t))
	}
}
