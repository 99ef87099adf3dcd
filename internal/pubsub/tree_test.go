package pubsub

import (
	"math/rand"
	"slices"
	"testing"

	"sspubsub/internal/label"
	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
)

// TestSplitTilesArc: for random neighbourhoods and arcs, Split visits each
// target inside the arc exactly once, clockwise, with a piece that holds
// the target, and the pieces tile the arc: contiguous from its start to its
// end, except for the one gap — the node's own piece — around the node's
// position when the node lies inside the arc.
func TestSplitTilesArc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5000; trial++ {
		idx := rng.Perm(64)[:1+rng.Intn(10)]
		self := label.FromIndex(uint64(idx[0])).Frac()
		var targets []proto.Tuple
		for i, x := range idx[1:] {
			targets = append(targets, proto.Tuple{L: label.FromIndex(uint64(x)), Ref: sim.NodeID(100 + i)})
		}
		slices.SortFunc(targets, func(a, b proto.Tuple) int {
			if a.L.Frac() < b.L.Frac() {
				return -1
			}
			return 1
		})
		var a proto.Arc
		if rng.Intn(3) > 0 {
			a = proto.Arc{Lo: rng.Uint64(), Hi: rng.Uint64()}
		}
		whole := a // the arc Split actually cuts
		if a.Lo == a.Hi {
			whole = proto.Arc{Lo: self + 1<<63, Hi: self + 1<<63}
		}
		off := func(p uint64) uint64 { return p - whole.Lo }

		var pieces []proto.Arc
		var got []sim.NodeID
		Split(self, targets, a, func(to sim.NodeID, piece proto.Arc) {
			got = append(got, to)
			pieces = append(pieces, piece)
		})
		var want []sim.NodeID
		pos := make(map[sim.NodeID]uint64)
		for _, tp := range targets {
			pos[tp.Ref] = tp.L.Frac()
			if whole.Contains(tp.L.Frac()) {
				want = append(want, tp.Ref)
			}
		}
		slices.SortFunc(want, func(x, y sim.NodeID) int {
			if off(pos[x]) < off(pos[y]) {
				return -1
			}
			return 1
		})
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: visited %v, want the in-arc targets clockwise %v", trial, got, want)
		}
		gaps := 0
		selfIn := whole.Contains(self)
		edge := whole.Lo // where the next piece must start
		for i, piece := range pieces {
			if !piece.Contains(pos[got[i]]) {
				t.Fatalf("trial %d: piece %+v misses its target %d", trial, piece, got[i])
			}
			if piece.Lo != edge {
				if !selfIn || off(edge) > off(self) || off(self) >= off(piece.Lo) {
					t.Fatalf("trial %d: gap [%d, %d) before piece %d does not hold the node", trial, edge, piece.Lo, i)
				}
				gaps++
			}
			edge = piece.Hi
		}
		if len(pieces) > 0 && edge != whole.Hi {
			if !selfIn || off(edge) > off(self) {
				t.Fatalf("trial %d: pieces end at %d, arc at %d", trial, edge, whole.Hi)
			}
			gaps++
		}
		if len(pieces) > 0 && selfIn && gaps != 1 || !selfIn && gaps != 0 {
			t.Fatalf("trial %d: %d gaps, node inside the arc: %v", trial, gaps, selfIn)
		}
	}
}
