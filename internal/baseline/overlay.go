// Package baseline implements the comparison systems the paper positions
// the supervised skip ring against:
//
//   - Chord (Kniesburges et al. [13] / Stoica et al.): random node IDs on a
//     2^64 ring with successor and finger edges — the skip ring claims
//     better congestion thanks to its perfectly balanced label positions
//     (Section 1.3);
//   - skip graphs (Jacob et al. [10]): random membership vectors, doubly
//     linked lists per prefix level;
//   - a plain sorted ring, the O(n)-delivery topology of the
//     publish-subscribe systems of Siegemund/Turau [20, 21];
//   - a centralized broker (the client-server architecture of the
//     introduction), for the supervisor-load comparison.
//
// All overlays are static graphs: the congestion claim is read off their
// coordinates and degrees, the delivery-time claim off flooding hops.
package baseline

import (
	"math"
	"math/rand"
	"sort"

	"sspubsub/internal/topology"
)

// Overlay is a static graph over n nodes.
type Overlay interface {
	// Name identifies the overlay in experiment tables.
	Name() string
	// N returns the node count.
	N() int
	// Neighbors returns the adjacency of node x (indices).
	Neighbors(x int) []int
}

// FloodHops returns the eccentricity histogram of flooding from a random
// source: hops[i] is the number of nodes first reached in hop i.
func FloodHops(o Overlay, source int) []int {
	dist := make([]int, o.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[source] = 0
	queue := []int{source}
	far := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range o.Neighbors(v) {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				if dist[w] > far {
					far = dist[w]
				}
				queue = append(queue, w)
			}
		}
	}
	hist := make([]int, far+1)
	for _, d := range dist {
		if d >= 0 {
			hist[d]++
		}
	}
	return hist
}

// DegreeBalance reports how evenly an overlay spreads its edges — the
// quantity behind the paper's congestion claim (Section 1.3): during a
// flood every node handles one message per incident edge, so broadcast
// congestion is bounded by the degree distribution. The supervised skip
// ring's deterministic label positions give it a deterministic
// 2·⌈log n⌉−1 maximum; Chord's and the skip graph's random coordinates
// spread around the same mean with a heavier tail.
type DegreeBalance struct {
	Overlay    string
	N          int
	MaxDegree  int
	AvgDegree  float64
	StdDev     float64
	P99        int
	MaxOverAvg float64 // max/avg: 1.0 would be perfectly balanced
}

// Balance computes the degree-balance statistics of an overlay.
func Balance(o Overlay) DegreeBalance {
	n := o.N()
	res := DegreeBalance{Overlay: o.Name(), N: n}
	degs := make([]int, n)
	sum := 0
	for x := 0; x < n; x++ {
		d := len(o.Neighbors(x))
		degs[x] = d
		sum += d
		if d > res.MaxDegree {
			res.MaxDegree = d
		}
	}
	if n == 0 {
		return res
	}
	res.AvgDegree = float64(sum) / float64(n)
	var ss float64
	for _, d := range degs {
		diff := float64(d) - res.AvgDegree
		ss += float64(diff * diff) // rounded: no arm64 FMA
	}
	res.StdDev = math.Sqrt(ss / float64(n))
	sort.Ints(degs)
	res.P99 = degs[(99*n)/100]
	if res.AvgDegree > 0 {
		res.MaxOverAvg = float64(res.MaxDegree) / res.AvgDegree
	}
	return res
}

// PositionBalance measures the claim of Section 1.3 directly: how evenly
// the overlay's node coordinates cover the [0,1) circle. Each of M random
// keys is assigned to its circular successor node (the standard
// consistent-hashing responsibility rule); the max/avg assignment ratio
// quantifies imbalance. The supervisor's label assignment keeps adjacent
// gaps within a factor 2 deterministically, while random coordinates
// (Chord IDs, skip-graph keys) produce Θ(log n) gap skew.
type PositionBalance struct {
	Overlay    string
	N          int
	Keys       int
	MaxLoad    int
	AvgLoad    float64
	MaxOverAvg float64
	MaxGap     float64 // largest arc, as a multiple of the uniform 1/n arc
}

// KeyLoad computes the position-balance statistics for nodes at the given
// circular positions (64-bit fixed-point fractions).
func KeyLoad(name string, positions []uint64, keys int, rng *rand.Rand) PositionBalance {
	n := len(positions)
	res := PositionBalance{Overlay: name, N: n, Keys: keys}
	if n == 0 {
		return res
	}
	sorted := append([]uint64(nil), positions...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	load := make([]int, n)
	for i := 0; i < keys; i++ {
		k := rng.Uint64()
		idx := sort.Search(n, func(i int) bool { return sorted[i] >= k })
		load[idx%n]++
	}
	sum := 0
	for _, l := range load {
		sum += l
		if l > res.MaxLoad {
			res.MaxLoad = l
		}
	}
	res.AvgLoad = float64(sum) / float64(n)
	if res.AvgLoad > 0 {
		res.MaxOverAvg = float64(res.MaxLoad) / res.AvgLoad
	}
	var maxGap uint64
	for i := range sorted {
		next := sorted[(i+1)%n]
		gap := next - sorted[i] // wraps mod 2^64 for the last arc
		if gap > maxGap {
			maxGap = gap
		}
	}
	res.MaxGap = float64(maxGap) / (float64(1<<63) * 2 / float64(n))
	return res
}

// Positions returns the circular coordinates of the skip ring's nodes.
func (s *SkipRingOverlay) Positions() []uint64 { return append([]uint64(nil), s.pos...) }

// Positions returns Chord's node identifiers.
func (c *ChordOverlay) Positions() []uint64 { return append([]uint64(nil), c.ids...) }

// ---- skip ring adapter ----

// SkipRingOverlay adapts the legitimate SR(n) for the overlay comparisons.
type SkipRingOverlay struct {
	ring *topology.SkipRing
	pos  []uint64 // index → r(label) as fixed-point fraction
}

// NewSkipRing builds the static SR(n) overlay.
func NewSkipRing(n int) *SkipRingOverlay {
	r := topology.New(n)
	pos := make([]uint64, n)
	for x := 0; x < n; x++ {
		pos[x] = r.Label(x).Frac()
	}
	return &SkipRingOverlay{ring: r, pos: pos}
}

// Name implements Overlay.
func (s *SkipRingOverlay) Name() string { return "skip-ring" }

// N implements Overlay.
func (s *SkipRingOverlay) N() int { return s.ring.N() }

// Neighbors implements Overlay.
func (s *SkipRingOverlay) Neighbors(x int) []int { return s.ring.Neighbors(x) }

// ---- plain ring ----

// RingOverlay is the sorted cycle without shortcuts: the topology class of
// the PSVR-style systems, whose publications need Θ(n) steps.
type RingOverlay struct {
	n int
}

// NewRing builds a plain n-cycle.
func NewRing(n int) *RingOverlay { return &RingOverlay{n: n} }

// Name implements Overlay.
func (r *RingOverlay) Name() string { return "ring-only" }

// N implements Overlay.
func (r *RingOverlay) N() int { return r.n }

// Neighbors implements Overlay.
func (r *RingOverlay) Neighbors(x int) []int {
	if r.n == 1 {
		return nil
	}
	if r.n == 2 {
		return []int{1 - x}
	}
	return []int{(x + r.n - 1) % r.n, (x + 1) % r.n}
}
