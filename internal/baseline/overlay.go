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
// All overlays are static graphs with greedy routing; that is exactly the
// setting of the congestion and delivery-time claims.
package baseline

import (
	"math"
	"math/rand"
	"sort"

	"sspubsub/internal/topology"
)

// Overlay is a static routable graph over n nodes.
type Overlay interface {
	// Name identifies the overlay in experiment tables.
	Name() string
	// N returns the node count.
	N() int
	// Neighbors returns the adjacency of node x (indices).
	Neighbors(x int) []int
	// NextHop returns the neighbour x forwards to when routing toward
	// target t, or -1 when x == t (delivered) or no progress is possible.
	NextHop(x, t int) int
}

// Route walks greedily from s to t, returning the intermediate hops
// (excluding s and t) and whether t was reached within n hops.
func Route(o Overlay, s, t int) (via []int, ok bool) {
	x := s
	for hops := 0; hops <= o.N(); hops++ {
		if x == t {
			return via, true
		}
		nx := o.NextHop(x, t)
		if nx < 0 || nx == x {
			return via, false
		}
		x = nx
		if x != t {
			via = append(via, x)
		}
	}
	return via, false
}

// CongestionResult aggregates a routing-load experiment.
type CongestionResult struct {
	Overlay   string
	N         int
	Routes    int
	Delivered int
	MaxLoad   int     // max transits through a single node
	AvgLoad   float64 // mean transits per node
	AvgHops   float64 // mean delivered path length (dilation)
	MaxDegree int
}

// Congestion routes `routes` uniform random pairs over the overlay and
// reports per-node transit load and path lengths (the Section 1.3
// congestion comparison).
func Congestion(o Overlay, routes int, rng *rand.Rand) CongestionResult {
	res := CongestionResult{Overlay: o.Name(), N: o.N(), Routes: routes}
	load := make([]int, o.N())
	totalHops := 0
	for i := 0; i < routes; i++ {
		s := rng.Intn(o.N())
		t := rng.Intn(o.N())
		if s == t {
			continue
		}
		via, ok := Route(o, s, t)
		if !ok {
			continue
		}
		res.Delivered++
		totalHops += len(via) + 1
		for _, x := range via {
			load[x]++
		}
	}
	sum := 0
	for x, l := range load {
		sum += l
		if l > res.MaxLoad {
			res.MaxLoad = l
		}
		if d := len(o.Neighbors(x)); d > res.MaxDegree {
			res.MaxDegree = d
		}
	}
	if o.N() > 0 {
		res.AvgLoad = float64(sum) / float64(o.N())
	}
	if res.Delivered > 0 {
		res.AvgHops = float64(totalHops) / float64(res.Delivered)
	}
	return res
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

// SkipRingOverlay adapts the legitimate SR(n) for routing comparisons.
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

// NextHop routes greedily by circular label distance: forward to the
// neighbour closest to the target's ring position. Ring edges guarantee
// progress; shortcuts realize the O(log n) dilation.
func (s *SkipRingOverlay) NextHop(x, t int) int {
	if x == t {
		return -1
	}
	best, bestD := -1, circDist(s.pos[x], s.pos[t])
	for _, nb := range s.ring.Neighbors(x) {
		if d := circDist(s.pos[nb], s.pos[t]); d < bestD {
			best, bestD = nb, d
		}
	}
	return best
}

func circDist(a, b uint64) uint64 {
	d := a - b
	if int64(d) < 0 {
		d = -d
	}
	return d
}

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

// NextHop walks around the shorter arc.
func (r *RingOverlay) NextHop(x, t int) int {
	if x == t {
		return -1
	}
	cw := (t - x + r.n) % r.n
	if cw <= r.n-cw {
		return (x + 1) % r.n
	}
	return (x + r.n - 1) % r.n
}
