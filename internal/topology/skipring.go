// Package topology constructs the legitimate skip ring SR(n) of
// Definition 2 as a static graph. It serves three purposes:
//
//   - the legitimacy oracle for the self-stabilization experiments: the
//     unique explicit state every subscriber must converge to (labels,
//     left/right/ring assignment, shortcut sets);
//   - the structural experiments of the paper (Figure 1, Lemma 3's degree
//     bounds, the O(log n) diameter used by Section 4.3);
//   - a routable static overlay for the congestion comparison against
//     Chord and skip graphs (Section 1.3).
package topology

import (
	"sort"

	"sspubsub/internal/label"
)

// SkipRing is the legitimate SR(n) for subscribers indexed 0 … n−1 (index x
// holds label l(x)).
type SkipRing struct {
	n      int
	labels []label.Label // by subscriber index
	order  []int         // subscriber indices sorted by r(label)
	rank   []int         // index → position in order
	adj    [][]int       // index → sorted neighbour indices (ER ∪ ES)
	level  map[[2]int]uint8
}

// New builds SR(n). It panics for n < 1.
func New(n int) *SkipRing {
	if n < 1 {
		panic("topology: n must be ≥ 1")
	}
	r := &SkipRing{
		n:      n,
		labels: make([]label.Label, n),
		order:  make([]int, n),
		rank:   make([]int, n),
		level:  make(map[[2]int]uint8),
	}
	for x := 0; x < n; x++ {
		r.labels[x] = label.FromIndex(uint64(x))
		r.order[x] = x
	}
	sort.Slice(r.order, func(i, j int) bool {
		return r.labels[r.order[i]].Frac() < r.labels[r.order[j]].Frac()
	})
	for pos, x := range r.order {
		r.rank[x] = pos
	}

	edges := map[[2]int]uint8{}
	addEdge := func(a, b int, lvl uint8) {
		if a == b {
			return
		}
		if a > b {
			a, b = b, a
		}
		if old, ok := edges[[2]int{a, b}]; !ok || lvl > old {
			// Keep the highest level so ring edges dominate in reporting
			// (a level-1 edge between the two K_1 nodes of SR(2) is also
			// their ring edge).
			edges[[2]int{a, b}] = lvl
		}
	}

	// Ring edges ER: consecutive in r-order (level ⌈log n⌉).
	top := uint8(ceilLog2(n))
	if n >= 2 {
		for pos := 0; pos < n; pos++ {
			addEdge(r.order[pos], r.order[(pos+1)%n], top)
		}
	}
	// Shortcuts ES: for each i < ⌈log n⌉, the sorted ring over
	// K_i = {w : |label_w| ≤ i}.
	for i := uint8(1); i < top; i++ {
		var ki []int
		for x := 0; x < n; x++ {
			if uint8(r.labels[x].Len) <= i {
				ki = append(ki, x)
			}
		}
		sort.Slice(ki, func(a, b int) bool {
			return r.labels[ki[a]].Frac() < r.labels[ki[b]].Frac()
		})
		if len(ki) < 2 {
			continue
		}
		if len(ki) == 2 {
			addEdge(ki[0], ki[1], i)
			continue
		}
		for p := 0; p < len(ki); p++ {
			addEdge(ki[p], ki[(p+1)%len(ki)], i)
		}
	}

	r.adj = make([][]int, n)
	for e, lvl := range edges {
		r.adj[e[0]] = append(r.adj[e[0]], e[1])
		r.adj[e[1]] = append(r.adj[e[1]], e[0])
		r.level[e] = lvl
	}
	for x := range r.adj {
		sort.Ints(r.adj[x])
	}
	return r
}

func ceilLog2(n int) int {
	k, v := 0, 1
	for v < n {
		v <<= 1
		k++
	}
	return k
}

// N returns the number of subscribers.
func (r *SkipRing) N() int { return r.n }

// Label returns l(x).
func (r *SkipRing) Label(x int) label.Label { return r.labels[x] }

// IndexOf returns the subscriber index holding lab, or −1.
func (r *SkipRing) IndexOf(lab label.Label) int {
	if lab.IsBottom() {
		return -1
	}
	x := int(lab.Index())
	if x < r.n && r.labels[x] == lab {
		return x
	}
	return -1
}

// Neighbors returns x's adjacency in ER ∪ ES, sorted by index.
func (r *SkipRing) Neighbors(x int) []int { return r.adj[x] }

// EdgeLevel returns the level of edge (a, b) per Definition 2 and whether
// the edge exists.
func (r *SkipRing) EdgeLevel(a, b int) (uint8, bool) {
	if a > b {
		a, b = b, a
	}
	lvl, ok := r.level[[2]int{a, b}]
	return lvl, ok
}

// Edges returns all undirected edges with their levels.
func (r *SkipRing) Edges() map[[2]int]uint8 {
	out := make(map[[2]int]uint8, len(r.level))
	for e, l := range r.level {
		out[e] = l
	}
	return out
}

// RingNeighbors returns the circular predecessor and successor of x in the
// r-ordering (x itself for n = 1).
func (r *SkipRing) RingNeighbors(x int) (pred, succ int) {
	p := r.rank[x]
	return r.order[(p-1+r.n)%r.n], r.order[(p+1)%r.n]
}

// ExpectedState is the unique legitimate explicit state of one subscriber:
// the slot assignment the BuildSR protocol converges to.
type ExpectedState struct {
	Label label.Label
	// Left and Right are the list neighbours (⊥ for the minimum's left and
	// the maximum's right). Ring is the closure edge held by the two
	// extremes (⊥ elsewhere).
	Left, Right, Ring label.Label
	// Shortcuts is the derived shortcut slot set: slot label → owner label.
	Shortcuts map[label.Label]label.Label
}

// Expected computes subscriber x's legitimate state.
func (r *SkipRing) Expected(x int) ExpectedState {
	st := ExpectedState{Label: r.labels[x], Shortcuts: map[label.Label]label.Label{}}
	if r.n == 1 {
		return st
	}
	pos := r.rank[x]
	pred, succ := r.RingNeighbors(x)
	if pos > 0 {
		st.Left = r.labels[pred]
	} else {
		st.Ring = r.labels[pred] // minimum: closure edge to the maximum
	}
	if pos < r.n-1 {
		st.Right = r.labels[succ]
	} else {
		st.Ring = r.labels[succ] // maximum: closure edge to the minimum
	}
	// Shortcut derivation uses the circular neighbours (Section 3.2.2).
	set, _, _ := label.Shortcuts(st.Label, r.labels[pred], r.labels[succ])
	for _, s := range set {
		st.Shortcuts[s] = s
	}
	return st
}

// DegreeStats reports Lemma 3's quantities over the whole ring.
type DegreeStats struct {
	N             int
	MaxDegree     int
	AvgDegree     float64
	Undirected    int // |ER ∪ ES| as undirected edges
	Directed      int // 2·Undirected
	PaperDirected int // the paper's closed form 4n−4
}

// Stats computes degree statistics.
func (r *SkipRing) Stats() DegreeStats {
	st := DegreeStats{N: r.n, Undirected: len(r.level), PaperDirected: 4*r.n - 4}
	st.Directed = 2 * st.Undirected
	total := 0
	for x := 0; x < r.n; x++ {
		d := len(r.adj[x])
		total += d
		if d > st.MaxDegree {
			st.MaxDegree = d
		}
	}
	if r.n > 0 {
		st.AvgDegree = float64(total) / float64(r.n)
	}
	return st
}

// Diameter returns the hop diameter of ER ∪ ES (BFS from every node;
// O(n·m), fine at simulation scale).
func (r *SkipRing) Diameter() int {
	diam := 0
	for s := 0; s < r.n; s++ {
		for _, d := range r.BFSHops(s) {
			diam = max(diam, d)
		}
	}
	return diam
}

// BFSHops returns the hop distance of every node from source (the flooding
// delivery time of Section 4.3).
func (r *SkipRing) BFSHops(source int) []int {
	dist := make([]int, r.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[source] = 0
	queue := []int{source}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range r.adj[v] {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}
