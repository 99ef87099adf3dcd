package baseline

import (
	"math/rand"
	"sort"
)

// SkipGraphOverlay is a skip graph (Aspnes/Shah; the self-stabilizing
// variant is Jacob et al. [10]): nodes are sorted by key; every node draws
// a random membership vector, and at each level i the nodes sharing a
// membership-vector prefix of length i form a doubly linked sorted list.
// Expected degree O(log n), but randomization makes levels uneven — the
// balance disadvantage versus the supervised skip ring.
type SkipGraphOverlay struct {
	n   int
	adj [][]int
}

// NewSkipGraph builds a skip graph over n nodes (keys are the indices,
// already sorted) with seeded random membership vectors.
func NewSkipGraph(n int, rng *rand.Rand) *SkipGraphOverlay {
	mv := make([]uint64, n)
	for i := range mv {
		mv[i] = rng.Uint64()
	}
	g := &SkipGraphOverlay{n: n, adj: make([][]int, n)}
	edges := map[[2]int]bool{}
	add := func(a, b int) {
		if a == b {
			return
		}
		if a > b {
			a, b = b, a
		}
		edges[[2]int{a, b}] = true
	}
	// Level 0: the base list over all nodes. Higher levels: split by the
	// next membership bit until lists become singletons.
	type group struct{ members []int }
	groups := []group{{members: seq(n)}}
	for level := 0; len(groups) > 0 && level < 64; level++ {
		var next []group
		for _, gr := range groups {
			for i := 0; i+1 < len(gr.members); i++ {
				add(gr.members[i], gr.members[i+1])
			}
			if len(gr.members) <= 1 {
				continue
			}
			var zero, one []int
			for _, m := range gr.members {
				if mv[m]>>uint(level)&1 == 0 {
					zero = append(zero, m)
				} else {
					one = append(one, m)
				}
			}
			if len(zero) > 1 {
				next = append(next, group{zero})
			}
			if len(one) > 1 {
				next = append(next, group{one})
			}
		}
		groups = next
	}
	for e := range edges {
		g.adj[e[0]] = append(g.adj[e[0]], e[1])
		g.adj[e[1]] = append(g.adj[e[1]], e[0])
	}
	for x := range g.adj {
		sort.Ints(g.adj[x])
	}
	return g
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Name implements Overlay.
func (g *SkipGraphOverlay) Name() string { return "skip-graph" }

// N implements Overlay.
func (g *SkipGraphOverlay) N() int { return g.n }

// Neighbors implements Overlay.
func (g *SkipGraphOverlay) Neighbors(x int) []int { return g.adj[x] }
