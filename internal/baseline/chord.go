package baseline

import (
	"math/rand"
	"sort"
)

// ChordOverlay is a Chord ring over n nodes with uniformly random 64-bit
// identifiers: each node links to its successor and to the first node at or
// after id + 2^i for every i (finger table). Unlike the supervised skip
// ring, the identifier gaps are random, which skews finger targets — the
// imbalance the paper's congestion claim (Section 1.3) is about.
type ChordOverlay struct {
	n   int
	ids []uint64 // sorted node identifiers; node x has ids[x]
	adj [][]int
}

// NewChord builds a Chord overlay with seeded random identifiers.
func NewChord(n int, rng *rand.Rand) *ChordOverlay {
	ids := make([]uint64, n)
	seen := map[uint64]bool{}
	for i := range ids {
		for {
			v := rng.Uint64()
			if !seen[v] {
				seen[v] = true
				ids[i] = v
				break
			}
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	c := &ChordOverlay{n: n, ids: ids, adj: make([][]int, n)}
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
	for x := 0; x < n; x++ {
		add(x, (x+1)%n) // successor
		for i := 0; i < 64; i++ {
			target := ids[x] + 1<<uint(i) // wraps mod 2^64
			add(x, c.successorOf(target))
		}
	}
	for e := range edges {
		c.adj[e[0]] = append(c.adj[e[0]], e[1])
		c.adj[e[1]] = append(c.adj[e[1]], e[0])
	}
	for x := range c.adj {
		sort.Ints(c.adj[x])
	}
	return c
}

// successorOf returns the index of the first node whose id is ≥ target
// (wrapping around the ring).
func (c *ChordOverlay) successorOf(target uint64) int {
	i := sort.Search(c.n, func(i int) bool { return c.ids[i] >= target })
	if i == c.n {
		return 0
	}
	return i
}

// Name implements Overlay.
func (c *ChordOverlay) Name() string { return "chord" }

// N implements Overlay.
func (c *ChordOverlay) N() int { return c.n }

// Neighbors implements Overlay.
func (c *ChordOverlay) Neighbors(x int) []int { return c.adj[x] }
