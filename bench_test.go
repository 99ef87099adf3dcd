package sspubsub

// Profiling benchmarks: the hot data structures (label algebra, Patricia
// trie) and the publish fan-out. They gate nothing — the paper's counts are
// pinned by internal/experiments/testdata/quick.golden, allocations by the
// budgets in hotpath_test.go, and time is measured by bench/run.sh.

import (
	"fmt"
	"testing"

	"sspubsub/internal/experiments"
	"sspubsub/internal/label"
	"sspubsub/internal/topology"
	"sspubsub/internal/trie"
)

// BenchmarkLabelFromIndex exercises the label codec.
func BenchmarkLabelFromIndex(b *testing.B) {
	var l label.Label
	for i := 0; i < b.N; i++ {
		l = label.FromIndex(uint64(i))
	}
	_ = l
}

// BenchmarkLabelShortcuts exercises the shortcut derivation (the per-round
// local computation of every subscriber).
func BenchmarkLabelShortcuts(b *testing.B) {
	r := topology.New(1024)
	for i := 0; i < b.N; i++ {
		x := i % 1024
		pred, succ := r.RingNeighbors(x)
		label.Shortcuts(r.Label(x), r.Label(pred), r.Label(succ))
	}
}

// BenchmarkTrieInsert measures hashed Patricia insertion.
func BenchmarkTrieInsert(b *testing.B) {
	t := trie.New(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Insert(trie.NewPublication(64, uint64(i/1000), 1, fmt.Sprintf("payload-%d", i)))
	}
}

// BenchmarkTrieSyncRound measures one full CheckTrie reconciliation round
// between two tries differing in one publication.
func BenchmarkTrieSyncRound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E9Figure2()
		if !res.TriesEqual {
			b.Fatal("sync failed")
		}
	}
}

// BenchmarkHotPathPublishFanout profiles the publish fan-out on all three
// substrates (TestPublishFanoutAllocGuard's rows and budgets).
func BenchmarkHotPathPublishFanout(b *testing.B) { benchFanout(b, hotPathRows) }

// BenchmarkOrderedFanout profiles the same fan-out through each delivery
// mode (TestOrderedFanoutAllocBudget's rows).
func BenchmarkOrderedFanout(b *testing.B) { benchFanout(b, orderedRows) }

func benchFanout(b *testing.B, rows []fanoutRow) {
	for _, row := range rows {
		b.Run(row.name, func(b *testing.B) {
			rig := newFanoutRig(b, row)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rig.publish(i)
				if (i+1)%pubBatch == 0 || i == b.N-1 {
					if !rig.drained(i + 1) {
						b.Fatalf("flood of publication %d never completed", i)
					}
				}
			}
		})
	}
}
