package sspubsub

import (
	"fmt"
	"testing"
	"time"
)

// The publish fan-out — the O(log n) delivery layer of Section 4.3 — priced
// from one rig two ways: the allocation budgets below, and the
// BenchmarkHotPathPublishFanout/BenchmarkOrderedFanout profiles in
// bench_test.go. Time is measured only by bench/run.sh.

const (
	benchTopic Topic = 1
	fanoutN          = 16
	// pubBatch publications go out between drains: draining after every
	// single one would charge each several whole rounds of ring
	// maintenance, swamping the fan-out cost under measurement.
	pubBatch = 32
)

// fanoutRow is one fan-out configuration: 16 converged subscribers with
// anti-entropy off, so every allocation belongs to publish → send →
// (encode → socket → decode →) deliver → forward.
type fanoutRow struct {
	name string
	opts SimOptions
	// byDelivery drains on OnDeliver counts (what the ordering layer
	// releases) instead of on trie arrival.
	byDelivery bool
	// budget is the allocations per publication allowed: the committed
	// allocs/op + 15 %.
	budget float64
}

var hotPathRows = []fanoutRow{
	{name: "sim", opts: hotPathOpts(RuntimeSim, 1), budget: 71},
	{name: "concurrent", opts: hotPathOpts(RuntimeConcurrent, 1), budget: 41},
	{name: "net", opts: hotPathOpts(RuntimeNet, 1), budget: 60},
	// The sharded plane costs the publish path nothing by construction:
	// screening, gossip and ownership checks all run supervisor-side.
	{name: "sim-4sup", opts: hotPathOpts(RuntimeSim, 4), budget: 73},
}

// orderedRows run the same fan-out through each delivery mode; besteffort
// bypasses the ordering layer entirely.
var orderedRows = []fanoutRow{
	{name: "besteffort", opts: orderedOpts(ModeBestEffort), byDelivery: true, budget: 69},
	{name: "fifo", opts: orderedOpts(ModeFIFO), byDelivery: true, budget: 69},
	{name: "causal", opts: orderedOpts(ModeCausal), byDelivery: true, budget: 74},
}

func hotPathOpts(kind RuntimeKind, supervisors int) SimOptions {
	return SimOptions{Runtime: kind, Seed: 11, Interval: time.Millisecond,
		DisableAntiEntropy: true, Protocol: Protocol{Supervisors: supervisors}}
}

func orderedOpts(mode DeliveryMode) SimOptions {
	o := hotPathOpts(RuntimeSim, 1)
	o.DeliveryMode = mode
	return o
}

// fanoutRig is a converged row: publish(i) authors publication i at member
// i mod 16, drained(want) runs until every member holds want of them.
type fanoutRig struct {
	publish func(i int)
	drained func(want int) bool
}

func newFanoutRig(tb testing.TB, row fanoutRow) fanoutRig {
	opts := row.opts
	delivered := make(map[NodeID]int, fanoutN) // byDelivery rows run on sim: one goroutine
	if row.byDelivery {
		opts.OnDeliver = func(node NodeID, _ Topic, _ string) { delivered[node]++ }
	}
	s := NewSimulation(opts)
	tb.Cleanup(s.Close)
	s.AddSubscribers(fanoutN)
	s.JoinAll(benchTopic)
	if _, ok := s.RunUntilConverged(benchTopic, fanoutN, 5000); !ok {
		tb.Fatalf("setup: no convergence: %s", s.Explain(benchTopic))
	}
	members := s.Members(benchTopic)
	done := func(want int) bool { return s.AllHavePubs(benchTopic, want) }
	if row.byDelivery {
		done = func(want int) bool {
			for _, id := range members {
				if delivered[id] < want {
					return false
				}
			}
			return true
		}
	}
	return fanoutRig{
		publish: func(i int) { s.Publish(members[i%len(members)], benchTopic, fmt.Sprintf("p%d", i)) },
		drained: func(want int) bool {
			_, ok := s.RunUntil(200000, func() bool { return done(want) })
			return ok
		},
	}
}

// checkAllocBudgets measures each row's whole-system allocations per
// publication over 1,024 publications in drained batches, after the one
// warm-up batch testing.AllocsPerRun runs first, and fails a row over its
// budget. B/op is deliberately not gated: buffer warm-up alone moves it.
func checkAllocBudgets(t *testing.T, rows []fanoutRow) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates; alloc counts are meaningless")
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			rig := newFanoutRig(t, row)
			seq := 0
			batch := func() {
				for i := 0; i < pubBatch; i++ {
					rig.publish(seq)
					seq++
				}
				if !rig.drained(seq) {
					t.Fatalf("flood of publication %d never completed", seq)
				}
			}
			got := testing.AllocsPerRun(1024/pubBatch, batch) / pubBatch
			t.Logf("%.1f allocations per publication, budget %.0f", got, row.budget)
			if got > row.budget {
				t.Error("over budget")
			}
		})
	}
}

// TestPublishFanoutAllocGuard pins the hot path's allocation budget on all
// three substrates (sim/concurrent/net committed at 61.8/35.6/52.2,
// sim-4sup at 63.5; the pre-optimization cost was ~394). Each edge of the
// forwarding tree carries its own arc, so each needs its own boxed body:
// when every flood edge shared one box — and three copies reached each
// node — the same rows measured 43.6/21.6/25.4/44.3. Time, not
// allocations, is what the tree buys back (bench/run.sh).
func TestPublishFanoutAllocGuard(t *testing.T) { checkAllocBudgets(t, hotPathRows) }

// TestOrderedFanoutAllocBudget pins the ordering layer's price per
// publication (committed 60.2/60.2/64.2; 43/43/47 with one shared box).
func TestOrderedFanoutAllocBudget(t *testing.T) { checkAllocBudgets(t, orderedRows) }
