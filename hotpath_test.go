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
	{name: "sim", opts: hotPathOpts(RuntimeSim, 1), budget: 51},
	{name: "concurrent", opts: hotPathOpts(RuntimeConcurrent, 1), budget: 41},
	{name: "net", opts: hotPathOpts(RuntimeNet, 1), budget: 60},
	// The sharded plane costs the publish path nothing by construction:
	// screening, gossip and ownership checks all run supervisor-side.
	{name: "sim-4sup", opts: hotPathOpts(RuntimeSim, 4), budget: 53},
}

// orderedRows run the same fan-out through each delivery mode; besteffort
// bypasses the ordering layer entirely.
var orderedRows = []fanoutRow{
	{name: "besteffort", opts: orderedOpts(ModeBestEffort), byDelivery: true, budget: 49},
	{name: "fifo", opts: orderedOpts(ModeFIFO), byDelivery: true, budget: 49},
	{name: "causal", opts: orderedOpts(ModeCausal), byDelivery: true, budget: 54},
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
// three substrates (sim/concurrent/net committed at 44.6/35.6/52.0,
// sim-4sup at 45.8; the pre-optimization cost was ~394). Each edge of the
// forwarding tree carries its own arc, so each needs its own boxed body.
// The sim rows also pay for the periodic actions of the rounds a drain
// runs: while every timeout rebuilt the shortcut slots they read 61.8 and
// 63.5.
func TestPublishFanoutAllocGuard(t *testing.T) { checkAllocBudgets(t, hotPathRows) }

// TestOrderedFanoutAllocBudget pins the ordering layer's price per
// publication (committed 43.0/43.0/47.0; 60.2/60.2/64.2 while every
// timeout rebuilt the shortcut slots).
func TestOrderedFanoutAllocBudget(t *testing.T) { checkAllocBudgets(t, orderedRows) }

// restNodes subscribers at rest: the periodic work Theorem 13 bounds by a
// constant per node and round.
const restNodes = 64

// restAllocBudget is the allocations per node per round allowed at rest:
// the committed 4.00 + 15 %. They are the boxed bodies of the round's
// sends — two introduce-self Checks and two level-pair introductions per
// node; the periodic action itself allocates nothing once the shortcut
// slots are settled (12.8 while every timeout rebuilt them).
const restAllocBudget = 4.6

// TestRestAllocBudget pins the price of a legitimate state's periodic
// work on the deterministic engine: a converged n = 64 simulation, one
// round per run, every node's timeouts and the messages they cause.
func TestRestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates; alloc counts are meaningless")
	}
	s := NewSimulation(SimOptions{Runtime: RuntimeSim, Seed: 11})
	defer s.Close()
	s.AddSubscribers(restNodes)
	s.JoinAll(benchTopic)
	if _, ok := s.RunUntilConverged(benchTopic, restNodes, 5000); !ok {
		t.Fatalf("setup: no convergence: %s", s.Explain(benchTopic))
	}
	// In-flight delegations drain within about 50 rounds of legitimacy
	// (E14); measure after them.
	s.RunRounds(100)
	got := testing.AllocsPerRun(200, func() { s.RunRounds(1) }) / restNodes
	t.Logf("%.2f allocations per node per round at rest, budget %.1f", got, float64(restAllocBudget))
	if got > restAllocBudget {
		t.Error("over budget")
	}
}
