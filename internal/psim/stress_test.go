package psim

import (
	"testing"

	"sspubsub/internal/sim"
)

// edgeHammer is built to abuse the barrier/merge path: on every event it
// sprays messages at nodes chosen to land on OTHER lanes, so nearly all
// traffic crosses the barrier's outbox filing, and the bounce chain keeps every
// window densely populated right up to its edge (each delivery at t
// schedules follow-ups in [t+minDelay, t+maxDelay) — the early part of
// that range is exactly the next window's opening edge).
type edgeHammer struct {
	id      sim.NodeID
	others  []sim.NodeID // peers on foreign lanes only
	recv    int
	burst   int
	bounces int
}

type spark struct{ Gen int }

func (h *edgeHammer) OnTimeout(ctx sim.Context) {
	for i := 0; i < h.burst; i++ {
		ctx.Send(h.others[ctx.Rand().Intn(len(h.others))], 1, spark{})
	}
}

func (h *edgeHammer) OnMessage(ctx sim.Context, m sim.Message) {
	h.recv++
	s := m.Body.(spark)
	if s.Gen < h.bounces {
		ctx.Send(h.others[ctx.Rand().Intn(len(h.others))], 1, spark{Gen: s.Gen + 1})
	}
}

// TestBarrierMergeStress hammers the cross-lane merge with maximum
// parallelism and verifies (a) under -race: no data race anywhere in the
// window/barrier machinery, and (b) the resulting accounting is
// bit-identical to the inline (workers=1) execution of the same schedule.
func TestBarrierMergeStress(t *testing.T) {
	const n, rounds = 96, 30
	run := func(workers int) (int64, int64, float64, []int) {
		e := New(Options{Seed: 42, Workers: workers})
		ids := make([]sim.NodeID, n)
		for i := range ids {
			ids[i] = sim.NodeID(i + 1)
		}
		hs := make([]*edgeHammer, n)
		for i, id := range ids {
			h := &edgeHammer{id: id, burst: 4, bounces: 3}
			myLane := e.laneOf(id)
			for _, o := range ids {
				if e.laneOf(o) != myLane {
					h.others = append(h.others, o)
				}
			}
			hs[i] = h
			e.AddNode(id, h)
		}
		e.RunRounds(rounds)
		recv := make([]int, n)
		for i, h := range hs {
			recv[i] = h.recv
		}
		d, dr, now := e.Delivered(), e.Dropped(), e.Now()
		e.Close()
		return d, dr, now, recv
	}

	d1, dr1, now1, recv1 := run(1)
	d8, dr8, now8, recv8 := run(8)
	if d1 == 0 {
		t.Fatal("no deliveries — stress not exercising anything")
	}
	if d1 != d8 || dr1 != dr8 || now1 != now8 {
		t.Fatalf("accounting diverged: workers=1 (%d,%d,%v) vs workers=8 (%d,%d,%v)",
			d1, dr1, now1, d8, dr8, now8)
	}
	for i := range recv1 {
		if recv1[i] != recv8[i] {
			t.Fatalf("node %d receive count diverged: %d vs %d", i+1, recv1[i], recv8[i])
		}
	}
}

// TestBarrierMergeStressRepeated re-runs the parallel configuration many
// times under the race detector: scheduling jitter across repetitions is
// what actually shakes out ordering bugs in the barrier's filing.
func TestBarrierMergeStressRepeated(t *testing.T) {
	if testing.Short() {
		t.Skip("repetition stress skipped in -short")
	}
	var want string
	for rep := 0; rep < 8; rep++ {
		e, cs := buildMesh(Options{Seed: 1234, Workers: 8}, 64, 4)
		e.RunRounds(10)
		got := snapshot(e, cs)
		e.Close()
		if rep == 0 {
			want = got
		} else if got != want {
			t.Fatalf("repetition %d diverged from repetition 0", rep)
		}
	}
}
