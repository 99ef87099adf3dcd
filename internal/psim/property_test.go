package psim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sspubsub/internal/sim"
)

// The engine's own property test: random handler graphs driven to random
// RunUntil targets. After every target, every event with t <= target has
// run exactly once and in causal order, and the whole execution is
// identical for Workers ∈ {1, 4}. A bug that is the same for every worker
// count (PR 10's stranded-inbox bug was) fails the first two checks even
// though it passes the third.

// token identifies one message: its author and the author's send counter.
type token struct {
	From sim.NodeID
	Seq  int
}

// hop is the message body: its identity and destination, how far it has
// travelled, and when the handler that sent it ran.
type hop struct {
	ID     token
	To     sim.NodeID
	Depth  int
	SentAt float64
}

// exec is one handler execution as the node saw it.
type exec struct {
	Node    sim.NodeID
	Timeout bool
	Msg     hop
	At      float64
}

// gnode is a vertex of the random graph: every timeout starts one chain per
// out-edge, every received message below maxDepth is forwarded along every
// out-edge. All state is confined to the node's lane; log is the lane's
// execution log, shared by the nodes the lane executes.
type gnode struct {
	id       sim.NodeID
	out      []sim.NodeID
	maxDepth int
	seq      int
	sent     []hop
	log      *[]exec
}

func (g *gnode) emit(ctx sim.Context, depth int) {
	for _, to := range g.out {
		h := hop{ID: token{g.id, g.seq}, To: to, Depth: depth, SentAt: ctx.Now()}
		g.seq++
		g.sent = append(g.sent, h)
		ctx.Send(to, 1, h)
	}
}

func (g *gnode) OnTimeout(ctx sim.Context) {
	*g.log = append(*g.log, exec{Node: g.id, Timeout: true, At: ctx.Now()})
	g.emit(ctx, 0)
}

func (g *gnode) OnMessage(ctx sim.Context, m sim.Message) {
	h := m.Body.(hop)
	*g.log = append(*g.log, exec{Node: g.id, Msg: h, At: ctx.Now()})
	if h.Depth < g.maxDepth {
		g.emit(ctx, h.Depth+1)
	}
}

// graphRun builds the graph described by (seed) on an engine with the given
// worker count, drives it through the targets, checks the per-target
// invariants, and returns every lane's execution log.
func graphRun(t *testing.T, seed int64, workers int) [][]exec {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(40)
	lanes := []int{1, 2, 4, 8, 16}[rng.Intn(5)]
	e := New(Options{Seed: seed, Lanes: lanes, Workers: workers})
	defer e.Close()
	nodes := make([]*gnode, n)
	logs := make([][]exec, lanes)
	for i := range nodes {
		g := &gnode{id: sim.NodeID(i + 1), maxDepth: rng.Intn(3)}
		g.log = &logs[e.laneOf(g.id)]
		for d := rng.Intn(3); d >= 0; d-- {
			g.out = append(g.out, sim.NodeID(rng.Intn(n+1)+1)) // n+1: an unknown node, dropped
		}
		nodes[i] = g
		e.AddNode(g.id, g)
	}
	target := 0.0
	for step := 0; step < 12; step++ {
		target += rng.Float64() * []float64{0.04, 0.5, 3}[rng.Intn(3)]
		e.RunUntil(target)
		checkGraph(t, e, nodes, logs, target, fmt.Sprintf("seed %d workers %d step %d (target %.4f)", seed, workers, step, target))
	}
	return logs
}

func checkGraph(t *testing.T, e *Engine, nodes []*gnode, logs [][]exec, target float64, where string) {
	t.Helper()
	// Nothing due is left behind: lane calendars hold only the future and
	// outboxes are empty.
	pending := map[token]bool{}
	for _, l := range e.lanes {
		for _, ev := range queuedEvents(l) {
			if ev.t <= target {
				t.Fatalf("%s: lane %d still queues an event at %.6f", where, l.idx, ev.t)
			}
			if ev.kind == evDeliver {
				pending[ev.msg.Body.(hop).ID] = true
			}
		}
		for i := range l.outbox {
			if len(l.outbox[i]) != 0 {
				t.Fatalf("%s: lane %d holds unmerged cross-lane events", where, l.idx)
			}
		}
	}
	ran := map[token]bool{}
	ticks := map[sim.NodeID]int{}
	for lane, log := range logs {
		last := math.Inf(-1)
		for _, x := range log {
			// A lane executes its events in strictly increasing time. Event
			// times are continuous random draws, so an equal pair means the
			// engine ran an event late and clamped it to the lane clock.
			if x.At <= last {
				t.Fatalf("%s: lane %d ran an event at %.9f after one at %.9f", where, lane, x.At, last)
			}
			last = x.At
			if x.At > target {
				t.Fatalf("%s: node %d ran an event at %.6f beyond the target", where, x.Node, x.At)
			}
			if x.Timeout {
				ticks[x.Node]++
				continue
			}
			// Exactly once, and one channel delay after its cause.
			if ran[x.Msg.ID] {
				t.Fatalf("%s: message %v delivered twice", where, x.Msg.ID)
			}
			ran[x.Msg.ID] = true
			if x.Node != x.Msg.To || x.At < x.Msg.SentAt+minDelay || x.At > x.Msg.SentAt+maxDelay {
				t.Fatalf("%s: message %v for node %d sent at %.6f ran on node %d at %.6f",
					where, x.Msg.ID, x.Msg.To, x.Msg.SentAt, x.Node, x.At)
			}
		}
	}
	// Every timeout due by the target fired: one per round from the phase.
	for _, g := range nodes {
		want := 0
		if ph := e.phaseOf(g.id); ph <= target {
			want = int(math.Floor(target-ph)) + 1
		}
		if ticks[g.id] != want {
			t.Fatalf("%s: node %d fired %d timeouts, want %d", where, g.id, ticks[g.id], want)
		}
	}
	// Every message ever sent is in exactly one place: delivered, or still
	// in the future. (Those addressed to the graph's unknown node are
	// dropped when due, so they may be in neither — never in the first.)
	for _, g := range nodes {
		for _, h := range g.sent {
			delivered := ran[h.ID]
			if _, known := e.nodes[h.To]; !known {
				if delivered {
					t.Fatalf("%s: message %v to unknown node %d was delivered", where, h.ID, h.To)
				}
			} else if delivered == pending[h.ID] {
				t.Fatalf("%s: message %v delivered=%v pending=%v", where, h.ID, delivered, pending[h.ID])
			}
		}
	}
}

func TestRandomGraphsRunExactlyOnceInCausalOrder(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		serial := graphRun(t, seed, 1)
		if parallel := graphRun(t, seed, 4); !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("seed %d: execution differs between Workers=1 and Workers=4", seed)
		}
	}
}
