package psim

import (
	"fmt"
	"reflect"
	"testing"

	"sspubsub/internal/sim"
)

// chatter is a test handler: every timeout it sends fanout messages to
// pseudo-random peers (drawn from its lane stream), and it records every
// delivery it observes in its own trace. All state is lane-confined.
type chatter struct {
	id     sim.NodeID
	peers  []sim.NodeID
	fanout int
	recv   []string
	ticks  int
}

type ping struct{ Hop int }

func (c *chatter) OnTimeout(ctx sim.Context) {
	c.ticks++
	for i := 0; i < c.fanout; i++ {
		to := c.peers[ctx.Rand().Intn(len(c.peers))]
		ctx.Send(to, 1, ping{Hop: 0})
	}
}

func (c *chatter) OnMessage(ctx sim.Context, m sim.Message) {
	p := m.Body.(ping)
	c.recv = append(c.recv, fmt.Sprintf("%d@%.6f#%d", m.From, ctx.Now(), p.Hop))
	if p.Hop < 2 {
		// Bounce onward: keeps cross-lane traffic flowing mid-window.
		to := c.peers[ctx.Rand().Intn(len(c.peers))]
		ctx.Send(to, 1, ping{Hop: p.Hop + 1})
	}
}

// buildMesh registers n chatters on a fresh engine and returns them.
func buildMesh(opts Options, n, fanout int) (*Engine, []*chatter) {
	e := New(opts)
	peers := make([]sim.NodeID, n)
	for i := range peers {
		peers[i] = sim.NodeID(i + 1)
	}
	cs := make([]*chatter, n)
	for i := range cs {
		cs[i] = &chatter{id: peers[i], peers: peers, fanout: fanout}
		e.AddNode(peers[i], cs[i])
	}
	return e, cs
}

// snapshot captures everything the determinism contract promises is
// worker-independent.
func snapshot(e *Engine, cs []*chatter) string {
	s := fmt.Sprintf("now=%.6f delivered=%d dropped=%d inflight=%d queuelen=%d hw=%d types=%v\n",
		e.Now(), e.Delivered(), e.Dropped(), e.InFlight(), e.QueueLen(),
		e.QueueHighWaterBytes(), e.TypeNames())
	for _, c := range cs {
		s += fmt.Sprintf("node %d ticks=%d sent=%d recv=%d trace=%v\n",
			c.id, c.ticks, e.SentBy(c.id), len(c.recv), c.recv)
	}
	return s
}

// TestWorkerIndependence is the core contract: the full delivery trace —
// senders, times, payloads, per-node ordering — is bit-identical for every
// worker count.
func TestWorkerIndependence(t *testing.T) {
	const n, fanout, rounds = 100, 3, 20
	var want string
	for _, workers := range []int{1, 2, 4, 8} {
		e, cs := buildMesh(Options{Seed: 7, Lanes: 8, Workers: workers}, n, fanout)
		e.RunRounds(rounds)
		got := snapshot(e, cs)
		e.Close()
		if workers == 1 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("workers=%d diverged from workers=1:\n--- got ---\n%.2000s\n--- want ---\n%.2000s", workers, got, want)
		}
	}
	if want == "" {
		t.Fatal("no baseline")
	}
}

// TestLaneCountChangesSchedule documents that Lanes IS part of the
// schedule identity (unlike Workers).
func TestLaneCountChangesSchedule(t *testing.T) {
	e8, cs8 := buildMesh(Options{Seed: 7, Lanes: 8, Workers: 1}, 64, 2)
	e8.RunRounds(10)
	e4, cs4 := buildMesh(Options{Seed: 7, Lanes: 4, Workers: 1}, 64, 2)
	e4.RunRounds(10)
	if snapshot(e8, cs8) == snapshot(e4, cs4) {
		t.Fatal("different lane counts produced identical traces — suspicious (schedule should differ)")
	}
}

type sink struct{ got []sim.Message }

func (s *sink) OnTimeout(sim.Context)                  {}
func (s *sink) OnMessage(_ sim.Context, m sim.Message) { s.got = append(s.got, m) }

// TestListenerRouting checks the pool-listener seam: listeners execute on
// their owner's handler, owner crash silences them, and re-registration
// elsewhere keeps stale in-flight traffic dropped.
func TestListenerRouting(t *testing.T) {
	e := New(Options{Seed: 1, Lanes: 4, Workers: 1})
	owner := &sink{}
	e.AddNode(10, owner)
	e.AddListener(1000, 10)
	e.Send(sim.Message{To: 1000, From: 99, Topic: 1, Body: ping{}})
	e.RunRounds(2)
	if len(owner.got) != 1 || owner.got[0].To != 1000 {
		t.Fatalf("owner saw %v, want one message addressed to listener 1000", owner.got)
	}
	if e.Handler(1000) == nil {
		t.Fatal("Handler(listener) should resolve to the owner's handler")
	}
	e.Crash(10)
	e.Send(sim.Message{To: 1000, From: 99, Topic: 1, Body: ping{}})
	before := e.Dropped()
	e.RunRounds(2)
	if len(owner.got) != 1 {
		t.Fatalf("crashed owner still received: %v", owner.got)
	}
	if e.Dropped() <= before {
		t.Fatal("delivery to orphaned listener should count as dropped")
	}
}

// TestDetectorGrace pins the barrier-time suspicion semantics.
func TestDetectorGrace(t *testing.T) {
	e := New(Options{Seed: 1, Lanes: 2, Workers: 1})
	e.AddNode(5, &sink{})
	e.RunRounds(1)
	e.Crash(5)
	if !e.Crashed(5) {
		t.Fatal("Crashed(5) = false after Crash")
	}
	if e.Suspects(5) {
		t.Fatal("suspected immediately — grace ignored")
	}
	e.RunRounds(1)
	if e.Suspects(5) {
		t.Fatal("suspected after 1 round with grace 2")
	}
	e.RunRounds(2)
	if !e.Suspects(5) {
		t.Fatal("not suspected after grace expired")
	}
	if e.Suspects(6) {
		t.Fatal("suspects a node that never existed")
	}
}

// TestHighWater: the barrier high-water mark is positive, deterministic,
// and at least the final queue length.
func TestHighWater(t *testing.T) {
	e, _ := buildMesh(Options{Seed: 5, Lanes: 4, Workers: 1}, 32, 4)
	e.RunRounds(10)
	hw := e.QueueHighWaterBytes()
	if hw == 0 {
		t.Fatal("high water stayed 0 over a traffic-heavy run")
	}
	if perEvent := hw / uint64(e.highWater); hw < uint64(e.QueueLen())*perEvent {
		t.Fatalf("high water %d below current queue footprint (%d events)", hw, e.QueueLen())
	}
}

// TestRunUntilExecutesEverythingDue pins RunUntil's contract: after
// RunUntil(target), no queued event anywhere — lane calendars or
// cross-lane outboxes — may still carry t <= target. The regression this
// guards: window selection used to scan only lane queues while the
// previous window's cross-lane events were still waiting to be merged, so
// a pending cross-lane event older than every queued one could be skipped
// past (executing in a too-late window, or not at all when every queued
// event was past the target).
func TestRunUntilExecutesEverythingDue(t *testing.T) {
	e, _ := buildMesh(Options{Seed: 13, Lanes: 8, Workers: 1}, 64, 3)
	for i := 0; i < 60; i++ {
		// Fractional, window-misaligned increments land targets mid-window,
		// the regime where the queue-only scan went wrong.
		target := e.Now() + 0.173
		e.RunUntil(target)
		for _, l := range e.lanes {
			for _, ev := range queuedEvents(l) {
				if ev.t <= target {
					t.Fatalf("step %d: lane %d still holds event at t=%.6f <= target %.6f after RunUntil",
						i, l.idx, ev.t, target)
				}
			}
			for dst, buf := range l.outbox {
				if len(buf) != 0 {
					t.Fatalf("step %d: lane %d outbox[%d] not filed at barrier (%d events)",
						i, l.idx, dst, len(buf))
				}
			}
		}
	}
}

// TestCrossLaneEventNotStranded is the surgical reproduction of the
// window-selection bug: a cross-lane delivery waiting for the barrier
// merge, older than every queued event, must still execute by
// RunUntil(target) when its delivery time is <= target. Before the fix,
// the min scan saw only lane queues (all of whose mins exceeded target),
// so RunUntil returned with the due delivery still pending.
func TestCrossLaneEventNotStranded(t *testing.T) {
	e := New(Options{Seed: 21, Lanes: 4, Workers: 1})
	// Pick sender a with a timeout phase early in its interval and
	// receiver b on a different lane whose phase lies beyond a's send plus
	// the whole delay range, so after a's window the only due event is the
	// delivery waiting in a's outbox for b's lane. The phases must bracket
	// maxDelay, which only a few pairs do: search a wide ID range.
	var a, b sim.NodeID
	for id := sim.NodeID(1); id <= 10000 && (a == sim.None || b == sim.None); id++ {
		switch {
		case a == sim.None && e.phaseOf(id) < 0.02:
			a = id
		case a != sim.None && b == sim.None && e.laneOf(id) != e.laneOf(a) && e.phaseOf(id) > e.phaseOf(a)+maxDelay+0.02:
			b = id
		}
	}
	if a == sim.None || b == sim.None {
		t.Fatal("no suitable (sender, receiver) pair among ids 1..10000 for this seed")
	}
	sent := false
	e.AddNode(a, handlerFunc(func(ctx sim.Context) {
		if !sent {
			sent = true
			ctx.Send(b, 1, ping{})
		}
	}))
	rcv := &sink{}
	e.AddNode(b, rcv)
	// Past the delivery (due < phase(a)+maxDelay) yet before b's first
	// timeout and a's second, so no lane queue holds anything else due by
	// the target.
	target := e.phaseOf(a) + maxDelay + 0.01
	e.RunUntil(target)
	if len(rcv.got) != 1 {
		t.Fatalf("delivery due at t < %.4f not executed by RunUntil(%.4f): got %d deliveries",
			e.phaseOf(a)+maxDelay, target, len(rcv.got))
	}
}

// TestClosedEngineRunPanics: running a closed engine must fail loudly
// with a clear error instead of blocking on (or sending to) a dead
// worker pool.
func TestClosedEngineRunPanics(t *testing.T) {
	e, _ := buildMesh(Options{Seed: 1, Lanes: 4, Workers: 2}, 8, 1)
	e.RunRounds(1)
	e.Close()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("RunRounds on a closed engine did not panic")
		}
		if s, _ := r.(string); s == "" || !containsClosed(s) {
			t.Fatalf("panic %v does not name the closed engine", r)
		}
	}()
	e.RunRounds(1)
}

func containsClosed(s string) bool {
	for i := 0; i+6 <= len(s); i++ {
		if s[i:i+6] == "closed" {
			return true
		}
	}
	return false
}

// TestRunRoundsUntil covers the poll loop incl. the already-true case.
func TestRunRoundsUntil(t *testing.T) {
	e, cs := buildMesh(Options{Seed: 2, Lanes: 2, Workers: 1}, 8, 1)
	if r, ok := e.RunRoundsUntil(10, func() bool { return true }); r != 0 || !ok {
		t.Fatalf("already-true pred: got (%d,%v), want (0,true)", r, ok)
	}
	r, ok := e.RunRoundsUntil(50, func() bool { return cs[0].ticks >= 3 })
	if !ok || r < 3 {
		t.Fatalf("pred never held or held early: (%d,%v)", r, ok)
	}
	if _, ok := e.RunRoundsUntil(1, func() bool { return false }); ok {
		t.Fatal("impossible pred reported ok")
	}
}

// TestExternalSend: driver injections with a forged (unregistered) From —
// the paper's arbitrary channel contents — are delivered, and identically
// for every worker count.
func TestExternalSend(t *testing.T) {
	run := func(workers int) []sim.Message {
		e := New(Options{Seed: 9, Lanes: 4, Workers: workers})
		s := &sink{}
		e.AddNode(3, s)
		e.RunRounds(1)
		e.Send(sim.Message{To: 3, From: 77, Topic: 1, Body: ping{Hop: 1}})
		e.Send(sim.Message{To: 3, From: 78, Topic: 1, Body: ping{Hop: 2}})
		e.RunRounds(2)
		e.Close()
		return s.got
	}
	g1, g4 := run(1), run(4)
	if len(g1) != 2 {
		t.Fatalf("expected both injections delivered, got %v", g1)
	}
	if !reflect.DeepEqual(g1, g4) {
		t.Fatalf("external sends diverged: %v vs %v", g1, g4)
	}
}

// TestBarrierGuard: calling a barrier operation from inside a handler
// panics rather than corrupting the run.
func TestBarrierGuard(t *testing.T) {
	e := New(Options{Seed: 1, Lanes: 2, Workers: 1})
	tripped := make(chan any, 1)
	e.AddNode(4, handlerFunc(func(ctx sim.Context) {
		defer func() { tripped <- recover() }()
		e.AddNode(5, &sink{})
	}))
	e.RunRounds(1)
	if r := <-tripped; r == nil {
		t.Fatal("AddNode from inside a handler did not panic")
	}
}

// TestBarrierGuardNoneSend: a mid-window Send with To == ⊥ and an
// unregistered From must trip the barrier guard like every other
// external-path misuse, not silently race on lane 0's counters.
func TestBarrierGuardNoneSend(t *testing.T) {
	e := New(Options{Seed: 1, Lanes: 2, Workers: 1})
	tripped := make(chan any, 1)
	e.AddNode(4, handlerFunc(func(ctx sim.Context) {
		defer func() { tripped <- recover() }()
		e.Send(sim.Message{To: sim.None, From: 999})
	}))
	e.RunRounds(1)
	if r := <-tripped; r == nil {
		t.Fatal("Send(To=⊥, unregistered From) from inside a handler did not panic")
	}
	// At a barrier the same send is legal and counts as a drop.
	before := e.Dropped()
	e.Send(sim.Message{To: sim.None, From: 999})
	if e.Dropped() != before+1 {
		t.Fatal("barrier-time Send to ⊥ with unregistered From not counted as dropped")
	}
}

type handlerFunc func(sim.Context)

func (f handlerFunc) OnTimeout(ctx sim.Context)          { f(ctx) }
func (f handlerFunc) OnMessage(sim.Context, sim.Message) {}
