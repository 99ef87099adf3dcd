package psim

import (
	"reflect"
	"testing"

	"sspubsub/internal/sim"
)

// The engine contract every driver in the repository relies on, pinned on
// the one deterministic engine. Each case builds a fresh inline engine
// (Workers: 1 — what every caller outside the scale harness uses) and
// checks one promise.

// rec records the string payloads it receives, in order, the number of
// messages delivered to it and its timeouts.
type rec struct {
	got   []string
	msgs  int
	ticks int
}

func (r *rec) OnMessage(_ sim.Context, m sim.Message) {
	r.msgs++
	if s, ok := m.Body.(string); ok {
		r.got = append(r.got, s)
	}
}
func (r *rec) OnTimeout(sim.Context) { r.ticks++ }

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func TestEngineContract(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, e *Engine)
	}{
		{"one timeout per node per round", func(t *testing.T, e *Engine) {
			nodes := make([]*rec, 10)
			for i := range nodes {
				nodes[i] = &rec{}
				e.AddNode(sim.NodeID(i+1), nodes[i])
			}
			const rounds = 50
			e.RunRounds(rounds)
			for i, n := range nodes {
				if n.ticks != rounds {
					t.Errorf("node %d fired %d timeouts in %d rounds", i+1, n.ticks, rounds)
				}
			}
		}},
		{"restart yields a single timeout chain", func(t *testing.T, e *Engine) {
			// Crash and immediately re-add (a chaos CrashBurst→RestartAll):
			// the crashed incarnation's queued timeout must not revive into a
			// second self-renewing chain for the new incarnation.
			r := &rec{}
			e.AddNode(2, r)
			e.RunRounds(2)
			for cycle := 0; cycle < 3; cycle++ {
				e.Crash(2)
				e.AddNode(2, r)
			}
			r.ticks = 0
			const rounds = 50
			e.RunRounds(rounds)
			if r.ticks < rounds-1 || r.ticks > rounds+1 {
				t.Fatalf("restarted node fired %d timeouts over %d rounds (duplicate chains?)", r.ticks, rounds)
			}
		}},
		{"restart clears suspicion", func(t *testing.T, e *Engine) {
			r := &rec{}
			e.AddNode(2, r)
			e.Crash(2)
			e.RunRounds(3)
			if !e.Suspects(2) {
				t.Fatal("crashed node not suspected after the grace period")
			}
			e.AddNode(2, r)
			if e.Suspects(2) || e.Crashed(2) {
				t.Fatal("restarted node still suspected or reported crashed")
			}
		}},
		{"crash stops actions and drops traffic", func(t *testing.T, e *Engine) {
			a, b := &rec{}, &rec{}
			e.AddNode(1, a)
			e.AddNode(2, b)
			e.RunRounds(1)
			e.Crash(2)
			e.Crash(42) // unknown: a no-op, not a crash record
			if e.Crashed(42) {
				t.Error("unknown node marked crashed")
			}
			e.Send(sim.Message{To: 2, From: 1, Body: "x"})
			ticks := b.ticks
			e.RunRounds(3)
			if b.ticks != ticks || len(b.got) != 0 {
				t.Error("crashed node executed an action")
			}
			if e.Suspects(1) {
				t.Error("detector suspects a live node")
			}
			if e.Dropped() == 0 {
				t.Error("message to a crashed node not counted as dropped")
			}
		}},
		{"RemoveNode drops in-flight messages", func(t *testing.T, e *Engine) {
			r := &rec{}
			e.AddNode(1, r)
			e.Send(sim.Message{To: 1, From: 2, Body: "x"})
			e.RemoveNode(1)
			e.RunRounds(2)
			if len(r.got) != 0 || e.Dropped() != 1 {
				t.Errorf("removed node got %v, dropped = %d (want none, 1)", r.got, e.Dropped())
			}
		}},
		{"send to ⊥ is dropped at once", func(t *testing.T, e *Engine) {
			e.Send(sim.Message{To: sim.None, From: 1, Body: "x"})
			if e.Dropped() != 1 || e.InFlight() != 0 {
				t.Errorf("dropped = %d, inflight = %d", e.Dropped(), e.InFlight())
			}
		}},
		{"duplicate and zero IDs panic", func(t *testing.T, e *Engine) {
			e.AddNode(1, &rec{})
			mustPanic(t, "duplicate AddNode", func() { e.AddNode(1, &rec{}) })
			mustPanic(t, "duplicate AddListener", func() { e.AddListener(1, 1) })
			mustPanic(t, "AddNode(⊥)", func() { e.AddNode(sim.None, &rec{}) })
		}},
		{"NodeIDs sorted, Handler resolves", func(t *testing.T, e *Engine) {
			h1, h3 := &rec{}, &rec{}
			e.AddNode(3, h3)
			e.AddNode(1, h1)
			if ids := e.NodeIDs(); !reflect.DeepEqual(ids, []sim.NodeID{1, 3}) {
				t.Errorf("NodeIDs = %v", ids)
			}
			if e.Handler(3) != h3 || e.Handler(99) != nil {
				t.Error("Handler lookup wrong")
			}
		}},
		{"fault drop", func(t *testing.T, e *Engine) {
			r := &rec{}
			e.AddNode(2, r)
			e.AddNode(3, &rec{})
			e.SetFault(func(sim.Message) sim.FaultAction { return sim.FaultDrop })
			for i := 0; i < 5; i++ {
				e.Send(sim.Message{To: 2, From: 3, Body: "x"})
			}
			e.RunRounds(5)
			// Accounting sees the sends (counted before the fault filter).
			if len(r.got) != 0 || e.Dropped() != 5 || e.SentBy(3) != 5 {
				t.Fatalf("drop-all fault: delivered %d, dropped %d, sent %d", len(r.got), e.Dropped(), e.SentBy(3))
			}
			e.SetFault(nil)
			e.Send(sim.Message{To: 2, From: 3, Body: "y"})
			e.RunRounds(2)
			if len(r.got) != 1 {
				t.Fatalf("healthy channel after clearing the fault delivered %d, want 1", len(r.got))
			}
		}},
		{"fault dup", func(t *testing.T, e *Engine) {
			r := &rec{}
			e.AddNode(2, r)
			e.AddNode(3, &rec{})
			e.SetFault(func(sim.Message) sim.FaultAction { return sim.FaultDup })
			e.Send(sim.Message{To: 2, From: 3, Body: "d"})
			e.RunRounds(3)
			if len(r.got) != 2 || e.Delivered() != 2 {
				t.Fatalf("duplicated message delivered %d times (Delivered %d), want 2", len(r.got), e.Delivered())
			}
		}},
		{"fault delay reorders", func(t *testing.T, e *Engine) {
			r := &rec{}
			e.AddNode(2, r)
			e.AddNode(3, &rec{})
			first := true
			e.SetFault(func(sim.Message) sim.FaultAction {
				if first {
					first = false
					return sim.FaultDelay
				}
				return sim.FaultDeliver
			})
			e.Send(sim.Message{To: 2, From: 3, Body: "slow"})
			e.Send(sim.Message{To: 2, From: 3, Body: "fast"})
			e.RunRounds(10)
			if want := []string{"fast", "slow"}; !reflect.DeepEqual(r.got, want) {
				t.Fatalf("delivery order %v, want %v", r.got, want)
			}
		}},
		{"counters count at send time, reset to zero", func(t *testing.T, e *Engine) {
			r := &rec{}
			e.AddNode(1, r)
			for _, body := range []any{"s", "s", 42} {
				e.Send(sim.Message{To: 1, From: 1, Body: body})
			}
			e.Send(sim.Message{To: 99, From: 1, Body: "lost"}) // dropped at delivery, still counted
			e.RunRounds(2)
			if got := e.TypeNames(); !reflect.DeepEqual(got, []string{"int", "string"}) {
				t.Errorf("TypeNames = %v", got)
			}
			if e.CountByType("string") != 3 || e.CountByType("int") != 1 || e.CountByType("never") != 0 {
				t.Errorf("CountByType: string=%d int=%d", e.CountByType("string"), e.CountByType("int"))
			}
			if e.Delivered() != 3 || e.SentBy(1) != 4 || r.msgs != 3 {
				t.Errorf("delivered=%d sent=%d received=%d", e.Delivered(), e.SentBy(1), r.msgs)
			}
			e.ResetCounters()
			if e.Delivered() != 0 || e.Dropped() != 0 || e.SentBy(1) != 0 ||
				e.CountByType("string") != 0 || len(e.TypeNames()) != 0 {
				t.Error("counters not reset")
			}
		}},
		{"driver sends draw their delay from the current time", func(t *testing.T, e *Engine) {
			// A driver command is a self-send. Stop just short of the node's
			// next timeout: its lane last executed an event 0.99 rounds ago,
			// and the command must still land after the barrier, not in the
			// lane's past.
			var at float64
			e.AddNode(1, handlerOnMessage(func(ctx sim.Context) { at = ctx.Now() }))
			now := e.phaseOf(1) + 5.99
			e.RunUntil(now)
			e.Send(sim.Message{To: 1, From: 1, Body: "cmd"})
			e.RunRounds(1)
			if at < now+0.05 || at > now+0.95 {
				t.Fatalf("driver send at %.3f delivered at %.3f, want one channel delay later", now, at)
			}
		}},
		{"Freeze runs f at a barrier", func(t *testing.T, e *Engine) {
			ran := false
			if !e.Freeze(func() { ran = e.Freeze(func() {}) }) || !ran {
				t.Fatal("Freeze (or a nested Freeze) did not run f")
			}
			e.AddNode(4, handlerFunc(func(sim.Context) {
				mustPanic(t, "Freeze inside a handler", func() { e.Freeze(func() {}) })
			}))
			e.RunRounds(1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.run(t, New(Options{Seed: 1, Workers: 1}))
		})
	}
}

type handlerOnMessage func(sim.Context)

func (f handlerOnMessage) OnTimeout(sim.Context)                    {}
func (f handlerOnMessage) OnMessage(ctx sim.Context, _ sim.Message) { f(ctx) }

type nop struct{}

func (nop) OnMessage(sim.Context, sim.Message) {}
func (nop) OnTimeout(sim.Context)              {}

// TestDeliveryPathAllocFree pins the engine's per-message cost at zero
// allocations: with the body pre-boxed and the lane calendars warm, a driver
// Send plus the window that delivers it (schedule, deliver, account) must
// not touch the allocator. This is the deterministic substrate's share of
// the zero-allocation hot-path contract.
func TestDeliveryPathAllocFree(t *testing.T) {
	e := New(Options{Seed: 1, Workers: 1})
	e.AddNode(1, nop{})
	e.AddNode(2, nop{})
	var body any = ping{Hop: 7}
	m := sim.Message{To: 2, From: 1, Topic: 1, Body: body}
	for i := 0; i < 256; i++ { // warm buckets, sort keys, outboxes, accounting
		e.Send(m)
	}
	e.RunRounds(3)
	avg := testing.AllocsPerRun(500, func() {
		e.Send(m)
		e.RunRounds(1)
	})
	if avg != 0 {
		t.Errorf("Send + RunRounds allocates %.2f objects/op, want 0", avg)
	}
}
