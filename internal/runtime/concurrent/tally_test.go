package concurrent

import (
	"testing"
	"time"

	"sspubsub/internal/sim"
)

// haltingSender sends `sends` strings to node 2 per message, stopping half
// way until release is closed.
type haltingSender struct {
	sends   int
	midway  chan struct{}
	release chan struct{}
	done    chan struct{}
}

func (h *haltingSender) OnMessage(ctx sim.Context, m sim.Message) {
	for i := 0; i < h.sends; i++ {
		if i == h.sends/2 {
			close(h.midway)
			<-h.release
		}
		ctx.Send(2, m.Topic, "s")
	}
	close(h.done)
}
func (h *haltingSender) OnTimeout(sim.Context) {}

// replier answers every message with one string to node 2.
type replier struct{}

func (replier) OnMessage(ctx sim.Context, m sim.Message) { ctx.Send(2, m.Topic, "r") }
func (replier) OnTimeout(sim.Context)                    {}

func quiesce(t *testing.T, rt *Runtime) {
	t.Helper()
	if !rt.Quiesce(10*time.Second, func() {}) {
		t.Fatal("system did not drain")
	}
}

func wantCounts(t *testing.T, rt *Runtime, typeName string, want int64, sentBy map[sim.NodeID]int64) {
	t.Helper()
	if got := rt.CountByType(typeName); got != want {
		t.Errorf("CountByType(%s) = %d, want %d", typeName, got, want)
	}
	for id, w := range sentBy {
		if got := rt.SentBy(id); got != w {
			t.Errorf("SentBy(%d) = %d, want %d", id, got, w)
		}
	}
}

// TestSendTallyCrashMidSend: a handler still sending after Crash returned
// has every send counted, the ones before the crash (folded from its tally)
// and the ones after (routed past its gone tally).
func TestSendTallyCrashMidSend(t *testing.T) {
	rt := NewRuntime(Options{Interval: time.Millisecond, Seed: 21})
	defer rt.Close()
	h := &haltingSender{sends: 10, midway: make(chan struct{}), release: make(chan struct{}), done: make(chan struct{})}
	rt.AddNode(1, h)
	rt.AddNode(2, &counter{})
	rt.Send(sim.Message{To: 1, From: 50, Topic: 1, Body: 0})
	<-h.midway
	rt.Crash(1)
	wantCounts(t, rt, "string", 5, map[sim.NodeID]int64{1: 5})
	close(h.release)
	<-h.done
	wantCounts(t, rt, "string", 10, map[sim.NodeID]int64{1: 10, 50: 1})
	wantCounts(t, rt, "int", 1, nil)
}

// TestSendTallyRestart: SentBy spans a crash and the AddNode restart under
// the same ID, and counts survive Close.
func TestSendTallyRestart(t *testing.T) {
	rt := NewRuntime(Options{Interval: time.Millisecond, Seed: 22})
	rt.AddNode(1, replier{})
	rt.AddNode(2, &counter{})
	for i := 0; i < 5; i++ {
		rt.Send(sim.Message{To: 1, From: 50, Topic: 1, Body: i})
	}
	quiesce(t, rt)
	rt.Crash(1)
	wantCounts(t, rt, "string", 5, map[sim.NodeID]int64{1: 5})
	rt.AddNode(1, replier{})
	for i := 0; i < 3; i++ {
		rt.Send(sim.Message{To: 1, From: 50, Topic: 1, Body: i})
	}
	quiesce(t, rt)
	wantCounts(t, rt, "string", 8, map[sim.NodeID]int64{1: 8, 50: 8})
	rt.Close()
	wantCounts(t, rt, "string", 8, map[sim.NodeID]int64{1: 8, 50: 8})
}

// TestSendTallyExternal: driver sends count under their From whether it is
// a live node or not; sends to ⊥ count nowhere.
func TestSendTallyExternal(t *testing.T) {
	rt := NewRuntime(Options{Interval: time.Millisecond, Seed: 23})
	defer rt.Close()
	rt.AddNode(1, &counter{})
	rt.AddNode(2, &counter{})
	for i := 0; i < 4; i++ {
		rt.Send(sim.Message{To: 2, From: 1, Topic: 1, Body: i})
	}
	for i := 0; i < 3; i++ {
		rt.Send(sim.Message{To: 2, From: 77, Topic: 1, Body: i})
	}
	rt.Send(sim.Message{To: sim.None, From: 1, Topic: 1, Body: 0})
	rt.Send(sim.Message{To: sim.None, From: 77, Topic: 1, Body: 0})
	quiesce(t, rt)
	wantCounts(t, rt, "int", 7, map[sim.NodeID]int64{1: 4, 77: 3, 2: 0})
}

// TestSendTallyReset: ResetCounters zeroes the live, the departed and the
// external counts, and counting goes on exactly afterwards.
func TestSendTallyReset(t *testing.T) {
	rt := NewRuntime(Options{Interval: time.Millisecond, Seed: 24})
	defer rt.Close()
	rt.AddNode(1, &counter{})
	rt.AddNode(2, &counter{})
	rt.AddNode(3, &counter{})
	send := func() {
		for _, from := range []sim.NodeID{1, 3, 77} {
			rt.Send(sim.Message{To: 2, From: from, Topic: 1, Body: 0})
		}
	}
	send()
	quiesce(t, rt)
	rt.Crash(3)
	wantCounts(t, rt, "int", 3, map[sim.NodeID]int64{1: 1, 3: 1, 77: 1})
	rt.ResetCounters()
	wantCounts(t, rt, "int", 0, map[sim.NodeID]int64{1: 0, 3: 0, 77: 0})
	send()
	quiesce(t, rt)
	wantCounts(t, rt, "int", 3, map[sim.NodeID]int64{1: 1, 3: 1, 77: 1})
}

// TestSendTallyConcurrentReaders: a driver goroutine reads and resets the
// accounting while eight nodes forward around a ring (race-clean under
// -race); after the last reset, a second wave is counted exactly while the
// reads go on.
func TestSendTallyConcurrentReaders(t *testing.T) {
	const nodes, ttl = 8, 500
	rt := NewRuntime(Options{Interval: time.Millisecond, Seed: 25})
	defer rt.Close()
	for i := 1; i <= nodes; i++ {
		rt.AddNode(sim.NodeID(i), &forwarder{next: sim.NodeID(i%nodes + 1)})
	}
	// wave sends each node a ttl-hop relay while a reader goroutine runs.
	wave := func(reset bool) {
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
				}
				rt.CountByType("int")
				for i := 1; i <= nodes; i++ {
					rt.SentBy(sim.NodeID(i))
				}
				if reset {
					rt.ResetCounters()
				}
			}
		}()
		defer func() { close(stop); <-done }()
		for i := 1; i <= nodes; i++ {
			rt.Send(sim.Message{To: sim.NodeID(i), From: 1000, Topic: 1, Body: ttl})
		}
		quiesce(t, rt)
	}
	wave(true)
	rt.ResetCounters()
	wave(false)
	var sum int64
	for i := 1; i <= nodes; i++ {
		sum += rt.SentBy(sim.NodeID(i))
	}
	if want := int64(nodes * ttl); sum != want {
		t.Errorf("nodes sent %d, want %d", sum, want)
	}
	wantCounts(t, rt, "int", nodes*ttl+nodes, map[sim.NodeID]int64{1000: nodes})
}
