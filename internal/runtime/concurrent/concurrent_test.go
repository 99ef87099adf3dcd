package concurrent

import (
	"sync/atomic"
	"testing"
	"time"

	"sspubsub/internal/sim"
)

// counter is a toy handler that counts deliveries and timeouts.
type counter struct {
	msgs  atomic.Int64
	ticks atomic.Int64
}

func (c *counter) OnMessage(ctx sim.Context, m sim.Message) { c.msgs.Add(1) }
func (c *counter) OnTimeout(ctx sim.Context)                { c.ticks.Add(1) }

// forwarder relays every message to a fixed next hop, decrementing a TTL.
type forwarder struct {
	next  sim.NodeID
	seen  atomic.Int64
	ticks atomic.Int64
}

func (f *forwarder) OnMessage(ctx sim.Context, m sim.Message) {
	f.seen.Add(1)
	if ttl := m.Body.(int); ttl > 0 {
		ctx.Send(f.next, m.Topic, ttl-1)
	}
}
func (f *forwarder) OnTimeout(ctx sim.Context) { f.ticks.Add(1) }

// TestQuiesceFreezesSystem verifies that while the quiesce callback runs,
// no handler executes: a cascade of self-perpetuating forwards and the
// periodic ticks are both suspended.
func TestQuiesceFreezesSystem(t *testing.T) {
	rt := NewRuntime(Options{Interval: 500 * time.Microsecond, Seed: 2})
	defer rt.Close()
	a := &forwarder{next: 2}
	b := &forwarder{next: 1}
	rt.AddNode(1, a)
	rt.AddNode(2, b)
	// A long but finite forwarding cascade keeps traffic flowing.
	rt.Send(sim.Message{To: 1, From: 2, Topic: 1, Body: 5000})
	ok := rt.Quiesce(10*time.Second, func() {
		before := rt.Delivered()
		time.Sleep(5 * time.Millisecond) // several tick intervals
		if after := rt.Delivered(); after != before {
			t.Errorf("handlers ran during quiesce: delivered %d → %d", before, after)
		}
	})
	if !ok {
		t.Fatal("runtime did not quiesce")
	}
	if a.seen.Load()+b.seen.Load() != 5001 {
		t.Errorf("cascade delivered %d+%d messages, want 5001 total", a.seen.Load(), b.seen.Load())
	}
	// Ticks resume after the quiesce window.
	base := a.ticks.Load()
	time.Sleep(10 * time.Millisecond)
	if a.ticks.Load() == base {
		t.Error("timeouts did not resume after Quiesce")
	}
}

// TestCrashRestartAndDetector exercises the crash path: messages to a
// crashed node vanish, the failure detector respects the grace period of
// two intervals, and a node re-added under its ID receives traffic again.
func TestCrashRestartAndDetector(t *testing.T) {
	const interval = 10 * time.Millisecond
	grace := graceIntervals * interval
	rt := NewRuntime(Options{Interval: interval, Seed: 3})
	defer rt.Close()
	c := &counter{}
	rt.AddNode(7, c)
	if rt.Suspects(7) {
		t.Fatal("live node suspected")
	}

	rt.Crash(7)
	if !rt.Crashed(7) {
		t.Fatal("Crashed(7) = false after Crash")
	}
	if rt.Suspects(7) {
		t.Error("suspected before the grace period elapsed")
	}
	time.Sleep(grace + 5*time.Millisecond)
	if !rt.Suspects(7) {
		t.Error("not suspected after the grace period")
	}

	// Messages to the crashed node are dropped.
	before := c.msgs.Load()
	rt.Send(sim.Message{To: 7, From: 1, Topic: 1, Body: 0})
	if rt.Dropped() == 0 {
		t.Error("send to crashed node not counted as dropped")
	}

	rt.AddNode(7, c)
	if rt.Suspects(7) || rt.Crashed(7) {
		t.Error("restarted node still suspected/crashed")
	}
	rt.Send(sim.Message{To: 7, From: 1, Topic: 1, Body: 0})
	if !rt.Quiesce(5*time.Second, func() {}) {
		t.Fatal("no quiesce")
	}
	if c.msgs.Load() != before+1 {
		t.Errorf("restarted node received %d new messages, want 1", c.msgs.Load()-before)
	}

	// RemoveNode, by contrast, is suspected immediately.
	rt.RemoveNode(7)
	if !rt.Suspects(7) {
		t.Error("removed node not suspected immediately")
	}
}

// TestAccounting verifies the per-type and per-node counters.
func TestAccounting(t *testing.T) {
	rt := NewRuntime(Options{Interval: time.Millisecond, Seed: 5})
	defer rt.Close()
	rt.AddNode(1, &counter{})
	rt.AddNode(2, &counter{})
	for i := 0; i < 10; i++ {
		rt.Send(sim.Message{To: 1, From: 2, Topic: 1, Body: "s"})
	}
	rt.Send(sim.Message{To: 2, From: 1, Topic: 1, Body: 3})
	if !rt.Quiesce(5*time.Second, func() {}) {
		t.Fatal("no quiesce")
	}
	if got := rt.CountByType("string"); got != 10 {
		t.Errorf("CountByType(string) = %d", got)
	}
	if got := rt.SentBy(2); got != 10 {
		t.Errorf("SentBy(2) = %d", got)
	}
	if got := rt.Delivered(); got != 11 {
		t.Errorf("Delivered() = %d", got)
	}
	rt.ResetCounters()
	if rt.CountByType("string") != 0 || rt.Delivered() != 0 {
		t.Error("ResetCounters did not zero the accounting")
	}
}

// TestCloseIdempotent verifies Close can be called twice and stops ticks.
func TestCloseIdempotent(t *testing.T) {
	rt := NewRuntime(Options{Interval: time.Millisecond, Seed: 6})
	c := &counter{}
	rt.AddNode(1, c)
	time.Sleep(5 * time.Millisecond)
	rt.Close()
	rt.Close()
	base := c.ticks.Load()
	time.Sleep(5 * time.Millisecond)
	if c.ticks.Load() != base {
		t.Error("ticks continued after Close")
	}
	// AddNode after Close is a silent no-op, so a restart racing Close is
	// harmless.
	rt.AddNode(9, c)
	if !rt.Suspects(9) {
		t.Error("AddNode after Close registered a node")
	}
}
