package psim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sspubsub/internal/sim"
)

// The node table: registered nodes are found by indexing a slice with
// their ID, registration refuses an ID outside [1, maxNodeID), and any ID
// may still be addressed.

// TestNodeTableBound registers the largest ID the table takes and checks
// that every ID outside the range is refused by both registration paths.
func TestNodeTableBound(t *testing.T) {
	e := New(Options{Seed: 1, Workers: 1})
	top := &sink{}
	e.AddNode(maxNodeID-1, top)
	e.AddListener(maxNodeID-2, maxNodeID-1)
	for _, id := range []sim.NodeID{maxNodeID, maxNodeID + 1, 1 << 40, -1, sim.None} {
		mustPanic(t, fmt.Sprintf("AddNode(%d)", id), func() { e.AddNode(id, &sink{}) })
		mustPanic(t, fmt.Sprintf("AddListener(%d)", id), func() { e.AddListener(id, maxNodeID-1) })
	}
	mustPanic(t, "AddListener with an owner beyond the table", func() { e.AddListener(5, maxNodeID+1) })
	if ids := e.NodeIDs(); !reflect.DeepEqual(ids, []sim.NodeID{maxNodeID - 2, maxNodeID - 1}) {
		t.Fatalf("NodeIDs after refused registrations = %v", ids)
	}
	e.Send(sim.Message{To: maxNodeID - 1, From: 99, Topic: 1, Body: ping{}})
	e.Send(sim.Message{To: maxNodeID - 2, From: 99, Topic: 1, Body: ping{}})
	e.RunRounds(1)
	if len(top.got) != 2 {
		t.Fatalf("the node at the bound and its listener got %d messages, want 2", len(top.got))
	}
}

// TestNodeTableCrashReAdd crashes a receiver with messages in flight to it
// and registers a new handler under the same ID. The old incarnation's
// timeout events drop, and the in-flight messages, which name only the ID,
// reach the new one, looked up at delivery: nothing is dropped. Workers 1
// and 4 must agree.
func TestNodeTableCrashReAdd(t *testing.T) {
	run := func(workers int) string {
		e := New(Options{Seed: 3, Workers: workers})
		defer e.Close()
		const dst = 2
		// Senders on other lanes than dst's, so in-flight copies cross a
		// barrier before they are delivered.
		var from []sim.NodeID
		for id := sim.NodeID(3); len(from) < 4; id++ {
			if e.laneOf(id) != e.laneOf(dst) {
				from = append(from, id)
			}
		}
		for _, id := range from {
			e.AddNode(id, handlerFunc(func(ctx sim.Context) {
				for i := 0; i < 3; i++ {
					ctx.Send(dst, 1, "m")
				}
			}))
		}
		old, fresh := &rec{}, &rec{}
		e.AddNode(dst, old)
		e.RunUntil(2.5)
		oldMsgs, oldTicks := old.msgs, old.ticks
		inFlight := e.InFlight()
		if inFlight == 0 {
			t.Fatal("nothing in flight at the crash")
		}
		e.Crash(dst)
		e.AddNode(dst, fresh)
		if e.Handler(dst) != sim.Handler(fresh) {
			t.Fatal("Handler does not find the new incarnation")
		}
		e.RunRounds(4)
		if old.msgs != oldMsgs || old.ticks != oldTicks {
			t.Fatalf("the crashed incarnation ran: %d→%d messages, %d→%d ticks", oldMsgs, old.msgs, oldTicks, old.ticks)
		}
		if d := e.Dropped(); d != 0 {
			t.Fatalf("%d messages dropped; the %d in flight at the restart should reach the new incarnation", d, inFlight)
		}
		if int64(old.msgs+fresh.msgs) != e.Delivered() {
			t.Fatalf("incarnations got %d + %d messages, engine delivered %d", old.msgs, fresh.msgs, e.Delivered())
		}
		if fresh.ticks != 4 {
			t.Fatalf("new incarnation ticked %d times in 4 rounds, want 4", fresh.ticks)
		}
		return fmt.Sprint(e.Delivered(), oldMsgs, fresh.msgs, e.NodeIDs())
	}
	if a, b := run(1), run(4); a != b {
		t.Fatalf("workers 1 and 4 differ: %s vs %s", a, b)
	}
}

// TestNodeTableUnregisteredFarIDs sends to IDs the table never covered,
// from a registered node and from outside; every one is dropped and
// counted, none delivered.
func TestNodeTableUnregisteredFarIDs(t *testing.T) {
	e := New(Options{Seed: 1, Workers: 2})
	defer e.Close()
	far := []sim.NodeID{maxNodeID, 1 << 40, -7, 1<<63 - 1}
	once := false
	e.AddNode(1, handlerFunc(func(ctx sim.Context) {
		if once {
			return
		}
		once = true
		for _, id := range far {
			ctx.Send(id, 1, "far")
		}
	}))
	for _, id := range far {
		e.Send(sim.Message{To: id, From: 1 << 50, Topic: 1, Body: "far"})
	}
	e.RunRounds(3)
	if d, f := e.Delivered(), e.InFlight(); d != 0 || f != 0 {
		t.Fatalf("%d messages to unregistered IDs delivered, %d in flight", d, f)
	}
	if got, want := e.Dropped(), int64(2*len(far)); got != want {
		t.Fatalf("dropped %d, want %d: the external sends and node 1's", got, want)
	}
	if ids := e.NodeIDs(); !reflect.DeepEqual(ids, []sim.NodeID{1}) {
		t.Fatalf("NodeIDs = %v, want [1]", ids)
	}
}

// TestNodeTableNodeIDsSorted registers nodes and listeners in random order,
// crashes and removes some, re-adds a few, and requires NodeIDs to list
// exactly the live ones, ascending.
func TestNodeTableNodeIDsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e := New(Options{Seed: 5, Workers: 1})
	live := map[sim.NodeID]bool{}
	ids := rng.Perm(200)
	for _, i := range ids {
		id := sim.NodeID(i + 1)
		if owner := sim.NodeID(i); owner > 0 && live[owner] && rng.Intn(2) == 0 {
			e.AddListener(id, owner)
		} else {
			e.AddNode(id, &sink{})
		}
		live[id] = true
	}
	for _, i := range rng.Perm(200)[:80] {
		id := sim.NodeID(i + 1)
		if rng.Intn(2) == 0 {
			e.Crash(id)
		} else {
			e.RemoveNode(id)
		}
		delete(live, id)
	}
	for id := sim.NodeID(1); id <= 200; id += 7 {
		if !live[id] {
			e.AddNode(id, &sink{})
			live[id] = true
		}
	}
	var want []sim.NodeID
	for id := range live {
		want = append(want, id)
	}
	slices.Sort(want)
	if got := e.NodeIDs(); !slices.Equal(got, want) {
		t.Fatalf("NodeIDs = %v\nwant %v", got, want)
	}
}

// ticker records the virtual time of each of its timeouts.
type ticker struct{ at []float64 }

func (k *ticker) OnTimeout(ctx sim.Context)          { k.at = append(k.at, ctx.Now()) }
func (k *ticker) OnMessage(sim.Context, sim.Message) {}

// TestNodeTableReAddTwiceAtOneBarrier crashes a node and registers it
// twice more at one barrier, the second registration crashed at once, so
// three timeout chains for one ID are queued. Only the last
// registration's generation runs: the node ticks exactly once per
// interval, and the earlier incarnations never again. Workers 1 and 4
// must agree.
func TestNodeTableReAddTwiceAtOneBarrier(t *testing.T) {
	run := func(workers int) string {
		e := New(Options{Seed: 7, Workers: workers})
		defer e.Close()
		const id = 5
		for other := sim.NodeID(6); other < 40; other++ { // busy windows on many lanes
			e.AddNode(other, &sink{})
		}
		first, second, third := &ticker{}, &ticker{}, &ticker{}
		e.AddNode(id, first)
		e.RunUntil(1.5)
		ticked := len(first.at)
		e.Crash(id)
		e.AddNode(id, second)
		e.Crash(id)
		e.AddNode(id, third)
		e.RunRounds(5)
		if len(first.at) != ticked || len(second.at) != 0 {
			t.Fatalf("workers %d: earlier incarnations ticked after the re-add: %d→%d and %d",
				workers, ticked, len(first.at), len(second.at))
		}
		if len(third.at) != 5 {
			t.Fatalf("workers %d: the last incarnation ticked %d times in 5 rounds, want 5: %v", workers, len(third.at), third.at)
		}
		for i := 1; i < len(third.at); i++ {
			if d := third.at[i] - third.at[i-1]; math.Abs(d-1) > 1e-9 {
				t.Fatalf("workers %d: ticks %v are not one interval apart", workers, third.at)
			}
		}
		return fmt.Sprint(first.at, third.at, e.NodeIDs())
	}
	if a, b := run(1), run(4); a != b {
		t.Fatalf("workers 1 and 4 differ: %s vs %s", a, b)
	}
}

// TestNodeTableListenerFollowsOwner holds a listener to its owner's ID:
// while no owner is registered its messages drop, and once the owner is
// registered again they reach the new incarnation's handler, a message
// sent while the owner was down included. Workers 1 and 4 must agree.
func TestNodeTableListenerFollowsOwner(t *testing.T) {
	run := func(workers int) string {
		e := New(Options{Seed: 9, Workers: workers})
		defer e.Close()
		const owner, listener = 10, 1000
		for other := sim.NodeID(20); other < 60; other++ { // busy windows on many lanes
			e.AddNode(other, &sink{})
		}
		send := func(body string) {
			e.Send(sim.Message{To: listener, From: 1 << 30, Topic: 1, Body: body})
		}
		was, now := &sink{}, &sink{}
		e.AddNode(owner, was)
		e.AddListener(listener, owner)
		send("before")
		e.RunRounds(1)
		send("at the crash")
		e.Crash(owner)
		if e.Handler(listener) != nil {
			t.Fatal("a listener without an owner resolves to a handler")
		}
		e.RunRounds(1)
		if d := e.Dropped(); d != 1 {
			t.Fatalf("workers %d: %d messages dropped while the owner was down, want 1", workers, d)
		}
		send("while down")
		e.AddNode(owner, now)
		if e.Handler(listener) != sim.Handler(now) {
			t.Fatal("the listener does not resolve to the owner's new incarnation")
		}
		send("after")
		e.RunRounds(1)
		got := func(s *sink) (out []string) {
			for _, m := range s.got {
				if m.To != listener {
					t.Fatalf("workers %d: the owner handled a message for %d", workers, m.To)
				}
				out = append(out, m.Body.(string))
			}
			return out
		}
		if w, n := got(was), got(now); !slices.Equal(w, []string{"before"}) || len(n) != 2 || !slices.Contains(n, "while down") || !slices.Contains(n, "after") {
			t.Fatalf("workers %d: the old owner got %q, the new one %q", workers, w, n)
		}
		return fmt.Sprint(got(was), got(now), e.Delivered(), e.Dropped())
	}
	if a, b := run(1), run(4); a != b {
		t.Fatalf("workers 1 and 4 differ: %s vs %s", a, b)
	}
}
