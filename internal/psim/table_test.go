package psim

import (
	"fmt"
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
// timeout events drop, and the in-flight messages, which hold the old
// node, reach the new one through a fresh lookup: nothing is dropped.
// Workers 1 and 4 must agree.
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
