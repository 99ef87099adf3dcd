package sspubsub

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"sspubsub/internal/cluster"
	"sspubsub/internal/core"
	"sspubsub/internal/psim"
)

func newTestSystem(t *testing.T) *System {
	t.Helper()
	sys := NewSystem(Options{Interval: 2 * time.Millisecond, Seed: 42})
	t.Cleanup(sys.Close)
	return sys
}

// ownerOf returns the supervisor the plane's live ring routes topic to.
func ownerOf(sys *System, topic string) NodeID {
	sys.hmu.Lock()
	defer sys.hmu.Unlock()
	owner, _ := sys.h.ExpectedOwner(sys.topicID(topic))
	return owner
}

func TestSystemSubscribePublishDeliver(t *testing.T) {
	sys := newTestSystem(t)
	alice := sys.MustClient("alice")
	bob := sys.MustClient("bob")
	subA := alice.Subscribe("news")
	subB := bob.Subscribe("news")
	if !sys.WaitStable("news", 2, 5*time.Second) {
		t.Fatalf("overlay never stabilized: %s", sys.explain("news"))
	}
	if err := alice.Publish("news", "hello"); err != nil {
		t.Fatal(err)
	}
	want := func(sub *Subscription, who string) {
		select {
		case p := <-sub.Events():
			if p.Payload != "hello" || p.Origin != "alice" || p.Topic != "news" {
				t.Errorf("%s received %+v", who, p)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never received the publication", who)
		}
	}
	want(subA, "alice")
	want(subB, "bob")
}

func TestSystemLateJoinerGetsHistory(t *testing.T) {
	sys := newTestSystem(t)
	alice := sys.MustClient("alice")
	alice.Subscribe("chat")
	if !sys.WaitStable("chat", 1, 5*time.Second) {
		t.Fatal("no stability with one member")
	}
	for _, m := range []string{"one", "two", "three"} {
		if err := alice.Publish("chat", m); err != nil {
			t.Fatal(err)
		}
	}
	// Late joiner must obtain the full history through anti-entropy.
	carol := sys.MustClient("carol")
	sub := carol.Subscribe("chat")
	got := map[string]bool{}
	deadline := time.After(10 * time.Second)
	for len(got) < 3 {
		select {
		case p := <-sub.Events():
			got[p.Payload] = true
		case <-deadline:
			t.Fatalf("late joiner got %v, want all three", got)
		}
	}
	if h := sub.History(); len(h) != 3 {
		t.Errorf("history has %d entries", len(h))
	}
}

func TestSystemUnsubscribe(t *testing.T) {
	sys := newTestSystem(t)
	a := sys.MustClient("a")
	b := sys.MustClient("b")
	c := sys.MustClient("c")
	a.Subscribe("t")
	subB := b.Subscribe("t")
	c.Subscribe("t")
	if !sys.WaitStable("t", 3, 5*time.Second) {
		t.Fatalf("setup: %s", sys.explain("t"))
	}
	subB.Unsubscribe()
	if !sys.WaitStable("t", 2, 10*time.Second) {
		t.Fatalf("no re-stabilization after unsubscribe: %s", sys.explain("t"))
	}
	members := sys.Members("t")
	if len(members) != 2 {
		t.Errorf("members = %v", members)
	}
	// The closed channel signals the unsubscribe locally.
	select {
	case _, open := <-subB.Events():
		if open {
			// Drain any buffered pre-unsubscribe deliveries.
		}
	case <-time.After(time.Second):
	}
}

func TestSystemPublishRequiresSubscription(t *testing.T) {
	sys := newTestSystem(t)
	a := sys.MustClient("a")
	if err := a.Publish("nope", "x"); err == nil {
		t.Fatal("publish without subscription must fail")
	}
}

// TestSystemFIFODelivery: a live System configured with ModeFIFO presents
// one publisher's payloads on every subscription channel in publish order.
func TestSystemFIFODelivery(t *testing.T) {
	sys := NewSystem(Options{Interval: 2 * time.Millisecond, Seed: 42, Protocol: Protocol{DeliveryMode: ModeFIFO}})
	t.Cleanup(sys.Close)
	alice := sys.MustClient("alice")
	bob := sys.MustClient("bob")
	alice.Subscribe("feed")
	sub := bob.Subscribe("feed")
	if !sys.WaitStable("feed", 2, 5*time.Second) {
		t.Fatalf("overlay never stabilized: %s", sys.explain("feed"))
	}
	want := []string{"first", "second", "third"}
	for _, payload := range want {
		if err := alice.Publish("feed", payload); err != nil {
			t.Fatal(err)
		}
		time.Sleep(4 * time.Millisecond) // order the publish-command self-sends
	}
	for _, payload := range want {
		select {
		case p := <-sub.Events():
			if p.Payload != payload {
				t.Fatalf("bob received %q, want %q", p.Payload, payload)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("bob never received %q", payload)
		}
	}
}

func TestSystemDuplicateClientName(t *testing.T) {
	sys := newTestSystem(t)
	sys.MustClient("dup")
	if _, err := sys.NewClient("dup"); err == nil {
		t.Fatal("duplicate names must be rejected")
	}
}

func TestSystemLabelsAndDegrees(t *testing.T) {
	sys := newTestSystem(t)
	clients := make([]*Client, 4)
	for i := range clients {
		clients[i] = sys.MustClient(string(rune('a' + i)))
		clients[i].Subscribe("t")
	}
	if !sys.WaitStable("t", 4, 5*time.Second) {
		t.Fatalf("no stability: %s", sys.explain("t"))
	}
	labels := map[string]bool{}
	for _, c := range clients {
		labels[c.Label("t")] = true
		if c.Degree("t") == 0 {
			t.Errorf("client %s has degree 0", c.Name())
		}
	}
	for _, want := range []string{"0", "1", "01", "11"} {
		if !labels[want] {
			t.Errorf("label %s missing (have %v)", want, labels)
		}
	}
}

func TestSystemCloseIdempotent(t *testing.T) {
	sys := NewSystem(Options{Interval: time.Millisecond})
	c := sys.MustClient("x")
	sub := c.Subscribe("t")
	sys.Close()
	sys.Close()
	if _, err := sys.NewClient("y"); err == nil {
		t.Fatal("NewClient after Close must fail")
	}
	if !closedWithin(sub, time.Second) {
		t.Error("a subscription made before Close is still open")
	}
	// A reader of a subscription made after Close must not block forever.
	if !closedWithin(c.Subscribe("u"), time.Second) {
		t.Error("Subscribe after Close returned a subscription whose Events never closes")
	}
	if err := c.Publish("t", "late"); err == nil {
		t.Error("Publish after Close returned nil; the publication was silently dropped")
	}
}

// closedWithin reports whether sub's Events channel is closed (after
// draining anything still buffered) within d.
func closedWithin(sub *Subscription, d time.Duration) bool {
	timeout := time.After(d)
	for {
		select {
		case _, open := <-sub.Events():
			if !open {
				return true
			}
		case <-timeout:
			return false
		}
	}
}

// TestSystemCloseRacesRegistration races NewClient and Subscribe against
// Close: every subscription handed out on either side of Close must end up
// closed, so a reader ranging over Events always terminates.
func TestSystemCloseRacesRegistration(t *testing.T) {
	for round := 0; round < 10; round++ {
		sys := NewSystem(Options{Interval: time.Millisecond})
		pre := sys.MustClient("pre")
		var mu sync.Mutex
		var subs []*Subscription
		keep := func(sub *Subscription) {
			mu.Lock()
			subs = append(subs, sub)
			mu.Unlock()
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; ; i++ {
					keep(pre.Subscribe(fmt.Sprintf("t%d", i%8)))
					c, err := sys.NewClient(fmt.Sprintf("c%d-%d", g, i))
					if err != nil {
						return
					}
					keep(c.Subscribe("t"))
				}
			}(g)
		}
		time.Sleep(2 * time.Millisecond)
		sys.Close()
		wg.Wait()
		for _, sub := range subs {
			if !closedWithin(sub, time.Second) {
				t.Fatalf("round %d: subscription %s/%q still open after Close (%d handed out)",
					round, sub.client.Name(), sub.Topic(), len(subs))
			}
		}
	}
}

func TestSimulationFacade(t *testing.T) {
	s := NewSimulation(SimOptions{Seed: 9})
	ids := s.AddSubscribers(8)
	s.JoinAll(1)
	rounds, ok := s.RunUntilConverged(1, 8, 300)
	if !ok {
		t.Fatalf("no convergence: %s", s.Explain(1))
	}
	t.Logf("converged in %d rounds", rounds)
	s.Publish(ids[0], 1, "msg")
	s.RunRounds(5)
	if !s.TriesEqual(1) {
		t.Fatal("publication did not spread")
	}
	for _, id := range ids {
		if got := s.Publications(id, 1); len(got) != 1 || got[0] != "msg" {
			t.Fatalf("node %d publications = %v", id, got)
		}
		if s.Degree(id, 1) == 0 {
			t.Errorf("node %d degree 0", id)
		}
	}
	if s.MessagesDelivered() == 0 || s.SupervisorSent() == 0 {
		t.Error("message accounting empty")
	}
	// Determinism: same seed, same convergence time.
	s2 := NewSimulation(SimOptions{Seed: 9})
	s2.AddSubscribers(8)
	s2.JoinAll(1)
	rounds2, _ := s2.RunUntilConverged(1, 8, 300)
	if rounds2 != rounds {
		t.Errorf("nondeterministic: %d vs %d rounds", rounds, rounds2)
	}
}

func TestSimulationCorruptionRecovery(t *testing.T) {
	s := NewSimulation(SimOptions{Seed: 31})
	s.AddSubscribers(10)
	s.JoinAll(1)
	if _, ok := s.RunUntilConverged(1, 10, 300); !ok {
		t.Fatal("setup failed")
	}
	s.CorruptSubscriberStates(1)
	s.CorruptSupervisorDB(1)
	s.InjectGarbageMessages(1, 30)
	if _, ok := s.RunUntilConverged(1, 10, 3000); !ok {
		t.Fatalf("no recovery: %s", s.Explain(1))
	}
	s.Crash(s.Members(1)[0])
	if _, ok := s.RunUntilConverged(1, 9, 3000); !ok {
		t.Fatalf("no crash recovery: %s", s.Explain(1))
	}
}

func TestSystemMultiSupervisor(t *testing.T) {
	sys := NewSystem(Options{Interval: 2 * time.Millisecond, Seed: 77, Protocol: Protocol{Supervisors: 3}})
	t.Cleanup(sys.Close)
	topics := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	clients := make([]*Client, 6)
	for i := range clients {
		clients[i] = sys.MustClient(string(rune('a' + i)))
	}
	// Every client joins every topic; each topic's ring is managed by its
	// consistent-hashing owner supervisor.
	for _, tp := range topics {
		for _, c := range clients {
			c.Subscribe(tp)
		}
	}
	owners := map[NodeID]bool{}
	for _, tp := range topics {
		if !sys.WaitStable(tp, len(clients), 10*time.Second) {
			t.Fatalf("topic %s never stabilized: %s", tp, sys.explain(tp))
		}
		owners[ownerOf(sys, tp)] = true
	}
	if len(owners) < 2 {
		t.Errorf("6 topics landed on %d supervisor(s); expected spread over ≥ 2 of 3", len(owners))
	}
	// Publications still flow normally on a sharded system.
	if err := clients[0].Publish("alpha", "hello"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(clients[5].History("alpha")) == 1 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("publication never reached the last client")
}

// TestSubscriptionDroppedCounter forces event-buffer overflow with a tiny
// buffer and verifies the loss is counted instead of silent, while History
// keeps the full set.
func TestSubscriptionDroppedCounter(t *testing.T) {
	sys := NewSystem(Options{Interval: 2 * time.Millisecond, Seed: 7, EventBuffer: 2})
	t.Cleanup(sys.Close)
	pub := sys.MustClient("pub")
	lag := sys.MustClient("lag")
	_ = pub.Subscribe("hot")
	sub := lag.Subscribe("hot")
	if !sys.WaitStable("hot", 2, 5*time.Second) {
		t.Fatalf("overlay never stabilized: %s", sys.explain("hot"))
	}
	const total = 10
	for i := 0; i < total; i++ {
		if err := pub.Publish("hot", string(rune('a'+i))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(sub.History()) < total && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := len(sub.History()); got != total {
		t.Fatalf("history has %d publications, want %d", got, total)
	}
	// Nobody consumed lag's channel (capacity 2): 8 of the 10 events must
	// have displaced older ones, each counted.
	if got := sub.Dropped(); got != total-2 {
		t.Errorf("Dropped() = %d, want %d", got, total-2)
	}
	consumed := 0
	for {
		select {
		case <-sub.Events():
			consumed++
			continue
		default:
		}
		break
	}
	if consumed != 2 {
		t.Errorf("consumed %d buffered events, want 2", consumed)
	}
}

// TestSystemAttachOptions pins the attach-mode API surface without a real
// second process: no local supervisors, client IDs from FirstClientID, and
// the supervisor-side observers degrade explicitly instead of panicking.
func TestSystemAttachOptions(t *testing.T) {
	sys := NewSystem(Options{Interval: 2 * time.Millisecond, Attach: true, FirstClientID: 5000})
	t.Cleanup(sys.Close)
	c := sys.MustClient("solo")
	if c.id != 5000 {
		t.Errorf("first client ID = %d, want 5000", c.id)
	}
	if sys.TopicSize("x") != -1 {
		t.Errorf("TopicSize on attached system = %d, want -1", sys.TopicSize("x"))
	}
	if sys.Stable("x") {
		t.Error("Stable must be false when the supervisor is remote")
	}
	if sys.WaitStable("x", 1, 10*time.Millisecond) {
		t.Error("WaitStable must fail fast when the supervisor is remote")
	}
	// With no transport to a real supervisor the client can never join;
	// WaitJoined must time out rather than hang or lie.
	if sys.WaitJoined("x", 1, 20*time.Millisecond) {
		t.Error("WaitJoined reported success without a supervisor")
	}
}

// TestTopicIDsProcessIndependent: topic IDs are the cross-process wire
// identity of a topic, so they must not depend on the order in which a
// process first touches the names (a per-process allocation counter would
// make two processes disagree about which ring a frame belongs to).
func TestTopicIDsProcessIndependent(t *testing.T) {
	a := newTestSystem(t)
	b := newTestSystem(t)
	a.topicID("alpha")
	a.topicID("beta")
	// Opposite first-use order in the "other process".
	b.topicID("beta")
	b.topicID("alpha")
	for _, name := range []string{"alpha", "beta"} {
		if got, want := b.topicID(name), a.topicID(name); got != want {
			t.Errorf("topic %q: ID %d in one process, %d in another", name, got, want)
		}
	}
	if a.topicID("alpha") == a.topicID("beta") {
		t.Error("distinct topics share an ID")
	}
}

// TestSystemSupervisorFailover drives the crash-tolerant supervisor plane
// through the public API: crash a topic's owner supervisor, verify the
// system re-stabilizes under the hashdht successor with subscriptions and
// delivery intact, then restart the old owner and verify it reclaims the
// topic.
func TestSystemSupervisorFailover(t *testing.T) {
	sys := NewSystem(Options{Interval: 2 * time.Millisecond, Seed: 99, Protocol: Protocol{Supervisors: 4}})
	t.Cleanup(sys.Close)
	if got := sys.SupervisorCount(); got != 4 {
		t.Fatalf("SupervisorCount = %d", got)
	}

	clients := make([]*Client, 5)
	for i := range clients {
		clients[i] = sys.MustClient(string(rune('a' + i)))
		clients[i].Subscribe("orders")
	}
	if !sys.WaitStable("orders", len(clients), 20*time.Second) {
		t.Fatalf("never stabilized: %s", sys.explain("orders"))
	}

	owner := ownerOf(sys, "orders")
	ownerIdx := int(owner - cluster.SupervisorID)
	if err := sys.CrashSupervisor(ownerIdx); err != nil {
		t.Fatal(err)
	}
	successor := ownerOf(sys, "orders")
	if successor == owner {
		t.Fatalf("routing still points at the crashed owner %d", owner)
	}

	// The successor rebuilds the database from the live overlay; the
	// system must return to a fully legitimate state with all members.
	if !sys.WaitStable("orders", len(clients), 20*time.Second) {
		t.Fatalf("no re-stabilization after owner crash: %s", sys.explain("orders"))
	}

	// Pre-crash subscriptions keep delivering.
	if err := clients[0].Publish("orders", "post-failover"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if len(clients[4].History("orders")) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("post-failover publication never delivered")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Restart: the original owner reclaims the topic at a fresh epoch.
	if err := sys.RestartSupervisor(ownerIdx); err != nil {
		t.Fatal(err)
	}
	if got := ownerOf(sys, "orders"); got != owner {
		t.Fatalf("routing did not return to the restarted owner: %d", got)
	}
	if !sys.WaitStable("orders", len(clients), 20*time.Second) {
		t.Fatalf("no re-stabilization after owner restart: %s", sys.explain("orders"))
	}
}

// TestSystemCrashSupervisorValidation pins the public-API error surface.
func TestSystemCrashSupervisorValidation(t *testing.T) {
	sys := NewSystem(Options{Interval: 2 * time.Millisecond, Seed: 3, Protocol: Protocol{Supervisors: 2}})
	t.Cleanup(sys.Close)
	if err := sys.CrashSupervisor(5); err == nil {
		t.Error("out-of-range index accepted")
	}
	if err := sys.RestartSupervisor(0); err == nil {
		t.Error("restart of a live supervisor accepted")
	}
	if err := sys.CrashSupervisor(0); err != nil {
		t.Fatal(err)
	}
	if err := sys.CrashSupervisor(0); err == nil {
		t.Error("double crash accepted")
	}
	if err := sys.CrashSupervisor(1); err == nil {
		t.Error("crashing the last live supervisor accepted")
	}
	if err := sys.RestartSupervisor(0); err != nil {
		t.Fatal(err)
	}
}

// TestSystemStableChecksOwnership: Stable is Live.Explain, which — unlike
// the predicate System used to assemble itself — includes ownership
// agreement. The test runs a System on the inline deterministic engine,
// warms the replicas, crashes the topic's owner and steps in fractions of a
// round to the instant the successor has adopted the warm directory while a
// member still reports to the crashed owner: the database and the overlay
// alone look legitimate there, and Stable must still say no.
func TestSystemStableChecksOwnership(t *testing.T) {
	eng := psim.New(psim.Options{Seed: 5, Workers: 1})
	sys := NewSystem(Options{Transport: eng, Protocol: Protocol{Supervisors: 3, ReplicationFactor: 2}})
	t.Cleanup(sys.Close)
	const n = 6
	for i := 0; i < n; i++ {
		sys.MustClient(string(rune('a' + i))).Subscribe("orders")
	}
	topic := sys.topicID("orders")
	if _, ok := eng.RunRoundsUntil(5000, func() bool {
		return sys.TopicSize("orders") == n && sys.Stable("orders") && sys.h.ReplicasConverged(topic)
	}); !ok {
		t.Fatalf("setup: %s / %s", sys.explain("orders"), sys.h.ExplainReplication(topic))
	}

	owner := ownerOf(sys, "orders")
	if err := sys.CrashSupervisor(int(owner - cluster.SupervisorID)); err != nil {
		t.Fatal(err)
	}
	successor := sys.h.Sups[ownerOf(sys, "orders")]
	observed := false
	for step := 0; step < 2000 && !observed; step++ {
		eng.RunUntil(eng.Now() + 0.05)
		states := make(map[NodeID]core.State, n)
		stale := false
		for id, cl := range sys.h.Clients {
			st, _ := cl.StateOf(topic)
			states[id] = st
			stale = stale || st.Sup == owner
		}
		if !stale || successor.Corrupted(topic) || cluster.CheckLegitimacy(successor.Snapshot(topic), states) != "" {
			continue
		}
		observed = true
		if sys.Stable("orders") {
			t.Fatal("Stable while a member still reports to the crashed owner")
		}
		if v := sys.explain("orders"); !strings.Contains(v, "reports to supervisor") {
			t.Errorf("violation %q does not name the stale owner", v)
		}
	}
	if !observed {
		t.Fatal("never saw the successor's database exact while a member still reported to the crashed owner")
	}
	if _, ok := eng.RunRoundsUntil(5000, func() bool { return sys.Stable("orders") }); !ok {
		t.Fatalf("no re-stabilization: %s", sys.explain("orders"))
	}
}
