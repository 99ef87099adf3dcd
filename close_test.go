package sspubsub

import (
	"runtime"
	"testing"
	"time"

	"sspubsub/internal/cluster"
)

// TestCloseLeavesNoGoroutines: Close on the live substrates stops every
// goroutine the facade started — node loops, tickers, the net transport's
// listener, readers and writers. runtime.NumGoroutine must be back
// at its pre-construction value within 100 intervals of Close returning.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	const (
		interval = time.Millisecond
		n        = 6
	)
	settled := func(t *testing.T, before int) {
		t.Helper()
		deadline := time.Now().Add(100 * interval)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines before, %d still running 100 intervals after Close:\n%s",
					before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(interval)
		}
	}
	for _, kind := range []RuntimeKind{RuntimeConcurrent, RuntimeNet} {
		t.Run("simulation/"+string(kind), func(t *testing.T) {
			before := runtime.NumGoroutine()
			s := NewSimulation(SimOptions{Runtime: kind, Seed: 1, Interval: interval})
			ids := s.AddSubscribers(n)
			s.JoinAll(1)
			if _, ok := s.RunUntilConverged(1, n, 5000); !ok {
				t.Fatalf("no convergence: %s", s.Explain(1))
			}
			s.Publish(ids[0], 1, "x")
			if _, ok := s.RunUntil(5000, func() bool { return s.AllHavePubs(1, 1) }); !ok {
				t.Fatal("publication never spread")
			}
			s.Close()
			settled(t, before)
		})
		t.Run("system/"+string(kind), func(t *testing.T) {
			before := runtime.NumGoroutine()
			tr, err := cluster.NewSubstrate(string(kind), 1, interval)
			if err != nil {
				t.Fatal(err)
			}
			sys := NewSystem(Options{Interval: interval, Transport: tr})
			clients := make([]*Client, n)
			subs := make([]*Subscription, n)
			for i := range subs {
				clients[i] = sys.MustClient(string(rune('a' + i)))
				subs[i] = clients[i].Subscribe("news")
			}
			if !sys.WaitStable("news", n, 10*time.Second) {
				t.Fatalf("never stabilized: %s", sys.explain("news"))
			}
			if err := clients[0].Publish("news", "x"); err != nil {
				t.Fatal(err)
			}
			select {
			case <-subs[n-1].Events():
			case <-time.After(10 * time.Second):
				t.Fatal("publication never delivered")
			}
			sys.Close()
			settled(t, before)
		})
	}
}
