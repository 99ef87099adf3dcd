package cluster

import (
	"math/rand"
	"reflect"
	"testing"

	"sspubsub/internal/core"
	"sspubsub/internal/psim"
	"sspubsub/internal/sim"
)

// spyEngine records every delivery (message and handler time) of the nodes
// registered through it.
type spyEngine struct {
	*psim.Engine
	seen *[]spied
}

type spied struct {
	m  sim.Message
	at float64
}

func (s spyEngine) AddNode(id sim.NodeID, h sim.Handler) {
	s.Engine.AddNode(id, spyHandler{h, s.seen})
}

type spyHandler struct {
	sim.Handler
	seen *[]spied
}

func (h spyHandler) OnMessage(ctx sim.Context, m sim.Message) {
	*h.seen = append(*h.seen, spied{m, ctx.Now()})
	h.Handler.OnMessage(ctx, m)
}

// TestGarbageSpreadsOverTheFollowingRound is the regression for the retired
// InjectAt-based injector, which scheduled garbage at ABSOLUTE times in
// [0, 0.5): every caller injects after a converged set-up, long past 0.5,
// so the advertised spread collapsed into a same-instant burst. Garbage
// now travels through Tr.Send: each copy draws a fresh channel delay from
// the current time.
func TestGarbageSpreadsOverTheFollowingRound(t *testing.T) {
	const n, count = 8, 40
	var seen []spied
	c := NewLive(spyEngine{psim.New(psim.Options{Seed: 3, Workers: 1}), &seen}, core.Options{})
	c.AddClients(n)
	c.JoinAll(topicA)
	if _, ok := c.RunUntilConverged(topicA, n, 300); !ok {
		t.Fatalf("setup: %s", c.Explain(topicA))
	}
	t0 := c.Now()
	if t0 < 1 {
		t.Fatalf("set-up converged at %.2f: too early to tell relative from absolute injection times", t0)
	}

	// The same source twice: once to send, once to know what was sent.
	members := c.Members(topicA)
	c.SendGarbageMessages(topicA, count, rand.New(rand.NewSource(11)))
	replay := rand.New(rand.NewSource(11))
	seen = seen[:0]
	c.RunRounds(1)

	times := map[float64]bool{}
	for i := 0; i < count; i++ {
		want := garbageMessage(topicA, members, replay)
		found := false
		for _, d := range seen {
			if reflect.DeepEqual(d.m, want) {
				found = true
				times[d.at] = true
				if d.at <= t0 || d.at > t0+1 {
					t.Errorf("garbage %d (%s) delivered at %.3f, outside the round after %.3f", i, want, d.at, t0)
				}
				break
			}
		}
		if !found {
			t.Errorf("garbage %d (%s) not delivered within the following round", i, want)
		}
	}
	if len(times) < 2 {
		t.Fatalf("%d garbage messages landed at %d distinct times — a same-instant burst", count, len(times))
	}
	t.Logf("%d garbage messages landed at %d distinct times in (%.2f, %.2f]", count, len(times), t0, t0+1)
}
