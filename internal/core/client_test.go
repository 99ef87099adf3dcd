package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sspubsub/internal/label"
	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
	"sspubsub/internal/simtest"
)

// A client's instances are one slice sorted by topic. These tests run
// random joins, leaves, departures, re-joins and timeouts over several
// topics against a map model, and after every step require Topics() to be
// strictly ascending and equal to the model's topics, and every topic to
// look up the instance the model holds for it.

// topicModel drives one client and its map model: the subscriber each
// joined topic's instance holds.
type topicModel struct {
	c       *Client
	ctx     *simtest.Ctx
	model   map[sim.Topic]*Subscriber
	rejoins int // joins of a departed topic
}

const topicClient sim.NodeID = 10

func newTopicModel() *topicModel {
	return &topicModel{
		c:     NewClient(topicClient, supID, Options{}),
		ctx:   simtest.NewCtx(topicClient),
		model: map[sim.Topic]*Subscriber{},
	}
}

// modelTopic draws one of nine topics, negative, zero and positive.
func modelTopic(b byte) sim.Topic { return sim.Topic(int32(b%9)*37 - 150) }

// step applies operation op on topic modelTopic(a) to the client and the
// model, checks what the operation itself promises, and returns its name.
func (m *topicModel) step(t *testing.T, op, a byte) string {
	t.Helper()
	c, tp := m.c, modelTopic(a)
	deliver := func(from sim.NodeID, body any) {
		c.OnMessage(m.ctx, sim.Message{To: topicClient, From: from, Topic: tp, Body: body})
		m.ctx.Take()
	}
	switch op % 4 {
	case 0:
		before, had := c.Instance(tp)
		departed, fired := c.Departed(tp), c.RuleCounts(tp)
		deliver(topicClient, JoinTopic{})
		in, ok := c.Instance(tp)
		switch {
		case !ok:
			t.Fatalf("join %d: no instance after the join", tp)
		case had && !departed && in.Sub != before.Sub:
			t.Fatalf("join %d: a live instance was replaced", tp)
		case departed && (in.Sub == before.Sub || in.Sub.Departed()):
			t.Fatalf("join %d: a re-join after departure kept the departed instance", tp)
		case departed && c.RuleCounts(tp) != fired:
			t.Fatalf("join %d: rule counts %v after the re-join, %v before", tp, c.RuleCounts(tp), fired)
		}
		if departed {
			m.rejoins++
		}
		m.model[tp] = in.Sub
		return fmt.Sprintf("join %d", tp)
	case 1:
		deliver(topicClient, LeaveTopic{})
		return fmt.Sprintf("leave %d", tp)
	case 2:
		// The supervisor's ⊥ configuration grants a pending unsubscribe.
		deliver(supID, proto.SetData{Label: label.Bottom})
		return fmt.Sprintf("⊥ configuration %d", tp)
	default:
		c.OnTimeout(m.ctx)
		m.ctx.Take()
		return "timeout"
	}
}

// check fails unless Topics() is strictly ascending and equals the model's
// topics, and every topic looks up the instance the model holds.
func (m *topicModel) check(t *testing.T, where string) {
	t.Helper()
	got := m.c.Topics()
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("%s: topics %v out of order or duplicate", where, got)
		}
	}
	var want []sim.Topic
	for tp := range m.model {
		want = append(want, tp)
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: topics %v, model %v", where, got, want)
	}
	for b := 0; b < 9; b++ {
		tp := modelTopic(byte(b))
		in, ok := m.c.Instance(tp)
		sub, joined := m.model[tp]
		if ok != joined || ok && (in.Sub != sub || in.Sub.Topic() != tp) {
			t.Fatalf("%s: topic %d finds an instance: %v; model: %v", where, tp, ok, joined)
		}
	}
}

func TestClientTopicsMatchMapModel(t *testing.T) {
	rejoins := 0
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newTopicModel()
		for step := 0; step < 200; step++ {
			what := m.step(t, byte(rng.Intn(4)), byte(rng.Intn(9)))
			m.check(t, fmt.Sprintf("seed %d step %d (%s)", seed, step, what))
		}
		rejoins += m.rejoins
	}
	if rejoins == 0 {
		t.Fatal("no topic was re-joined after its departure")
	}
	t.Logf("%d re-joins after departure", rejoins)
}

// FuzzClientTopics reads its input as (op, topic) pairs.
func FuzzClientTopics(f *testing.F) {
	f.Add([]byte{0, 3, 0, 1, 0, 8, 0, 0, 3, 0})
	f.Add([]byte{0, 4, 1, 4, 2, 4, 0, 4, 3, 0, 0, 2})
	f.Add([]byte{0, 5, 0, 2, 1, 5, 3, 0, 2, 5, 1, 2, 2, 2, 0, 5, 0, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := newTopicModel()
		for i := 0; i+1 < len(ops); i += 2 {
			what := m.step(t, ops[i], ops[i+1])
			m.check(t, fmt.Sprintf("op %d (%s)", i/2, what))
		}
	})
}
