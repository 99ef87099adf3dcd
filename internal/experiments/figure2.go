package experiments

import (
	"fmt"
	"strings"

	"sspubsub/internal/proto"
	"sspubsub/internal/pubsub"
	"sspubsub/internal/sim"
	"sspubsub/internal/simtest"
	"sspubsub/internal/trie"
)

// E9Result carries the Figure 2 reconstruction: the two tries, the message
// trace of both probe directions, and whether P4 was delivered.
type E9Result struct {
	TrieU       string
	TrieV       string
	TraceUtoV   []string
	TraceVtoU   []string
	P4Delivered bool
	TriesEqual  bool
}

// E9Figure2 re-enacts the running example of Section 4.2 (Figure 2):
// subscriber u stores P1=000, P2=010, P3=100, P4=101; subscriber v lacks
// P4. Probing u→v ends after one reply; probing v→u walks down to the
// missing node "10", requests prefix 101 via CheckAndPublish, and u
// delivers P4.
func E9Figure2() E9Result {
	mk := func(self, peer sim.NodeID) *pubsub.Engine {
		return pubsub.NewEngine(pubsub.Config{
			Self: self, Topic: Topic, KeyLen: 3,
			RingNeighbors: func() []proto.Tuple { return []proto.Tuple{{Ref: peer}} },
		})
	}
	u, v := mk(10, 11), mk(11, 10)
	uc, vc := simtest.NewCtx(10), simtest.NewCtx(11)
	seed := func(e *pubsub.Engine, keys ...string) {
		for _, k := range keys {
			e.OnMessage(simtest.NewCtx(99), sim.Message{From: 99, Topic: Topic, Body: proto.PublishBatch{
				Pubs: []proto.Publication{{Key: trie.ParseKey(k), Origin: 1, Payload: "P" + k}},
			}})
		}
	}
	seed(u, "000", "010", "100", "101")
	seed(v, "000", "010", "100")

	res := E9Result{TrieU: u.Trie().Dump(), TrieV: v.Trie().Dump()}

	run := func(first sim.Message) []string {
		var trace []string
		inbox := []sim.Message{first}
		for len(inbox) > 0 {
			m := inbox[0]
			inbox = inbox[1:]
			trace = append(trace, describe(m))
			switch m.To {
			case 10:
				u.OnMessage(uc, m)
				inbox = append(inbox, uc.Take()...)
			case 11:
				v.OnMessage(vc, m)
				inbox = append(inbox, vc.Take()...)
			}
		}
		return trace
	}

	rootU, _ := u.Trie().RootSummary()
	res.TraceUtoV = run(sim.Message{From: 10, To: 11, Topic: Topic,
		Body: proto.CheckTrie{Sender: 10, Nodes: []proto.NodeSummary{rootU}}})
	rootV, _ := v.Trie().RootSummary()
	res.TraceVtoU = run(sim.Message{From: 11, To: 10, Topic: Topic,
		Body: proto.CheckTrie{Sender: 11, Nodes: []proto.NodeSummary{rootV}}})

	_, res.P4Delivered = v.Trie().Get(trie.ParseKey("101"))
	res.TriesEqual = u.Trie().Equal(v.Trie())
	return res
}

func describe(m sim.Message) string {
	who := func(id sim.NodeID) string {
		if id == 10 {
			return "u"
		}
		return "v"
	}
	switch b := m.Body.(type) {
	case proto.CheckTrie:
		var labs []string
		for _, ns := range b.Nodes {
			labs = append(labs, trie.KeyString(ns.Label))
		}
		return fmt.Sprintf("%s→%s CheckTrie(%s)", who(m.From), who(m.To), strings.Join(labs, ", "))
	case proto.CheckAndPublish:
		var labs []string
		for _, ns := range b.Nodes {
			labs = append(labs, trie.KeyString(ns.Label))
		}
		return fmt.Sprintf("%s→%s CheckAndPublish(nodes=[%s], p=%s)",
			who(m.From), who(m.To), strings.Join(labs, ", "), trie.KeyString(b.Prefix))
	case proto.PublishBatch:
		var ps []string
		for _, p := range b.Pubs {
			ps = append(ps, p.Payload)
		}
		return fmt.Sprintf("%s→%s Publish(%s)", who(m.From), who(m.To), strings.Join(ps, ", "))
	default:
		return fmt.Sprintf("%s→%s %T", who(m.From), who(m.To), m.Body)
	}
}
