package tokenring

import (
	"fmt"
	"sort"

	"sspubsub/internal/cluster"
	"sspubsub/internal/core"
	"sspubsub/internal/label"
	"sspubsub/internal/sim"
)

// Stack is the token-mode system on a transport: the token-passing
// supervisor at cluster.SupervisorID and wrapped clients at the IDs after
// it. Token mode is the fully deterministic variant, so the clients'
// randomized machinery is off: label refresh comes from the circulating
// token, not from database probes.
type Stack struct {
	tr    sim.Transport
	Sup   *Supervisor
	Nodes map[sim.NodeID]*Node
	next  sim.NodeID
}

// NewStack registers the supervisor and n nodes on tr.
func NewStack(tr sim.Transport, n int) *Stack {
	s := &Stack{
		tr:    tr,
		Sup:   NewSupervisor(cluster.SupervisorID),
		Nodes: make(map[sim.NodeID]*Node, n),
		next:  cluster.SupervisorID + 1,
	}
	tr.AddNode(cluster.SupervisorID, s.Sup)
	for i := 0; i < n; i++ {
		s.AddNode()
	}
	return s
}

// AddNode registers one more node, at the next free ID, and returns the ID.
func (s *Stack) AddNode() sim.NodeID {
	id := s.next
	s.next++
	cl := core.NewClient(id, cluster.SupervisorID, core.Options{
		DisableActionIV: true,
		ProbeProb:       func(int) float64 { return 0 },
	})
	nd := NewNode(cl, cluster.SupervisorID)
	s.Nodes[id] = nd
	s.tr.AddNode(id, nd)
	return id
}

// IDs returns the node IDs, ascending.
func (s *Stack) IDs() []sim.NodeID {
	ids := make([]sim.NodeID, 0, len(s.Nodes))
	for id := range s.Nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// JoinAll subscribes every node to the topic, in ID order — the order the
// commands are sent in is part of a deterministic run.
func (s *Stack) JoinAll(t sim.Topic) {
	for _, id := range s.IDs() {
		s.tr.Send(sim.Message{To: id, From: id, Topic: t, Body: core.JoinTopic{}})
	}
}

// Explain checks the joined nodes' states against the unique legitimate
// skip ring over them. The token supervisor stores no database, so the one
// the legitimacy predicate compares against is derived from the labels the
// nodes hold. It returns the number of joined nodes and the first
// violation, "" when they form a legitimate ring.
func (s *Stack) Explain(t sim.Topic) (members int, violation string) {
	states := make(map[sim.NodeID]core.State, len(s.Nodes))
	db := make(map[label.Label]sim.NodeID, len(s.Nodes))
	for id, nd := range s.Nodes {
		if !nd.Client.Joined(t) {
			continue
		}
		st, _ := nd.Client.StateOf(t)
		states[id] = st
		if !st.Label.IsBottom() {
			db[st.Label] = id
		}
	}
	if len(db) != len(states) {
		return len(states), fmt.Sprintf("%d distinct labels over %d members", len(db), len(states))
	}
	return len(states), cluster.CheckLegitimacy(db, states)
}
