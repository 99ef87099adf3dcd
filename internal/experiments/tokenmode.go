package experiments

import (
	"sspubsub/internal/cluster"
	"sspubsub/internal/core"
	"sspubsub/internal/label"
	"sspubsub/internal/metrics"
	"sspubsub/internal/psim"
	"sspubsub/internal/sim"
	"sspubsub/internal/tokenring"
)

// A4TokenVsDatabase compares the paper's randomized database supervisor
// (Algorithm 3) with the deterministic token-passing variant of the
// conclusion, on the same join-burst workload: convergence time,
// steady-state supervisor traffic, and the supervisor's per-subscriber
// state (the token variant's selling point: O(1) instead of O(n)).
func A4TokenVsDatabase(n int, seed int64) *metrics.Table {
	tb := metrics.NewTable("supervisor", "n", "join-burst rounds", "steady sup msgs/round", "sup state", "randomized")

	// Database mode (the paper's main protocol).
	c := cluster.NewSim(cluster.Options{Seed: seed})
	c.AddClients(n)
	c.JoinAll(Topic)
	dbRounds, ok := c.RunUntilConverged(Topic, n, 20000)
	if !ok {
		dbRounds = -1
	}
	c.ResetCounters()
	c.RunRounds(300)
	dbRate := float64(c.SentBy(cluster.SupervisorID)) / 300
	tb.AddRow("database (Alg. 3)", n, dbRounds, dbRate, "O(n) tuples", "yes (probes)")

	// Token mode (conclusion's future work).
	sched := psim.New(psim.Options{Seed: seed, Workers: 1})
	sup := tokenring.NewSupervisor(1)
	sched.AddNode(1, sup)
	nodes := map[sim.NodeID]*tokenring.Node{}
	for i := 0; i < n; i++ {
		id := sim.NodeID(i + 2)
		cl := core.NewClient(id, 1, core.Options{
			DisableActionIV: true,
			ProbeProb:       func(int) float64 { return 0 },
		})
		nd := tokenring.NewNode(cl, 1)
		nodes[id] = nd
		sched.AddNode(id, nd)
	}
	for id := range nodes {
		sched.Send(sim.Message{To: id, From: id, Topic: Topic, Body: core.JoinTopic{}})
	}
	legit := func() bool {
		states := make(map[sim.NodeID]core.State, n)
		db := make(map[label.Label]sim.NodeID, n)
		for id, nd := range nodes {
			if !nd.Client.Joined(Topic) {
				return false
			}
			st, _ := nd.Client.StateOf(Topic)
			states[id] = st
			if !st.Label.IsBottom() {
				db[st.Label] = id
			}
		}
		return len(db) == n && cluster.CheckLegitimacy(db, states) == ""
	}
	tokRounds, ok := sched.RunRoundsUntil(20000, legit)
	if !ok {
		tokRounds = -1
	}
	sched.ResetCounters()
	sched.RunRounds(300)
	tokRate := float64(sched.SentBy(1)) / 300
	tb.AddRow("token ring (concl.)", n, tokRounds, tokRate, "O(1) steady", "no")
	return tb
}
