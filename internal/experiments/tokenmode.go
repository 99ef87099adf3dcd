package experiments

import (
	"sspubsub/internal/cluster"
	"sspubsub/internal/metrics"
	"sspubsub/internal/psim"
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
	tok := tokenring.NewStack(sched, n)
	tok.JoinAll(Topic)
	tokRounds, ok := sched.RunRoundsUntil(20000, func() bool {
		joined, violation := tok.Explain(Topic)
		return joined == n && violation == ""
	})
	if !ok {
		tokRounds = -1
	}
	sched.ResetCounters()
	sched.RunRounds(300)
	tokRate := float64(sched.SentBy(cluster.SupervisorID)) / 300
	tb.AddRow("token ring (concl.)", n, tokRounds, tokRate, "O(1) steady", "no")
	return tb
}
