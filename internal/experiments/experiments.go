// Package experiments reproduces every quantitative artifact of the paper
// (figures, lemmas, theorems and comparative claims) as measurable
// experiments over the real protocol stack: E1–E14 and the ablations
// A1–A3. Each experiment returns both a rendered table and structured
// results the tests assert on; Report prints the tables (cmd/experiments
// is its command line), and testdata/quick.golden pins the -quick pass
// byte for byte.
package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"sspubsub/internal/baseline"
	"sspubsub/internal/cluster"
	"sspubsub/internal/core"
	"sspubsub/internal/label"
	"sspubsub/internal/metrics"
	"sspubsub/internal/psim"
	"sspubsub/internal/sim"
	"sspubsub/internal/topology"
)

// Topic is the single topic used by the dynamic experiments.
const Topic sim.Topic = 1

// ---- E1: Figure 1 — the SR(16) topology ----

// E1Result carries the SR(16) construction.
type E1Result struct {
	Triples *metrics.Table // (x, l(x), r(l(x))) as printed in Figure 1
	Edges   *metrics.Table // edge census by level
	ByLevel map[uint8]int
}

// E1Figure1 reconstructs Figure 1: the sixteen label triples and the edge
// sets per level (16 ring, 8 green, 4 red, 1 blue).
func E1Figure1() E1Result {
	r := topology.New(16)
	triples := metrics.NewTable("x", "l(x)", "r(l(x))")
	for x := 0; x < 16; x++ {
		l := r.Label(x)
		triples.AddRow(x, l.String(), fmt.Sprintf("%d/16", int(l.Real()*16)))
	}
	byLevel := map[uint8]int{}
	for _, lvl := range r.Edges() {
		byLevel[lvl]++
	}
	edges := metrics.NewTable("level", "edges", "paper (Figure 1)")
	paper := map[uint8]string{4: "16 ring (black)", 3: "8 shortcuts (green)", 2: "4 shortcuts (red)", 1: "1 shortcut (blue)"}
	for lvl := uint8(4); lvl >= 1; lvl-- {
		edges.AddRow(int(lvl), byLevel[lvl], paper[lvl])
	}
	return E1Result{Triples: triples, Edges: edges, ByLevel: byLevel}
}

// ---- E2: Lemma 3 — degree and edge-count bounds ----

// E2Row is one measured size.
type E2Row struct {
	N             int
	MaxDegree     int
	Bound         int // 2·⌈log n⌉ (Lemma 3's worst case)
	AvgDegree     float64
	DirectedEdges int
	Paper4N4      int
	Diameter      int
	CeilLogN      int
}

// E2Degree measures Lemma 3 over a size sweep.
func E2Degree(ns []int) ([]E2Row, *metrics.Table) {
	tb := metrics.NewTable("n", "max deg", "2·⌈log n⌉", "avg deg", "|E| directed", "paper 4n−4", "diameter", "⌈log n⌉")
	var rows []E2Row
	for _, n := range ns {
		r := topology.New(n)
		st := r.Stats()
		logn := int(math.Ceil(math.Log2(float64(n))))
		row := E2Row{
			N: n, MaxDegree: st.MaxDegree, Bound: 2 * logn,
			AvgDegree: st.AvgDegree, DirectedEdges: st.Directed,
			Paper4N4: st.PaperDirected, Diameter: r.Diameter(), CeilLogN: logn,
		}
		rows = append(rows, row)
		tb.AddRow(n, row.MaxDegree, row.Bound, row.AvgDegree, row.DirectedEdges, row.Paper4N4, row.Diameter, logn)
	}
	return rows, tb
}

// ---- E3: Theorem 5 — configuration-request rate in a legitimate state ----

// E3Row is one measured size.
type E3Row struct {
	N         int
	Rounds    int
	Requests  int64
	PerRound  float64
	Predicted float64 // Σ_k f(k)/(2^k·k²) with f(1)=2, f(k)=2^{k−1}
}

// E3ConfigRate converges a ring of each size, then counts GetConfiguration
// messages per timeout interval over a long steady-state window.
func E3ConfigRate(ns []int, rounds int, seed int64) ([]E3Row, *metrics.Table) {
	tb := metrics.NewTable("n", "rounds", "requests", "per round", "predicted Σ", "paper claim")
	var rows []E3Row
	for _, n := range ns {
		c := mustConverge(n, seed+int64(n))
		c.ResetCounters()
		c.RunRounds(rounds)
		req := c.CountByType("proto.GetConfiguration")
		row := E3Row{
			N: n, Rounds: rounds, Requests: req,
			PerRound:  float64(req) / float64(rounds),
			Predicted: predictedRate(n),
		}
		rows = append(rows, row)
		tb.AddRow(n, rounds, req, row.PerRound, row.Predicted, "< 1 (Thm 5)")
	}
	return rows, tb
}

// predictedRate computes Σ over label lengths of f(k)·1/(2^k·k²) for the
// actual label population of SR(n): f(1)=2 and f(k)=2^{k−1} (truncated at
// the partially-filled top level). The paper's Theorem 5 uses f(k)=2^{k−1}
// for all k and reports < 1; with the real f(1)=2 the exact expectation is
// ≈ 1.07 — same O(1) shape (E3's "predicted Σ" column in
// testdata/quick.golden).
func predictedRate(n int) float64 {
	counts := map[int]int{}
	r := topology.New(n)
	for x := 0; x < n; x++ {
		counts[int(r.Label(x).Len)]++
	}
	sum := 0.0
	for k, f := range counts {
		sum += float64(f) / (math.Pow(2, float64(k)) * float64(k) * float64(k))
	}
	return sum
}

// ---- E4: Theorem 7 — subscribe/unsubscribe message overhead ----

// E4Result aggregates the per-operation supervisor message counts.
type E4Result struct {
	N                 int
	Joins             int
	SupMsgsPerJoin    float64
	Leaves            int
	SupMsgsPerLeave   float64
	SubscriberPerJoin float64 // messages sent by the joiner until converged
}

// E4Overhead joins and removes nodes one at a time from a legitimate state
// and counts the supervisor's *marginal* messages per operation: total
// supervisor sends during the operation window minus the steady-state
// background (one round-robin refresh per round plus replies to the
// Theorem-5 probes), measured on the same cluster beforehand.
func E4Overhead(n, ops int, seed int64) (E4Result, *metrics.Table) {
	c := mustConverge(n, seed)
	res := E4Result{N: n, Joins: ops, Leaves: ops}

	// Background supervisor rate per round in the legitimate state.
	const bgWindow = 300
	startSends := c.SentBy(cluster.SupervisorID)
	startNow := c.Now()
	c.RunRounds(bgWindow)
	bgRate := float64(c.SentBy(cluster.SupervisorID)-startSends) / (c.Now() - startNow)

	marginal := func(op func() (newN int)) float64 {
		var total float64
		for i := 0; i < ops; i++ {
			before := c.SentBy(cluster.SupervisorID)
			beforeNow := c.Now()
			newN := op()
			if _, ok := c.RunUntilConverged(Topic, newN, 2000); !ok {
				return -1
			}
			sends := float64(c.SentBy(cluster.SupervisorID) - before)
			// float64(…) rounds the product: arm64 would otherwise fuse it
			// into the subtraction and print a different table.
			total += sends - float64(bgRate*(c.Now()-beforeNow))
		}
		return total / float64(ops)
	}

	cur := n
	var joiners []sim.NodeID
	res.SupMsgsPerJoin = marginal(func() int {
		id := c.AddClient()
		joiners = append(joiners, id)
		c.Join(id, Topic)
		cur++
		return cur
	})
	var subJoin int64
	for _, id := range joiners {
		subJoin += c.SentBy(id)
	}
	// Joiner messages include their share of steady-state maintenance after
	// integration; still O(1) per op at this scale.
	res.SubscriberPerJoin = float64(subJoin) / float64(ops)
	res.SupMsgsPerLeave = marginal(func() int {
		members := c.Members(Topic)
		c.Leave(members[cur%len(members)], Topic)
		cur--
		return cur
	})
	tb := metrics.NewTable("op", "count", "supervisor msgs/op (marginal)", "paper claim")
	tb.AddRow("subscribe", ops, res.SupMsgsPerJoin, "O(1) (Thm 7)")
	tb.AddRow("unsubscribe", ops, res.SupMsgsPerLeave, "O(1) (Thm 7)")
	return res, tb
}

// ---- E5: Theorem 8 — convergence from arbitrary initial states ----

// E5Scenario names an initial-state generator.
type E5Scenario string

// The five initial-state families of the convergence experiment.
const (
	ScenarioFresh      E5Scenario = "fresh-join-burst"
	ScenarioCorrupt    E5Scenario = "corrupted-states"
	ScenarioPartition  E5Scenario = "partitioned"
	ScenarioBadDB      E5Scenario = "corrupted-database"
	ScenarioGarbageMsg E5Scenario = "garbage-channels"
)

// allScenarios lists the E5 initial states in presentation order.
var allScenarios = []E5Scenario{ScenarioFresh, ScenarioCorrupt, ScenarioPartition, ScenarioBadDB, ScenarioGarbageMsg}

// E5Row is one (scenario, n) measurement averaged over seeds.
type E5Row struct {
	Scenario  E5Scenario
	N         int
	Seeds     int
	AvgRounds float64
	MaxRounds int
	Failures  int
}

// e5TailSeeds is the least number of seeds a corrupted-database row runs.
// Its injected duplicate once waited for the duplicated subscriber's own
// request, a tail of up to 9,683 rounds at n = 64 that a 2-seed mean hid;
// the max column over 20 seeds shows such a tail.
const e5TailSeeds = 20

// E5Convergence measures rounds-to-legitimacy per scenario and size, over
// seeds seeds per row (at least e5TailSeeds for corrupted-database).
func E5Convergence(ns []int, seeds int, base int64) ([]E5Row, *metrics.Table) {
	tb := metrics.NewTable("scenario", "n", "seeds", "avg rounds", "max rounds", "failures")
	var rows []E5Row
	for _, sc := range allScenarios {
		k := seeds
		if sc == ScenarioBadDB {
			k = max(seeds, e5TailSeeds)
		}
		for _, n := range ns {
			row := E5Row{Scenario: sc, N: n, Seeds: k}
			total := 0
			for s := 0; s < k; s++ {
				rounds, ok := runScenario(sc, n, base+int64(s)+int64(n)*31)
				if !ok {
					row.Failures++
					continue
				}
				total += rounds
				if rounds > row.MaxRounds {
					row.MaxRounds = rounds
				}
			}
			if k > row.Failures {
				row.AvgRounds = float64(total) / float64(k-row.Failures)
			}
			rows = append(rows, row)
			tb.AddRow(string(sc), n, k, row.AvgRounds, row.MaxRounds, row.Failures)
		}
	}
	return rows, tb
}

func runScenario(sc E5Scenario, n int, seed int64) (int, bool) {
	if sc == ScenarioFresh {
		c := cluster.NewSim(cluster.Options{Seed: seed})
		c.AddClients(n)
		c.JoinAll(Topic)
		return c.RunUntilConverged(Topic, n, 5000)
	}
	c := mustConverge(n, seed)
	spent := inject(c, sc, n, seed)
	rounds, ok := c.RunUntilConverged(Topic, n, 20000)
	return spent + rounds, ok
}

// inject puts scenario sc's fault into the converged cluster c and returns
// the rounds it spent doing so. State corruption is instantaneous; garbage
// is spread over the following round, so that round runs (and counts)
// before anybody asks whether the system is legitimate — polled at once,
// the predicate would see the state from before the garbage landed.
func inject(c *cluster.Live, sc E5Scenario, n int, seed int64) int {
	switch sc {
	case ScenarioCorrupt:
		c.CorruptSubscriberStates(Topic, c.Rand())
	case ScenarioPartition:
		c.PartitionStates(Topic, 2+int(seed%3))
	case ScenarioBadDB:
		c.CorruptSupervisorDB(Topic, c.Rand())
	case ScenarioGarbageMsg:
		c.SendGarbageMessages(Topic, 5*n, c.Rand())
		c.RunRounds(1)
		return 1
	}
	return 0
}

// ---- E6: Theorem 13 — closure and steady-state maintenance cost ----

// E6Result aggregates the closure experiment.
type E6Result struct {
	N               int
	Rounds          int
	Mutations       int // explicit-state changes after convergence (must be 0)
	MsgsPerNodeRnd  float64
	SupMsgsPerRound float64
}

// E6Closure verifies that a converged system never mutates explicit state
// and measures the steady-state message rate per node per round.
func E6Closure(n, rounds int, seed int64) (E6Result, *metrics.Table) {
	c := mustConverge(n, seed)
	versions := map[sim.NodeID]uint64{}
	for id, cl := range c.Clients {
		st, _ := cl.StateOf(Topic)
		versions[id] = st.Version
	}
	c.ResetCounters()
	c.RunRounds(rounds)
	res := E6Result{N: n, Rounds: rounds}
	for id, cl := range c.Clients {
		st, _ := cl.StateOf(Topic)
		res.Mutations += int(st.Version - versions[id])
	}
	res.MsgsPerNodeRnd = float64(c.Delivered()) / float64(rounds) / float64(n)
	res.SupMsgsPerRound = float64(c.SentBy(cluster.SupervisorID)) / float64(rounds)
	tb := metrics.NewTable("n", "rounds", "state mutations", "msgs/node/round", "supervisor msgs/round")
	tb.AddRow(n, rounds, res.Mutations, res.MsgsPerNodeRnd, res.SupMsgsPerRound)
	return res, tb
}

// ---- E7: Theorem 17 — publication convergence via anti-entropy ----

// E7Row is one (n, pubs) measurement.
type E7Row struct {
	N      int
	Pubs   int
	Rounds int
	OK     bool
}

// E7PublicationConvergence seeds publications at random members with
// flooding disabled and measures rounds until all tries are hash-equal.
func E7PublicationConvergence(ns []int, pubs int, seed int64) ([]E7Row, *metrics.Table) {
	tb := metrics.NewTable("n", "publications", "rounds to equal tries", "converged")
	var rows []E7Row
	for _, n := range ns {
		c := cluster.NewSim(cluster.Options{
			Seed:       seed + int64(n),
			ClientOpts: core.Options{DisableFlooding: true},
		})
		c.AddClients(n)
		c.JoinAll(Topic)
		if _, ok := c.RunUntilConverged(Topic, n, 2000); !ok {
			rows = append(rows, E7Row{N: n, Pubs: pubs})
			tb.AddRow(n, pubs, -1, false)
			continue
		}
		members := c.Members(Topic)
		rng := c.Rand()
		for i := 0; i < pubs; i++ {
			c.Publish(members[rng.Intn(len(members))], Topic, fmt.Sprintf("pub-%d", i))
		}
		rounds, ok := c.RunUntil(20000, func() bool {
			return c.AllHavePubs(Topic, pubs) && c.TriesEqual(Topic)
		})
		rows = append(rows, E7Row{N: n, Pubs: pubs, Rounds: rounds, OK: ok})
		tb.AddRow(n, pubs, rounds, ok)
	}
	return rows, tb
}

// ---- E8: Section 4.3 — flooding delivery hops vs ring-only routing ----

// E8Row is one size point.
type E8Row struct {
	N            int
	SkipRingHops int
	TreeHops     int // deepest forwarding tree over all origins, live overlay
	CeilLogN     int
	RingHops     int
	LiveRounds   int // rounds until all members hold a fresh publication
}

// E8Flooding compares worst-case delivery hops on the static graphs — BFS
// flooding, against the deepest per-origin forwarding tree the converged
// live overlay actually uses — and measures live flooding latency in
// protocol rounds.
func E8Flooding(ns []int, seed int64) ([]E8Row, *metrics.Table) {
	tb := metrics.NewTable("n", "skip-ring hops", "tree hops", "⌈log n⌉+1", "ring-only hops", "live rounds")
	var rows []E8Row
	for _, n := range ns {
		sr := baseline.NewSkipRing(n)
		hist := baseline.FloodHops(sr, 0)
		ring := baseline.NewRing(n)
		rhist := baseline.FloodHops(ring, 0)
		row := E8Row{
			N:            n,
			SkipRingHops: len(hist) - 1,
			CeilLogN:     int(math.Ceil(math.Log2(float64(n)))) + 1,
			RingHops:     len(rhist) - 1,
		}
		// Live: publish once in a converged system, count rounds to full
		// dissemination (flooding enabled, anti-entropy disabled so the
		// measurement isolates PublishNew).
		c := cluster.NewSim(cluster.Options{
			Seed:       seed + int64(n),
			ClientOpts: core.Options{DisableAntiEntropy: true},
		})
		c.AddClients(n)
		c.JoinAll(Topic)
		if _, ok := c.RunUntilConverged(Topic, n, 2000); ok {
			members := c.Members(Topic)
			for _, origin := range members {
				_, depth := c.FloodTree(Topic, origin)
				row.TreeHops = max(row.TreeHops, depth)
			}
			c.Publish(members[0], Topic, "flood")
			rounds, _ := c.RunUntil(200, func() bool { return c.AllHavePubs(Topic, 1) })
			row.LiveRounds = rounds
		}
		rows = append(rows, row)
		tb.AddRow(n, row.SkipRingHops, row.TreeHops, row.CeilLogN, row.RingHops, row.LiveRounds)
	}
	return rows, tb
}

// ---- E10: Section 1.3 — balance against Chord and skip graphs ----

// E10Result carries the two balance tables.
type E10Result struct {
	Position *metrics.Table
	Degrees  *metrics.Table
}

// E10Balance measures (a) position balance — the literal claim — and (b)
// degree statistics.
func E10Balance(n, keys int, seed int64) E10Result {
	rng := rand.New(rand.NewSource(seed))
	sr := baseline.NewSkipRing(n)
	ch := baseline.NewChord(n, rng)
	sg := baseline.NewSkipGraph(n, rng)
	ro := baseline.NewRing(n)

	pos := metrics.NewTable("overlay", "max/avg key load", "max gap (× uniform)")
	srp := baseline.KeyLoad("skip-ring", sr.Positions(), keys, rand.New(rand.NewSource(seed)))
	chp := baseline.KeyLoad("chord", ch.Positions(), keys, rand.New(rand.NewSource(seed)))
	pos.AddRow(srp.Overlay, srp.MaxOverAvg, srp.MaxGap)
	pos.AddRow(chp.Overlay, chp.MaxOverAvg, chp.MaxGap)

	deg := metrics.NewTable("overlay", "max degree", "avg degree", "p99", "stddev")
	for _, o := range []baseline.Overlay{sr, ch, sg, ro} {
		b := baseline.Balance(o)
		deg.AddRow(b.Overlay, b.MaxDegree, b.AvgDegree, b.P99, b.StdDev)
	}
	return E10Result{Position: pos, Degrees: deg}
}

// ---- E11: Section 4.1 — join locality ----

// E11Result aggregates the doubling experiment.
type E11Result struct {
	StartN           int
	Joins            int
	AvgConfigChanges float64 // per pre-existing node over the doubling
	MaxConfigChanges int
}

// E11JoinLocality doubles the ring size one join at a time and counts, per
// pre-existing subscriber, how many joins changed its configuration
// (label, left, right or ring — not shortcuts). The paper predicts exactly
// 2 per doubling ("a pre-existing subscriber is involved only for two
// consecutive subscribe operations").
func E11JoinLocality(startN int, seed int64) (E11Result, *metrics.Table) {
	c := mustConverge(startN, seed)
	type cfg struct {
		lab               string
		left, right, ring sim.NodeID
	}
	snap := func(id sim.NodeID) cfg {
		st, _ := c.Clients[id].StateOf(Topic)
		return cfg{st.Label.String(), st.Left.Ref, st.Right.Ref, st.Ring.Ref}
	}
	pre := c.Members(Topic)
	last := map[sim.NodeID]cfg{}
	changes := map[sim.NodeID]int{}
	for _, id := range pre {
		last[id] = snap(id)
	}
	cur := startN
	for i := 0; i < startN; i++ {
		id := c.AddClient()
		c.Join(id, Topic)
		cur++
		if _, ok := c.RunUntilConverged(Topic, cur, 2000); !ok {
			break
		}
		for _, p := range pre {
			if now := snap(p); now != last[p] {
				changes[p]++
				last[p] = now
			}
		}
	}
	res := E11Result{StartN: startN, Joins: startN}
	total := 0
	for _, p := range pre {
		total += changes[p]
		if changes[p] > res.MaxConfigChanges {
			res.MaxConfigChanges = changes[p]
		}
	}
	res.AvgConfigChanges = float64(total) / float64(len(pre))
	tb := metrics.NewTable("start n", "joins", "avg config changes/node", "max", "paper")
	tb.AddRow(startN, startN, res.AvgConfigChanges, res.MaxConfigChanges, "2 per doubling")
	return res, tb
}

// ---- E12: Section 3.3 — crash recovery ----

// E12Row is one crash fraction.
type E12Row struct {
	N       int
	Crashed int
	Rounds  int
	OK      bool
}

// E12CrashRecovery crashes a fraction of a converged ring and measures the
// rounds until the survivors form the legitimate SR(n−f).
func E12CrashRecovery(n int, fracs []float64, seed int64) ([]E12Row, *metrics.Table) {
	tb := metrics.NewTable("n", "crashed", "rounds to re-converge", "ok")
	var rows []E12Row
	for _, f := range fracs {
		c, crash := crashConverged(n, f, seed)
		rounds, ok := c.RunUntilConverged(Topic, n-crash, 20000)
		rows = append(rows, E12Row{N: n, Crashed: crash, Rounds: rounds, OK: ok})
		tb.AddRow(n, crash, rounds, ok)
	}
	return rows, tb
}

// crashConverged converges an n-node ring and crashes the fraction f of it
// without warning — evenly spaced members — returning the cluster and the
// number crashed. The seed is offset by f, so each fraction is its own run.
func crashConverged(n int, f float64, seed int64) (*cluster.Live, int) {
	c := mustConverge(n, seed+int64(f*100))
	members := c.Members(Topic)
	crash := int(f * float64(n))
	for i := 0; i < crash; i++ {
		c.Crash(members[i*len(members)/max(crash, 1)])
	}
	return c, crash
}

// ---- E13: supervisor load vs centralized broker ----

// E13Result compares central-component load for the same workload.
type E13Result struct {
	N                int
	Pubs             int
	SupervisorMsgs   int64 // messages sent by the supervisor
	BrokerMsgs       int64 // messages sent by the broker
	SupPerPublish    float64
	BrokerPerPublish float64
}

// E13SupervisorVsBroker runs the same subscribe-then-publish workload on
// both architectures and compares the central component's message count.
func E13SupervisorVsBroker(n, pubs int, seed int64) (E13Result, *metrics.Table) {
	// Supervised system.
	c := mustConverge(n, seed)
	c.ResetCounters()
	members := c.Members(Topic)
	rng := c.Rand()
	for i := 0; i < pubs; i++ {
		c.Publish(members[rng.Intn(len(members))], Topic, fmt.Sprintf("p%d", i))
	}
	c.RunUntil(2000, func() bool { return c.AllHavePubs(Topic, pubs) })
	supMsgs := c.SentBy(cluster.SupervisorID)

	// Broker system.
	s := psim.New(psim.Options{Seed: seed, Workers: 1})
	broker := baseline.NewBroker()
	s.AddNode(1, broker)
	for i := 0; i < n; i++ {
		s.AddNode(sim.NodeID(i+2), &baseline.BrokerClient{})
		s.Send(sim.Message{To: 1, From: sim.NodeID(i + 2), Topic: Topic, Body: baseline.BSubscribe{}})
	}
	s.RunRounds(2)
	s.ResetCounters()
	for i := 0; i < pubs; i++ {
		pub := sim.NodeID(s.Rand().Intn(n) + 2)
		s.Send(sim.Message{To: 1, From: pub, Topic: Topic, Body: baseline.BPublish{Payload: fmt.Sprintf("p%d", i)}})
	}
	s.RunRounds(3)
	brokerMsgs := s.SentBy(1)

	res := E13Result{
		N: n, Pubs: pubs,
		SupervisorMsgs: supMsgs, BrokerMsgs: brokerMsgs,
		SupPerPublish:    float64(supMsgs) / float64(pubs),
		BrokerPerPublish: float64(brokerMsgs) / float64(pubs),
	}
	tb := metrics.NewTable("architecture", "central msgs total", "central msgs/publish", "expected")
	tb.AddRow("supervised skip ring", supMsgs, res.SupPerPublish, "O(1)/round, 0/publish")
	tb.AddRow("central broker", brokerMsgs, res.BrokerPerPublish, "Θ(n)/publish")
	return res, tb
}

// ---- E14: Theorem 13 — which rule does the work ----

// E14Result holds each subscriber rule's firings over E14's two windows and
// the node-rounds each window spans.
type E14Result struct {
	Rest, Crash                     [core.NumRules]uint64
	RestNodeRounds, CrashNodeRounds int
}

// E14RuleRates counts every subscriber rule's firings (core.Rule) per node
// per round over two windows: (i) rounds at rest in E6's legitimate n-node
// state, and (ii) the crashRounds after E12's first row — the crash of an
// eighth of crashN nodes, with E12's seed and victims.
func E14RuleRates(n, rounds, crashN, crashRounds int, seed int64) (E14Result, *metrics.Table) {
	window := func(c *cluster.Live, rounds int) [core.NumRules]uint64 {
		before := c.RuleCounts(Topic)
		c.RunRounds(rounds)
		after := c.RuleCounts(Topic)
		for r := range after {
			after[r] -= before[r]
		}
		return after
	}
	res := E14Result{RestNodeRounds: n * rounds}
	res.Rest = window(mustConverge(n, seed), rounds)
	c, crashed := crashConverged(crashN, 0.125, seed)
	res.Crash = window(c, crashRounds)
	res.CrashNodeRounds = (crashN - crashed) * crashRounds

	tb := metrics.NewTable("rule",
		fmt.Sprintf("at rest, n=%d", n), "per node·round",
		fmt.Sprintf("after crash %d/%d", crashed, crashN), "per node·round")
	for r := core.Rule(0); r < core.NumRules; r++ {
		tb.AddRow(r.String(),
			res.Rest[r], float64(res.Rest[r])/float64(res.RestNodeRounds),
			res.Crash[r], float64(res.Crash[r])/float64(res.CrashNodeRounds))
	}
	return res, tb
}

// ---- ablations ----

// AblationActionIV compares convergence from partitioned states with and
// without the locally-minimal probe (action (iv)).
func AblationActionIV(n, seeds int, base int64) *metrics.Table {
	tb := metrics.NewTable("action (iv)", "n", "avg rounds", "max", "failures (cap 20000)")
	for _, disable := range []bool{false, true} {
		total, maxR, fail := 0, 0, 0
		for s := 0; s < seeds; s++ {
			c := cluster.NewSim(cluster.Options{
				Seed:       base + int64(s),
				ClientOpts: core.Options{DisableActionIV: disable},
			})
			c.AddClients(n)
			c.JoinAll(Topic)
			if _, ok := c.RunUntilConverged(Topic, n, 2000); !ok {
				fail++
				continue
			}
			c.PartitionStates(Topic, 2)
			rounds, ok := c.RunUntilConverged(Topic, n, 20000)
			if !ok {
				fail++
				continue
			}
			total += rounds
			if rounds > maxR {
				maxR = rounds
			}
		}
		avg := 0.0
		if seeds > fail {
			avg = float64(total) / float64(seeds-fail)
		}
		name := "enabled"
		if disable {
			name = "disabled"
		}
		tb.AddRow(name, n, avg, maxR, fail)
	}
	return tb
}

// AblationFlooding compares delivery latency (rounds until everyone holds a
// fresh publication) with flooding on versus anti-entropy only.
func AblationFlooding(n int, seed int64) *metrics.Table {
	tb := metrics.NewTable("mechanism", "n", "rounds to full delivery")
	for _, mode := range []string{"flooding+anti-entropy", "anti-entropy only"} {
		c := cluster.NewSim(cluster.Options{
			Seed:       seed,
			ClientOpts: core.Options{DisableFlooding: mode == "anti-entropy only"},
		})
		c.AddClients(n)
		c.JoinAll(Topic)
		if _, ok := c.RunUntilConverged(Topic, n, 2000); !ok {
			tb.AddRow(mode, n, -1)
			continue
		}
		c.Publish(c.Members(Topic)[0], Topic, "x")
		rounds, _ := c.RunUntil(20000, func() bool { return c.AllHavePubs(Topic, 1) })
		tb.AddRow(mode, n, rounds)
	}
	return tb
}

// AblationProbeSchedule compares the paper's 1/(2^k·k²) probe schedule
// against a naive constant schedule: steady-state supervisor load versus
// re-integration speed of one silently deleted database entry.
func AblationProbeSchedule(n int, seed int64) *metrics.Table {
	tb := metrics.NewTable("schedule", "n", "requests/round (steady)", "rounds to re-record")
	schedules := []struct {
		name string
		f    func(k int) float64
	}{
		{"paper 1/(2^k·k²)", nil},
		{"constant 1/4", func(int) float64 { return 0.25 }},
	}
	for _, sch := range schedules {
		c := cluster.NewSim(cluster.Options{
			Seed:       seed,
			ClientOpts: core.Options{ProbeProb: sch.f},
		})
		c.AddClients(n)
		c.JoinAll(Topic)
		if _, ok := c.RunUntilConverged(Topic, n, 2000); !ok {
			tb.AddRow(sch.name, n, -1, -1)
			continue
		}
		c.ResetCounters()
		c.RunRounds(500)
		rate := float64(c.CountByType("proto.GetConfiguration")) / 500
		// Drop one entry from the database — the smallest node ID's, not
		// whichever map order yields first — and the probes must re-record it.
		var victim sim.NodeID
		var victimLabel label.Label
		for l, v := range c.Sup.Snapshot(Topic) {
			if victim == sim.None || v < victim {
				victim, victimLabel = v, l
			}
		}
		c.Sup.DeleteLabel(Topic, victimLabel)
		rounds, ok := c.RunUntil(20000, func() bool {
			return c.Sup.LabelOf(Topic, victim).Len > 0 && c.ConvergedWith(Topic, n)
		})
		if !ok {
			rounds = -1
		}
		tb.AddRow(sch.name, n, rate, rounds)
	}
	return tb
}

// ---- shared helpers ----

// mustConverge builds a legitimate SR(n) cluster (panics on failure —
// experiment preconditions).
func mustConverge(n int, seed int64) *cluster.Live {
	c := cluster.NewSim(cluster.Options{Seed: seed})
	c.AddClients(n)
	c.JoinAll(Topic)
	if _, ok := c.RunUntilConverged(Topic, n, 5000); !ok {
		panic(fmt.Sprintf("experiments: n=%d seed=%d did not converge: %s", n, seed, c.Explain(Topic)))
	}
	return c
}
