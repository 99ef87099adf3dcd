package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"sspubsub/bench/load"
	"sspubsub/internal/cluster"
	"sspubsub/internal/core"
	"sspubsub/internal/ordering"
	"sspubsub/internal/proto"
	"sspubsub/internal/psim"
	"sspubsub/internal/runtime/concurrent"
	"sspubsub/internal/runtime/nettransport"
	"sspubsub/internal/scale"
	"sspubsub/internal/sim"
	"sspubsub/internal/supervisor"
)

const (
	topic          sim.Topic = 1
	interval                 = load.Interval
	convergeRounds           = load.ConvergeRounds
	// sampledPubs is roughly how many publications keep their full spans.
	sampledPubs = 256
)

// pass is one execution of a workload's scenario, traced or not. The same
// code runs both, so their headline numbers differ by the tracing alone.
type pass struct {
	tr  *tracer
	rec *load.Recorder // nil where the scenario publishes nothing through the generator
	ph  load.Phase
	// headline is the scenario's own latency: complete p50 (ms) for the
	// publishing workloads, restabilize p50 (ms) for recover, scenario wall
	// (ms) for scale.psim.
	headline float64
	// ops divides the message count into msgs_per_op: publications, recovery
	// cycles, or simulated subscribers.
	ops        int
	pubs       int // publications offered (0: none)
	subs       int // subscribers a publication must reach
	attempted  int
	failed     int
	violations []string
	psimPhases [3]float64 // scale.psim: join, fan-out, stabilize wall seconds
}

// quiescer is a live substrate: a transport whose state can be frozen for a
// consistent snapshot.
type quiescer interface {
	sim.Transport
	Quiesce(timeout time.Duration, f func()) bool
}

// liveSys is cluster.Live on a (possibly traced) live substrate: what the
// sspubsub.Simulation facade assembles, rebuilt here so that the tracer can
// sit between the harness and the runtime.
type liveSys struct {
	tr   *tracer
	sub  quiescer
	h    *cluster.Live
	rec  *load.Recorder
	base time.Time
}

func newLive(net bool, seed int64, n int, traced bool, stride int) (*liveSys, error) {
	s := &liveSys{base: time.Now()}
	if net {
		nt, err := nettransport.NewLoopback(nettransport.Options{Interval: interval, Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("loopback transport: %w", err)
		}
		s.sub = nt
	} else {
		s.sub = concurrent.NewRuntime(concurrent.Options{Interval: interval, Seed: seed})
	}
	s.tr = newTracer(s.sub, traced, sinceClock(s.base), stride)
	s.tr.MarkSupervisor(cluster.SupervisorID)
	s.h = cluster.NewLive(s.tr, core.Options{
		OnDeliverTrace: func(node sim.NodeID, _ sim.Topic, p proto.Publication, _ ordering.Meta) {
			s.rec.Deliver(int64(node), p.Payload)
		},
	})
	s.h.AddClients(n)
	s.h.JoinAll(topic)
	if !s.converge(n) {
		why := "system did not quiesce"
		s.sub.Quiesce(100*interval, func() { why = s.h.Explain(topic) })
		s.sub.Close()
		return nil, fmt.Errorf("set-up did not converge: %s", why)
	}
	return s, nil
}

// converge polls the legitimacy predicate under the quiesce barrier once per
// interval, as Simulation.RunUntilConverged does.
func (s *liveSys) converge(n int) bool {
	deadline := time.Now().Add(convergeRounds * interval)
	for {
		ok := false
		s.sub.Quiesce(100*interval, func() { ok = s.h.ConvergedWith(topic, n) })
		if ok {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(interval)
	}
}

func (s *liveSys) generator(seed int64, size int) *load.Generator {
	ids := s.h.Members(topic)
	members := make([]int64, len(ids))
	for i, id := range ids {
		members[i] = int64(id)
	}
	return load.NewGenerator(s.rec, members, seed, size, func(node int64, payload string) {
		s.h.Publish(sim.NodeID(node), topic, payload)
	})
}

// publishPass runs one generator phase against a fresh live system and
// checks the dissemination invariants, exactly as the untraced binary does.
func publishPass(net bool, seed int64, n, size int, traced bool, maxPubs int, phase func(g *load.Generator) load.Phase) pass {
	stride := maxPubs/sampledPubs + 1
	s, err := newLive(net, seed, n, traced, stride)
	if err != nil {
		return pass{attempted: 1, failed: 1, violations: []string{err.Error()}}
	}
	defer s.sub.Close()
	first := int64(s.h.Members(topic)[0])
	s.rec = load.NewRecorder(s.base, first, n, n, maxPubs)
	s.rec.OnDeliver = s.tr.delivered
	p := pass{tr: s.tr, rec: s.rec, subs: n}
	p.ph = phase(s.generator(seed, size))

	err = errors.New("system did not quiesce")
	for deadline := time.Now().Add(300 * interval); err != nil && time.Now().Before(deadline); time.Sleep(interval) {
		s.sub.Quiesce(100*interval, func() {
			_, err = s.rec.Settled(p.ph.End,
				func(k int) bool { return s.h.AllHavePubs(topic, k) },
				func() bool { return s.h.TriesEqual(topic) })
		})
	}
	if err != nil {
		p.violations = append(p.violations, err.Error())
	}
	s.sub.Close() // rows are read below: closing orders every node's writes before them
	st := s.rec.Analyze(p.ph)
	p.headline = load.Percentile(st.Complete, 0.5)
	p.ops, p.pubs = st.Attempted, st.Attempted
	p.attempted, p.failed = st.Attempted, st.Failed
	return p
}

// recoverPass is recover.concurrent's crash/regrow cycle loop.
func recoverPass(seed int64, dur time.Duration, traced bool) pass {
	const n, k = load.RecoverSubs, load.RecoverCrash
	s, err := newLive(false, seed, n, traced, 1)
	if err != nil {
		return pass{attempted: 1, failed: 1, violations: []string{err.Error()}}
	}
	defer s.sub.Close()
	p := pass{tr: s.tr}
	rng := rand.New(rand.NewSource(seed))
	var restab []float64
	for start := time.Now(); time.Since(start) < dur; {
		p.attempted++
		members := s.h.Members(topic)
		rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
		t0 := time.Now()
		for _, id := range members[:k] {
			s.h.Crash(id)
		}
		if !s.converge(n - k) {
			p.failed++
			p.violations = append(p.violations, "no re-stabilization after crash")
			break
		}
		restab = append(restab, float64(time.Since(t0))/1e6)
		for _, id := range s.h.AddClients(k) {
			s.h.Join(id, topic)
		}
		if !s.converge(n) {
			p.failed++
			p.violations = append(p.violations, "no convergence after regrow")
			break
		}
	}
	p.headline = load.Median(restab)
	p.ops = len(restab)
	return p
}

// psimPass is scale.Run's scenario (mass join, fan-out probe, crash burst)
// assembled from the harness's public pieces, so that the tracer can wrap the
// engine the pools and the supervisor are registered on.
func psimPass(seed int64, n int, traced bool) pass {
	const poolSize, maxRounds, settleRounds = 1024, 512, 16
	eng := psim.New(psim.Options{Seed: seed, Workers: min(runtime.NumCPU(), 4)})
	defer eng.Close()
	tr := newTracer(eng, traced, sinceClock(time.Now()), 1)
	tr.poolSends = true
	sup := supervisor.New(scale.SupervisorID, tr)
	sup.CullPerTimeout = max(1, n/64)
	tr.MarkSupervisor(scale.SupervisorID)
	tr.AddNode(scale.SupervisorID, sup)
	numPools := (n + poolSize - 1) / poolSize
	subBase := scale.SupervisorID + 1 + sim.NodeID(numPools)
	pools := make([]*scale.Pool, numPools)
	for j := range pools {
		pools[j] = scale.NewPool(tr, subBase+sim.NodeID(j*poolSize), min(poolSize, n-j*poolSize), scale.SupervisorID, core.Options{})
		pools[j].Register(tr, scale.SupervisorID+1+sim.NodeID(j))
	}
	client := func(i int) *core.Client { return pools[i/poolSize].Client(i % poolSize) }
	// await advances round by round until every subscriber satisfies done.
	await := func(done func(c *core.Client) bool) bool {
		pending := make([]int, n)
		for i := range pending {
			pending[i] = i
		}
		for r := 0; r <= maxRounds && len(pending) > 0; r++ {
			if r > 0 {
				eng.RunRounds(1)
			}
			next := pending[:0]
			for _, i := range pending {
				if !done(client(i)) {
					next = append(next, i)
				}
			}
			pending = next
		}
		return len(pending) == 0
	}

	p := pass{tr: tr, ops: n, pubs: 1, subs: n, attempted: 1}
	fail := func(what string) {
		p.failed = 1
		p.violations = append(p.violations, what)
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		id := subBase + sim.NodeID(i)
		tr.Send(sim.Message{To: id, From: id, Topic: topic, Body: core.JoinTopic{}})
	}
	if !await(func(c *core.Client) bool { return c.Labelled(topic) }) {
		fail("join phase did not finish")
	}
	p.psimPhases[0] = time.Since(t0).Seconds()
	eng.RunRounds(settleRounds)

	t0 = time.Now()
	tr.Send(sim.Message{To: subBase, From: subBase, Topic: topic, Body: core.PublishCmd{Payload: "0|probe"}})
	if !await(func(c *core.Client) bool { return c.PublicationCount(topic) >= 1 }) {
		fail("fan-out probe did not reach every subscriber")
	}
	p.psimPhases[1] = time.Since(t0).Seconds()

	t0 = time.Now()
	crash := max(1, n/100)
	crashed := 0
	for i := 1; i < n && crashed < crash; i += n / crash {
		eng.Crash(subBase + sim.NodeID(i))
		pools[i/poolSize].Kill(i % poolSize)
		crashed++
	}
	if _, ok := eng.RunRoundsUntil(maxRounds, func() bool { return sup.N(topic) == n-crashed }); !ok {
		fail("supervisor database not exact after the crash burst")
	}
	p.psimPhases[2] = time.Since(t0).Seconds()
	p.headline = (p.psimPhases[0] + p.psimPhases[1] + p.psimPhases[2]) * 1e3
	return p
}
