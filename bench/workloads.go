package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"sspubsub"
	"sspubsub/bench/load"
	"sspubsub/internal/scale"
)

const (
	topic          sspubsub.Topic = 1
	interval                      = load.Interval
	convergeRounds                = load.ConvergeRounds
)

// params are one run's inputs. Everything the program under test sees is
// derived from them.
type params struct {
	seed    int64
	seconds float64
	// setups is how many times set-up is timed; setup_s is their median.
	setups int
	// small shrinks the system sizes for the smoke test.
	small bool
}

func (p params) pick(full, small int) int {
	if p.small {
		return small
	}
	return full
}

// run maps each of load.Workloads to its scenario.
var run = map[string]func(p params) *load.Result{
	"fanout.concurrent": func(p params) *load.Result {
		return fanout(p, "fanout.concurrent", sspubsub.RuntimeConcurrent, load.FanoutConcurrentRate)
	},
	"fanout.net": func(p params) *load.Result {
		return fanout(p, "fanout.net", sspubsub.RuntimeNet, load.FanoutNetRate)
	},
	"bulk.net":           bulk,
	"recover.concurrent": recoverCycles,
	"scale.psim":         scalePsim,
}

// live is a converged Simulation on a live runtime plus its set-up timings.
type live struct {
	sim    *sspubsub.Simulation
	ids    []sspubsub.NodeID
	rec    *load.Recorder
	setups []float64
}

// setupLive times construct + AddSubscribers + JoinAll + RunUntilConverged
// p.setups times, closing all but the last system, which the run measures.
// A workload that publishes calls record before its first publication.
func setupLive(p params, kind sspubsub.RuntimeKind, n int) (*live, error) {
	l := &live{}
	for i := 0; i < p.setups; i++ {
		if l.sim != nil {
			l.sim.Close()
		}
		start := time.Now()
		l.sim = sspubsub.NewSimulation(sspubsub.SimOptions{
			Runtime:  kind,
			Interval: interval,
			Seed:     p.seed + int64(i),
			OnDeliver: func(node sspubsub.NodeID, _ sspubsub.Topic, payload string) {
				l.rec.Deliver(int64(node), payload) // only publications deliver: record has run
			},
		})
		l.ids = l.sim.AddSubscribers(n)
		l.sim.JoinAll(topic)
		if _, ok := l.sim.RunUntilConverged(topic, n, convergeRounds); !ok {
			why := l.sim.Explain(topic)
			l.sim.Close()
			return nil, fmt.Errorf("set-up %d did not converge: %s", i, why)
		}
		l.setups = append(l.setups, time.Since(start).Seconds())
	}
	return l, nil
}

// record attaches a delivery recorder with room for maxPubs publications,
// each of which must reach every subscriber.
func (l *live) record(maxPubs int) {
	l.rec = load.NewRecorder(time.Now(), int64(l.ids[0]), len(l.ids), len(l.ids), maxPubs)
}

func (l *live) generator(p params, size int) *load.Generator {
	members := make([]int64, len(l.ids))
	for i, id := range l.ids {
		members[i] = int64(id)
	}
	return load.NewGenerator(l.rec, members, p.seed, size, func(node int64, payload string) {
		l.sim.Publish(sspubsub.NodeID(node), topic, payload)
	})
}

// checkDelivered waits for quiescence and checks the dissemination
// invariants: every publication that entered the system is known to every
// member, all tries are equal, and each was delivered exactly once per
// subscriber.
func (l *live) checkDelivered(res *load.Result, issued int) {
	var accepted int
	var err error
	l.sim.RunUntil(300, func() bool {
		accepted, err = l.rec.Settled(issued,
			func(k int) bool { return l.sim.AllHavePubs(topic, k) },
			func() bool { return l.sim.TriesEqual(topic) })
		return err == nil
	})
	if err != nil {
		res.Violations = append(res.Violations, err.Error())
	}
	res.Diagnostics = append(res.Diagnostics,
		load.Metric{Name: "redelivery_ratio", Unit: "ratio", Value: l.rec.RedeliveryRatio()},
		load.Metric{Name: "never_published", Unit: "count", Value: float64(issued - accepted)})
}

func newResult(p params, name string) *load.Result {
	return &load.Result{Workload: name, Seed: p.seed, Seconds: p.seconds, Env: load.Stamp(), Violations: []string{}}
}

func failedRun(res *load.Result, err error) *load.Result {
	res.Attempted, res.Failed = 1, 1
	res.Violations = append(res.Violations, err.Error())
	return res
}

func half(seconds float64) time.Duration { return time.Duration(seconds / 2 * float64(time.Second)) }

// tail reports the high percentiles of a sorted latency sample as
// diagnostics: on a shared two-core box p99 does not repeat within a tenth,
// so it is never gated.
func tail(prefix string, sorted []float64) []load.Metric {
	return []load.Metric{
		{Name: prefix + "_p99_ms", Unit: "ms", Value: load.Percentile(sorted, 0.99), Samples: len(sorted)},
		{Name: prefix + "_p999_ms", Unit: "ms", Value: load.Percentile(sorted, 0.999), Samples: len(sorted)},
	}
}

// fanout is the small-message scenario: an open-loop paced phase for the
// latencies, then a closed-loop saturated phase for the throughput.
func fanout(p params, name string, kind sspubsub.RuntimeKind, rate float64) *load.Result {
	res := newResult(p, name)
	n := p.pick(load.FanoutSubs, 8)
	const size, window = load.FanoutPayload, load.FanoutWindow
	l, err := setupLive(p, kind, n)
	if err != nil {
		return failedRun(res, err)
	}
	defer l.sim.Close()
	// Room for the paced phase plus a saturated phase at four times the rate
	// measured on the reference box.
	l.record(int(rate*p.seconds/2) + int(30000*p.seconds/2) + 64)
	gen := l.generator(p, size)
	pacedPh := gen.Paced("paced", rate, half(p.seconds))
	satPh := gen.Closed("saturated", window, half(p.seconds))
	l.checkDelivered(res, satPh.End)
	paced, sat := l.rec.Analyze(pacedPh), l.rec.Analyze(satPh)

	res.Attempted = paced.Attempted + sat.Attempted
	res.Failed = paced.Failed + sat.Failed
	// The gated latency is the publication's, not the single delivery's:
	// deliveries arrive in clusters one hop apart, and their median sits on
	// a cluster boundary, so it jumps by a hop's time between identical runs
	// (13–25 % spread over ten seeds against 10 % for the completion).
	complete := load.Percentile(paced.Complete, 0.5)
	res.Metrics = []load.Metric{
		{Name: "setup_s", Unit: "s", Value: load.Median(l.setups), Samples: len(l.setups)},
		{Name: "latency_p50_ms", Unit: "ms", Value: complete, Samples: len(paced.Complete)},
		{Name: "throughput_per_s", Unit: "1/s", Value: sat.PubsPerSec, Samples: len(sat.WindowRates)},
		{Name: "complete_p50_ms", Unit: "ms", Value: complete, Samples: len(paced.Complete)},
		{Name: "deliver_p50_ms", Unit: "ms", Value: load.Percentile(paced.Deliver, 0.5), Samples: len(paced.Deliver)},
		{Name: "pubs_per_s", Unit: "1/s", Value: sat.PubsPerSec, Samples: len(sat.WindowRates)},
	}
	res.Diagnostics = append(res.Diagnostics, tail("deliver", paced.Deliver)...)
	res.Diagnostics = append(res.Diagnostics,
		load.Metric{Name: "saturated_deliver_p50_ms", Unit: "ms", Value: load.Percentile(sat.Deliver, 0.5), Samples: len(sat.Deliver)},
		load.Metric{Name: "gen_late_max_ms", Unit: "ms", Value: paced.LateMaxMs},
		load.Metric{Name: "failed_share_paced", Unit: "ratio", Value: share(paced.Failed, paced.Attempted)},
		load.Metric{Name: "failed_share_saturated", Unit: "ratio", Value: share(sat.Failed, sat.Attempted)},
		load.Metric{Name: "peak_rss_mb", Unit: "MB", Value: load.PeakRSSMB()})
	return res
}

func share(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// bulk is the large-payload closed loop on the net runtime.
func bulk(p params) *load.Result {
	res := newResult(p, "bulk.net")
	n := p.pick(load.BulkSubs, 4)
	const size, window = load.BulkPayload, load.BulkWindow
	l, err := setupLive(p, sspubsub.RuntimeNet, n)
	if err != nil {
		return failedRun(res, err)
	}
	defer l.sim.Close()
	l.record(int(20000*p.seconds) + 64) // four times the rate measured on the reference box
	gen := l.generator(p, size)
	ph := gen.Closed("bulk", window, time.Duration(p.seconds*float64(time.Second)))
	l.checkDelivered(res, ph.End)
	st := l.rec.Analyze(ph)

	res.Attempted, res.Failed = st.Attempted, st.Failed
	complete := load.Percentile(st.Complete, 0.5)
	res.Metrics = []load.Metric{
		{Name: "setup_s", Unit: "s", Value: load.Median(l.setups), Samples: len(l.setups)},
		{Name: "latency_p50_ms", Unit: "ms", Value: complete, Samples: len(st.Complete)},
		{Name: "throughput_per_s", Unit: "1/s", Value: st.PubsPerSec, Samples: len(st.WindowRates)},
		{Name: "complete_p50_ms", Unit: "ms", Value: complete, Samples: len(st.Complete)},
		{Name: "deliver_p50_ms", Unit: "ms", Value: load.Percentile(st.Deliver, 0.5), Samples: len(st.Deliver)},
		{Name: "delivered_mb_per_s", Unit: "MB/s", Value: st.PubsPerSec * size * float64(n) / 1e6, Samples: len(st.WindowRates)},
	}
	res.Diagnostics = append(res.Diagnostics, tail("deliver", st.Deliver)...)
	res.Diagnostics = append(res.Diagnostics,
		load.Metric{Name: "failed_share", Unit: "ratio", Value: share(st.Failed, st.Attempted)},
		load.Metric{Name: "peak_rss_mb", Unit: "MB", Value: load.PeakRSSMB()})
	return res
}

// recoverCycles crashes members and times the repair, cycle after cycle.
func recoverCycles(p params) *load.Result {
	res := newResult(p, "recover.concurrent")
	n, k := p.pick(load.RecoverSubs, 8), p.pick(load.RecoverCrash, 2)
	l, err := setupLive(p, sspubsub.RuntimeConcurrent, n)
	if err != nil {
		return failedRun(res, err)
	}
	defer l.sim.Close()
	rng := rand.New(rand.NewSource(p.seed))
	var restab, regrow, cycle []float64
	start := time.Now()
	for time.Since(start).Seconds() < p.seconds {
		res.Attempted++
		members := l.sim.Members(topic)
		rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
		t0 := time.Now()
		for _, id := range members[:k] {
			l.sim.Crash(id)
		}
		if _, ok := l.sim.RunUntilConverged(topic, n-k, convergeRounds); !ok {
			res.Failed++
			res.Violations = append(res.Violations, "no re-stabilization after crash: "+l.sim.Explain(topic))
			break
		}
		restab = append(restab, float64(time.Since(t0))/1e6)
		t1 := time.Now()
		for _, id := range l.sim.AddSubscribers(k) {
			l.sim.Join(id, topic)
		}
		if _, ok := l.sim.RunUntilConverged(topic, n, convergeRounds); !ok {
			res.Failed++
			res.Violations = append(res.Violations, "no convergence after regrow: "+l.sim.Explain(topic))
			break
		}
		regrow = append(regrow, float64(time.Since(t1))/1e6)
		cycle = append(cycle, float64(time.Since(t0))/1e6)
	}
	if !l.sim.Converged(topic) {
		res.Violations = append(res.Violations, "not converged at end: "+l.sim.Explain(topic))
	}
	restabP50 := load.Median(restab)
	res.Metrics = []load.Metric{
		{Name: "setup_s", Unit: "s", Value: load.Median(l.setups), Samples: len(l.setups)},
		{Name: "latency_p50_ms", Unit: "ms", Value: restabP50, Samples: len(restab)},
		{Name: "throughput_per_s", Unit: "1/s", Value: 1e3 / load.Median(cycle), Samples: len(cycle)},
		{Name: "restabilize_p50_ms", Unit: "ms", Value: restabP50, Samples: len(restab)},
	}
	sort.Float64s(restab)
	res.Diagnostics = append(res.Diagnostics,
		load.Metric{Name: "restabilize_max_ms", Unit: "ms", Value: load.Percentile(restab, 1), Samples: len(restab)},
		load.Metric{Name: "regrow_p50_ms", Unit: "ms", Value: load.Median(regrow), Samples: len(regrow)},
		load.Metric{Name: "peak_rss_mb", Unit: "MB", Value: load.PeakRSSMB()})
	return res
}

// scalePsim repeats the scale harness's scenario on the parallel engine for
// the run's duration. The first two repetitions share a seed: their digests
// must agree, which checks the engine's determinism for free.
func scalePsim(p params) *load.Result {
	res := newResult(p, "scale.psim")
	cfg := scale.Config{N: p.pick(load.PsimSubs, 512), Workers: min(runtime.NumCPU(), 4)}
	// Set-up is the harness built and every subscriber labelled — what
	// construct + JoinAll + RunUntilConverged is on the live workloads.
	// scale.New alone takes under a millisecond, too little to time steadily.
	var setups []float64
	for i := 0; i < p.setups; i++ {
		cfg.Seed = p.seed + int64(i)
		t0 := time.Now()
		h := scale.New(cfg)
		h.JoinAll()
		_, ok := h.AwaitLabelled()
		setups = append(setups, time.Since(t0).Seconds())
		h.Sched.Close()
		if !ok {
			return failedRun(res, fmt.Errorf("set-up %d: not every subscriber was labelled", i))
		}
	}
	var walls, joins []float64
	var digest string
	start := time.Now()
	for i := 0; i < 2 || time.Since(start).Seconds()+load.Median(walls) < p.seconds; i++ {
		cfg.Seed = p.seed << 8
		if i > 1 {
			cfg.Seed += int64(i)
		}
		r := scale.Run(cfg)
		res.Attempted++
		if !r.Converged {
			res.Failed++
			res.Violations = append(res.Violations, fmt.Sprintf("repetition %d: Result.Converged == false", i))
		}
		switch i {
		case 0:
			digest = r.Digest()
		case 1:
			if r.Digest() != digest {
				res.Violations = append(res.Violations, "two runs of one seed gave different digests")
			}
		}
		walls = append(walls, r.JoinWallSec+r.FanoutWallSec+r.StabilizeWallSec)
		joins = append(joins, r.JoinsPerSec)
	}
	wall := load.Median(walls)
	fmt.Printf("scale.psim digest(seed %d): %s\n", p.seed<<8, digest)
	res.Metrics = []load.Metric{
		{Name: "setup_s", Unit: "s", Value: load.Median(setups), Samples: len(setups)},
		{Name: "latency_p50_ms", Unit: "ms", Value: wall * 1e3, Samples: len(walls)},
		{Name: "throughput_per_s", Unit: "1/s", Value: float64(cfg.N) / wall, Samples: len(walls)},
		{Name: "sim_wall_s", Unit: "s", Value: wall, Samples: len(walls)},
	}
	res.Diagnostics = append(res.Diagnostics,
		load.Metric{Name: "sim_joins_per_s", Unit: "1/s", Value: load.Median(joins), Samples: len(joins)},
		load.Metric{Name: "peak_rss_mb", Unit: "MB", Value: load.PeakRSSMB()})
	return res
}
