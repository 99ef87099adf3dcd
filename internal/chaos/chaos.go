package chaos

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"sspubsub/internal/cluster"
	"sspubsub/internal/core"
	"sspubsub/internal/metrics"
	"sspubsub/internal/ordering"
	"sspubsub/internal/runtime/nettransport"
	"sspubsub/internal/sim"
)

// Substrate selects the execution substrate a scenario runs on.
type Substrate string

const (
	// SubstrateSim is the deterministic discrete-event engine; runs are
	// bit-for-bit reproducible from the seed.
	SubstrateSim Substrate = "sim"
	// SubstrateConcurrent is the goroutine-per-node live runtime.
	SubstrateConcurrent Substrate = "concurrent"
	// SubstrateNet is the loopback networked transport (every message
	// crosses the wire codec and a TCP socket).
	SubstrateNet Substrate = "net"
)

// AllSubstrates lists the substrates in presentation order.
var AllSubstrates = []Substrate{SubstrateSim, SubstrateConcurrent, SubstrateNet}

// ParseSubstrate validates a -runtime style string.
func ParseSubstrate(s string) (Substrate, error) {
	switch Substrate(s) {
	case SubstrateSim, SubstrateConcurrent, SubstrateNet:
		return Substrate(s), nil
	}
	return "", fmt.Errorf("unknown substrate %q (use sim, concurrent or net)", s)
}

const (
	// topic is the one topic every scenario runs on; setupRounds budgets
	// the unmeasured join-and-converge prologue, in intervals.
	topic       sim.Topic = 1
	setupRounds           = 8000
)

// Config parameterizes one scenario run.
type Config struct {
	// Substrate picks the execution substrate (default SubstrateSim).
	Substrate Substrate
	// N is the initial member count (default 12; a scenario's own N wins
	// when set).
	N int
	// Supervisors is the supervisor-plane size (default 1; a scenario's
	// own Supervisors wins when set). With more than one, topics are
	// sharded by consistent hashing and the supervisor fault actions
	// (CrashSupervisor, RestartSupervisors, CorruptDirectory) become
	// meaningful; the ownership-convergence probe is checked either way.
	Supervisors int
	// ReplicationFactor is the plane's directory replication factor
	// (default 0; a scenario's own ReplicationFactor wins when set). With
	// a factor ≥ 1 supervisor failover adopts warm replicas, the
	// CorruptReplica fault bites, and the replica-consistency probe is
	// enforced.
	ReplicationFactor int
	// Seed drives every random choice: victim selection, corruption
	// content, fault coin flips, and — on SubstrateSim — the entire event
	// schedule. Identical (scenario, config) pairs replay identically on
	// the deterministic substrate.
	Seed int64
	// Interval is the timeout interval on the live substrates
	// (default 2ms). Ignored on SubstrateSim.
	Interval time.Duration
	// ConvergeRounds budgets the measured post-fault convergence
	// (default 8000 intervals).
	ConvergeRounds int
	// DeliveryWave is how many fresh publications are issued after the
	// faults cease; the delivery-completeness probe requires all of them
	// at every member (default 3; negative disables).
	DeliveryWave int
	// DeliveryMode selects the per-topic delivery mode every client runs
	// with (best-effort, FIFO, causal). An ordered mode records delivery
	// traces, arms the delivery-ordering probe, and issues the delivery
	// wave from a single publisher so cross-node order agreement is
	// checkable. A scenario's own DeliveryMode wins when set.
	DeliveryMode ordering.Mode
	// ForceOrderingProbe records traces and evaluates the
	// delivery-ordering probe even in best-effort mode — the probe's
	// negative control, expected to fail under reordering.
	ForceOrderingProbe bool
	// TraceSink, when non-nil, receives a snapshot of every node's
	// delivery trace after the final probe evaluation (testing hook;
	// needs an ordered mode or ForceOrderingProbe to have any traces).
	TraceSink func(map[sim.NodeID][]TraceEntry)
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
}

func (c *Config) fill() {
	if c.Substrate == "" {
		c.Substrate = SubstrateSim
	}
	if c.N == 0 {
		c.N = 12
	}
	if c.Interval == 0 {
		c.Interval = 2 * time.Millisecond
	}
	if c.ConvergeRounds == 0 {
		c.ConvergeRounds = 8000
	}
	if c.DeliveryWave == 0 {
		c.DeliveryWave = 3
	}
}

func (c Config) logf(format string, args ...any) {
	if c.Log != nil {
		c.Log(format, args...)
	}
}

// Result reports one scenario run.
type Result struct {
	Scenario  string
	Substrate Substrate
	Seed      int64
	N         int
	// Mode is the delivery mode the run used ("besteffort", "fifo",
	// "causal").
	Mode string

	// Setup is false when the unmeasured prologue never converged (an
	// engine failure, not a protocol one).
	Setup bool
	// Converged reports whether every invariant probe held within the
	// budget after the last fault.
	Converged bool
	// Rounds is the measured convergence time in timeout intervals from
	// the moment faults ceased; -1 whenever the run did not converge
	// (including setup failures).
	Rounds float64
	// Violation describes the first failing probe at the deadline ("" when
	// converged).
	Violation string
	// FaultActions counts the perturbing actions applied.
	FaultActions int
	// Delivered is the substrate's total delivered-message count.
	Delivered int64
	// Actions is the applied action list (the shrinker's input on
	// failure).
	Actions []Action
}

// String renders a one-line report.
func (r Result) String() string {
	status := fmt.Sprintf("converged in %.0f rounds", r.Rounds)
	if !r.Setup {
		status = "SETUP FAILED"
	} else if !r.Converged {
		status = "FAILED: " + r.Violation
	}
	sub := string(r.Substrate)
	if r.Mode != "" && r.Mode != "besteffort" {
		sub += "/" + r.Mode
	}
	return fmt.Sprintf("[%s] %s seed=%d n=%d faults=%d: %s",
		sub, r.Scenario, r.Seed, r.N, r.FaultActions, status)
}

// env is one scenario execution: the harness (which carries the
// substrate's driving surface) and the scenario bookkeeping.
type env struct {
	cfg Config
	l   *cluster.Live

	nt *nettransport.Transport // non-nil on SubstrateNet (frame faults)

	// rng drives every scenario-level choice (victims, corruption,
	// partitions); it is distinct from the substrate's own randomness so
	// the action stream is identical across substrates for a given seed.
	rng *rand.Rand

	watch metrics.Stopwatch
	wave  []wavePub // post-fault publications (delivery probes)
	pubs  int       // mid-scenario publication counter

	// rec collects per-node delivery traces when the run is ordered (or
	// the ordering probe is forced); nil otherwise.
	rec *traceRec

	// askedToLeave records every member a LeaveBurst targeted. The leave
	// control message travels like any other (non-FIFO, delayed), so at
	// wave time a victim may not yet report Leaving — but it must never
	// publish the delivery wave: its departure grant can overtake its own
	// publish command and lose the publication.
	askedToLeave map[sim.NodeID]bool
}

func newEnv(cfg Config) (*env, error) {
	e := &env{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)),
		askedToLeave: make(map[sim.NodeID]bool)}
	co := core.Options{DeliveryMode: cfg.DeliveryMode}
	if cfg.DeliveryMode != ordering.BestEffort || cfg.ForceOrderingProbe {
		e.rec = newTraceRec()
		co.OnDeliverTrace = e.rec.record
	}
	tr, err := cluster.NewSubstrate(string(cfg.Substrate), cfg.Seed, cfg.Interval)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	e.l = cluster.New(tr, cluster.Options{
		ClientOpts: co, Supervisors: cfg.Supervisors, ReplicationFactor: cfg.ReplicationFactor,
	})
	e.nt, _ = tr.(*nettransport.Transport)
	return e, nil
}

func (e *env) close() {
	e.clearFaults()
	e.l.Tr.Close()
}

// clearFaults removes every installed channel fault.
func (e *env) clearFaults() {
	e.l.SetFault(nil)
	if e.nt != nil {
		e.nt.SetFrameFault(nil)
	}
}

// faultRng returns a self-locking uniform source for fault coin flips:
// fault filters run on arbitrary sending goroutines on the live
// substrates, and *rand.Rand is not concurrency-safe.
func (e *env) faultRng(salt int64) func() float64 {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(e.cfg.Seed ^ salt))
	return func() float64 {
		mu.Lock()
		v := rng.Float64()
		mu.Unlock()
		return v
	}
}

// rateFault builds a filter applying verdict with the given probability.
// Driver self-sends (control commands like JoinTopic) are exempt: they are
// the experiment's control plane, not protocol traffic.
func (e *env) rateFault(verdict sim.FaultAction, rate float64, salt int64) sim.FaultFunc {
	next := e.faultRng(salt)
	return func(m sim.Message) sim.FaultAction {
		if m.From == m.To {
			return sim.FaultDeliver
		}
		if next() < rate {
			return verdict
		}
		return sim.FaultDeliver
	}
}

// apply executes one action.
func (e *env) apply(a Action) {
	if a.isFault() {
		e.watch.Fault(e.l.Now())
	}
	switch a.Kind {
	case Settle:
		e.l.RunRounds(max(1, a.Rounds))

	case CrashBurst:
		members := e.l.Members(topic)
		k := clamp(a.Count, 0, len(members)-2)
		for _, i := range e.rng.Perm(len(members))[:k] {
			e.l.Crash(members[i])
		}

	case RestartAll:
		downed := e.l.Downed()
		k := len(downed)
		if a.Count > 0 && a.Count < k {
			k = a.Count
		}
		for _, id := range downed[:k] {
			e.l.Restart(id)
		}

	case JoinBurst:
		for _, id := range e.l.AddClients(max(1, a.Count)) {
			e.l.Join(id, topic)
		}

	case LeaveBurst:
		members := e.l.Members(topic)
		k := clamp(a.Count, 0, len(members)-2)
		for _, i := range e.rng.Perm(len(members))[:k] {
			e.l.Leave(members[i], topic)
			e.askedToLeave[members[i]] = true
		}

	case Partition:
		e.l.SetFault(e.partitionFault(max(2, a.K)))

	case Heal:
		e.clearFaults()

	case Loss:
		e.l.SetFault(e.rateFault(sim.FaultDrop, a.Rate, 0x10af))

	case Duplicate:
		e.l.SetFault(e.rateFault(sim.FaultDup, a.Rate, 0x2d0b))

	case Reorder:
		e.l.SetFault(e.rateFault(sim.FaultDelay, a.Rate, 0x3e0c))

	case WireGarbage:
		if e.nt != nil {
			next := e.faultRng(0x4f1d)
			rate := a.Rate
			e.nt.SetFrameFault(func() nettransport.FrameFault {
				if next() < rate {
					return nettransport.FrameCorrupt
				}
				return nettransport.FrameDeliver
			})
		} else {
			count := a.Count
			if count == 0 {
				count = 5 * e.cfg.N
			}
			e.l.Freeze(func() { e.l.SendGarbageMessages(topic, count, e.rng) })
		}

	case GarbageTraffic:
		count := a.Count
		if count == 0 {
			count = 5 * e.cfg.N
		}
		e.l.Freeze(func() { e.l.SendGarbageMessages(topic, count, e.rng) })

	case CorruptStates:
		e.l.Freeze(func() { e.l.CorruptSubscriberStates(topic, e.rng) })

	case CorruptDB:
		e.l.Freeze(func() { e.l.CorruptSupervisorDB(topic, e.rng) })

	case CorruptTries:
		count := max(1, a.Count)
		e.l.Freeze(func() { e.l.CorruptTries(topic, count, e.rng) })

	case SplitStates:
		e.l.Freeze(func() { e.l.PartitionStates(topic, max(2, a.K)) })

	case Publish:
		members := e.l.Members(topic)
		for i := 0; i < max(1, a.Count) && len(members) > 0; i++ {
			e.pubs++
			e.l.Publish(members[e.rng.Intn(len(members))], topic, fmt.Sprintf("mid-%d", e.pubs))
		}

	case CrashSupervisor:
		live := e.l.LiveSupervisors()
		k := clamp(max(1, a.Count), 0, len(live)-1)
		// The topic's current owner dies first — crashing only bystanders
		// would not exercise failover — then random extras.
		victims := make([]sim.NodeID, 0, k)
		if owner, ok := e.l.ExpectedOwner(topic); ok && k > 0 {
			victims = append(victims, owner)
		}
		rest := make([]sim.NodeID, 0, len(live))
		for _, id := range live {
			if len(victims) == 0 || id != victims[0] {
				rest = append(rest, id)
			}
		}
		for _, i := range e.rng.Perm(len(rest)) {
			if len(victims) >= k {
				break
			}
			victims = append(victims, rest[i])
		}
		for _, id := range victims {
			e.l.CrashSupervisor(id)
		}

	case RestartSupervisors:
		for _, id := range e.l.DownedSupervisors() {
			e.l.RestartSupervisor(id)
		}

	case CorruptDirectory:
		live := e.l.LiveSupervisors()
		if len(e.l.SupIDs) > 1 && len(live) > 0 {
			id := live[e.rng.Intn(len(live))]
			e.l.Freeze(func() { e.l.Sups[id].CorruptPlane(topic, e.rng) })
		}

	case CorruptReplica:
		// Target a live expected replica holder; Supervisor.CorruptReplica
		// itself is a no-op when that holder has no replica yet, and
		// ExpectedReplicas is empty with ReplicationFactor 0 — either way a
		// safe no-op, so random scenarios stay valid on every configuration.
		if targets := e.l.ExpectedReplicas(topic); len(targets) > 0 {
			id := targets[e.rng.Intn(len(targets))]
			e.l.Freeze(func() { e.l.Sups[id].CorruptReplica(topic, e.rng) })
		}

	case CorruptOrdering:
		// Scrambling cursor positions legitimately re-delivers or skips
		// sequence numbers while the layer re-stabilizes, so monotonicity
		// restarts in a fresh trace epoch (bumped under the same freeze,
		// before any post-corruption delivery can be recorded). A no-op in
		// best-effort mode — the engines hold no ordering state.
		e.l.Freeze(func() {
			e.l.CorruptOrderingState(topic, e.rng)
			if e.rec != nil {
				e.rec.bumpEpoch()
			}
		})
	}
}

// Run executes one scenario against one configuration and reports the
// outcome.
func Run(sc Scenario, cfg Config) Result {
	cfg.fill()
	if sc.N > 0 {
		cfg.N = sc.N
	}
	if sc.Supervisors > 0 {
		cfg.Supervisors = sc.Supervisors
	}
	if sc.ReplicationFactor > 0 {
		cfg.ReplicationFactor = sc.ReplicationFactor
	}
	if sc.DeliveryMode != ordering.BestEffort {
		cfg.DeliveryMode = sc.DeliveryMode
	}
	res := Result{
		Scenario:  sc.Name,
		Substrate: cfg.Substrate,
		Seed:      cfg.Seed,
		N:         cfg.N,
		Mode:      cfg.DeliveryMode.String(),
		Rounds:    -1,
		Actions:   sc.Actions,
	}
	e, err := newEnv(cfg)
	if err != nil {
		res.Violation = err.Error()
		return res
	}
	defer e.close()

	// Unmeasured prologue: a converged SR(n) is the scenario's starting
	// point (Definition 2's legitimate state).
	e.l.AddClients(cfg.N)
	e.l.JoinAll(topic)
	if _, ok := e.l.RunUntilConverged(topic, cfg.N, setupRounds); !ok {
		res.Violation = "setup: " + e.explain()
		return res
	}
	res.Setup = true
	cfg.logf("chaos: [%s] %s: setup converged with %d members; applying %d actions",
		cfg.Substrate, sc.Name, cfg.N, len(sc.Actions))

	for _, a := range sc.Actions {
		cfg.logf("chaos:   %s", a)
		e.apply(a)
		if a.isFault() {
			res.FaultActions++
		}
	}

	// Faults cease here (the paper's convergence premise); the stopwatch
	// measures from this instant.
	e.clearFaults()
	e.watch.Fault(e.l.Now())

	// Post-fault delivery wave: fresh publications that must reach every
	// member (publication completeness in a self-stabilized system). The
	// publishers are settled members — one with an unsubscribe in flight
	// could complete its departure before its own publish command arrives
	// (channels are non-FIFO), silently losing the wave publication.
	if cfg.DeliveryWave > 0 {
		members := e.l.SettledMembers(topic)
		staying := members[:0]
		for _, id := range members {
			if !e.askedToLeave[id] {
				staying = append(staying, id)
			}
		}
		if len(staying) > 0 && e.rec != nil {
			// Ordered (or probe-forced) runs issue the whole wave from a
			// single publisher: every pair of subscribers must then agree
			// on the relative delivery order of the wave publications,
			// which is exactly what the delivery-ordering probe asserts.
			// The publish commands travel as delayed self-sends, so the
			// payload indices need not match the actual publish order —
			// only cross-node agreement is promised.
			p := staying[e.rng.Intn(len(staying))]
			for i := 0; i < cfg.DeliveryWave; i++ {
				payload := fmt.Sprintf("wave-%d", i)
				e.wave = append(e.wave, wavePub{Payload: payload, Origin: p})
				e.l.Publish(p, topic, payload)
			}
		} else if len(staying) > 0 {
			for i := 0; i < cfg.DeliveryWave; i++ {
				payload := fmt.Sprintf("wave-%d", i)
				pub := staying[e.rng.Intn(len(staying))]
				e.wave = append(e.wave, wavePub{Payload: payload, Origin: pub})
				e.l.Publish(pub, topic, payload)
			}
		}
	}

	// Poll until the violation clears or the budget expires, then take one
	// final frozen snapshot for the report — a timed-out freeze is itself a
	// violation (the system never drained), while a clean snapshot that
	// finds nothing means the system converged between the last poll and
	// now (a flaky pass is still a pass).
	if _, ok := e.l.RunUntil(cfg.ConvergeRounds, func() bool { return e.violation() == "" }); ok {
		res.Converged = true
	} else {
		v := "system did not quiesce for the final probe snapshot"
		e.l.Freeze(func() { v = e.violation() })
		res.Violation = v
		res.Converged = v == ""
	}
	if res.Converged {
		e.watch.Converge(e.l.Now())
		res.Rounds = e.watch.Rounds()
	}
	res.Delivered = e.l.Delivered()
	if cfg.TraceSink != nil && e.rec != nil {
		e.l.Freeze(func() { cfg.TraceSink(e.rec.clone()) })
	}
	cfg.logf("chaos: %s", res)
	return res
}

// explain renders the current first legitimacy violation under freeze.
func (e *env) explain() string {
	out := "system did not quiesce"
	e.l.Freeze(func() { out = e.l.Explain(topic) })
	if out == "" {
		out = "converged"
	}
	return out
}

// partitionFault builds the partition filter: supervisors + members are
// split into k groups (every supervisor in group 0, where joiners also
// land — the plane stays whole, members lose it), and messages crossing
// group boundaries are dropped. The map is immutable after construction,
// so concurrent reads are safe.
func (e *env) partitionFault(k int) sim.FaultFunc {
	parts := make(map[sim.NodeID]int)
	for _, id := range e.l.SupIDs {
		parts[id] = 0
	}
	members := e.l.Members(topic)
	perm := e.rng.Perm(len(members))
	for i, pi := range perm {
		parts[members[pi]] = i % k
	}
	return func(m sim.Message) sim.FaultAction {
		if m.From == m.To {
			return sim.FaultDeliver
		}
		if parts[m.From] != parts[m.To] { // unknown IDs default to group 0
			return sim.FaultDrop
		}
		return sim.FaultDeliver
	}
}

func clamp(v, lo, hi int) int {
	if hi < lo {
		hi = lo
	}
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
