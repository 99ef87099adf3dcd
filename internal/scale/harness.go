package scale

import (
	"fmt"
	"time"

	"sspubsub/internal/cluster"
	"sspubsub/internal/core"
	"sspubsub/internal/metrics"
	"sspubsub/internal/ordering"
	"sspubsub/internal/proto"
	"sspubsub/internal/psim"
	"sspubsub/internal/sim"
)

const (
	// topic is the single topic every scale run measures.
	topic sim.Topic = 1
	// settleRounds run between join convergence and the publish probe so
	// shortcut edges (the O(log n) fan-out paths) can establish; RunFailover
	// settles failoverSettleRounds so the replicas reach steady state.
	settleRounds         = 16
	failoverSettleRounds = 64
	// maxRounds bounds every convergence wait of Run; RunFailover waits up
	// to failoverMaxRounds (see there).
	maxRounds         = 512
	failoverMaxRounds = 8192
	// crashFrac is the fraction of subscribers crashed for the
	// stabilization probe (at least one).
	crashFrac = 0.01
	// cullDivisor sets the supervisor's per-interval failure-detector
	// budget to max(1, N/cullDivisor), so a full database sweep takes
	// ~cullDivisor rounds at any N. With the paper's constant budget of 1,
	// stabilization after a fault burst is O(N) rounds by construction
	// (the round-robin sweep visits one entry per interval), which is a
	// deployment parameter, not a protocol property.
	cullDivisor = 64
	// poolSize is how many virtual subscribers share one pool node: a pool
	// runs on one engine lane, so small pools spread the subscribers over
	// every lane the workers share (see the package documentation). Pools
	// of 1,024 put n = 2,048 on two lanes.
	poolSize = 32
)

// Config sizes one scale run.
type Config struct {
	// N is the number of virtual subscribers (the sweep variable).
	N int
	// Seed drives the deterministic engine.
	Seed int64
	// DeliveryMode runs every subscriber in the given delivery mode.
	// Ordered modes time the fan-out probe on actual application
	// deliveries — which the ordering layer may buffer — rather than on
	// trie arrival, so the sweep measures the ordering overhead end to end.
	DeliveryMode ordering.Mode
	// Workers is how many goroutines execute the engine's lanes; 0 is the
	// engine default (one per CPU, at most its 16 lanes), 1 runs inline.
	// Physical parallelism only: every value produces bit-identical results.
	Workers int
	// Supervisors is the supervisor-plane size (default 1; RunFailover's
	// default is 4). With more than one, topics are sharded over the plane
	// by consistent hashing and pool and subscriber IDs follow the
	// supervisor block.
	Supervisors int
	// ReplicationFactor is the plane's directory replication factor: 0
	// makes a failover the cold Reregister rebuild, ≥ 1 the warm adoption
	// from a hashdht successor's replica.
	ReplicationFactor int
}

// SupervisorID is the harness' first supervisor node ID.
const SupervisorID = cluster.SupervisorID

// Harness hosts N real-protocol subscribers multiplexed into pools on the
// deterministic engine, plus the probes the scaling curves are built
// from. All N subscribers run the unmodified core.Client state machine;
// only their scheduling is shared (see Pool).
type Harness struct {
	Cfg   Config
	Sched *psim.Engine
	// Plane is the supervisor plane (Sup, the supervisor at SupervisorID,
	// is all of it unless Cfg.Supervisors says otherwise).
	*cluster.Plane
	Pools   []*Pool
	subBase sim.NodeID
	// maxRounds bounds every convergence wait: maxRounds, or
	// failoverMaxRounds under RunFailover.
	maxRounds int

	// delivered counts application-level deliveries per subscriber (only
	// maintained when Cfg.DeliveryMode is an ordered mode).
	delivered []int
}

// New builds the system: the supervisor plane, ceil(N/32) pool nodes,
// N virtual subscribers (IDs contiguous from the first ID after the pools).
func New(cfg Config) *Harness {
	sched := psim.New(psim.Options{Seed: cfg.Seed, Workers: cfg.Workers})
	opts := core.Options{DeliveryMode: cfg.DeliveryMode}
	plane := cluster.NewPlane(sched, cluster.Options{
		ClientOpts: opts, Supervisors: cfg.Supervisors, ReplicationFactor: cfg.ReplicationFactor,
	})
	for _, sup := range plane.Sups {
		sup.CullPerTimeout = max(1, cfg.N/cullDivisor) // nothing runs before the first RunRounds
	}
	opts = plane.ClientOptions(opts)

	numPools := (cfg.N + poolSize - 1) / poolSize
	poolBase := SupervisorID + sim.NodeID(len(plane.SupIDs))
	subBase := poolBase + sim.NodeID(numPools)
	h := &Harness{Cfg: cfg, Sched: sched, Plane: plane, subBase: subBase, maxRounds: maxRounds}
	if cfg.DeliveryMode != ordering.BestEffort {
		h.delivered = make([]int, cfg.N)
		opts.OnDeliverTrace = func(node sim.NodeID, t sim.Topic, p proto.Publication, m ordering.Meta) {
			if i := int(node - subBase); t == topic && i >= 0 && i < cfg.N {
				h.delivered[i]++
			}
		}
	}
	for j := 0; j < numPools; j++ {
		base := subBase + sim.NodeID(j*poolSize)
		p := NewPool(sched, base, min(poolSize, cfg.N-j*poolSize), SupervisorID, opts)
		p.Register(sched, poolBase+sim.NodeID(j))
		h.Pools = append(h.Pools, p)
	}
	return h
}

// ID returns the i-th subscriber's virtual node ID.
func (h *Harness) ID(i int) sim.NodeID { return h.subBase + sim.NodeID(i) }

// Client returns the i-th subscriber's state machine.
func (h *Harness) Client(i int) *core.Client {
	return h.Pools[i/poolSize].Client(i % poolSize)
}

// JoinAll issues a join command to every subscriber at the current time.
func (h *Harness) JoinAll() {
	for i := 0; i < h.Cfg.N; i++ {
		id := h.ID(i)
		h.Sched.Send(sim.Message{To: id, From: id, Topic: topic, Body: core.JoinTopic{}})
	}
}

// await advances rounds until done(i) holds for every subscriber (or
// h.maxRounds elapse), returning the round at which each first satisfied it.
// The poll is O(pending) per round: finished subscribers leave the scan
// set.
func (h *Harness) await(done func(i int) bool) (rounds []int, ok bool) {
	rounds = make([]int, h.Cfg.N)
	pending := make([]int, h.Cfg.N)
	for i := range pending {
		pending[i] = i
	}
	r := 0
	_, ok = h.Sched.RunRoundsUntil(h.maxRounds, func() bool {
		next := pending[:0]
		for _, i := range pending {
			if done(i) {
				rounds[i] = r
			} else {
				next = append(next, i)
			}
		}
		pending = next
		r++
		return len(pending) == 0
	})
	return rounds, ok
}

// AwaitLabelled advances rounds until every subscriber holds a label,
// returning the per-subscriber round at which its label arrived.
func (h *Harness) AwaitLabelled() (rounds []int, ok bool) {
	return h.await(func(i int) bool { return h.Client(i).Labelled(topic) })
}

// AwaitFanout advances rounds until every live subscriber has `want`
// publications, returning each subscriber's first round at or past the
// threshold. Best-effort counts trie arrivals; an ordered mode counts
// application deliveries (the OnDeliverTrace hook maintains the counters),
// which sees the ordering layer's buffering: a reordered publication
// counts only once the delivery callback actually fired.
func (h *Harness) AwaitFanout(want int) (rounds []int, ok bool) {
	if h.delivered != nil {
		return h.await(func(i int) bool { return h.delivered[i] >= want })
	}
	return h.await(func(i int) bool { return h.Client(i).PublicationCount(topic) >= want })
}

// Publish makes subscriber i author a publication.
func (h *Harness) Publish(i int, payload string) {
	id := h.ID(i)
	h.Sched.Send(sim.Message{To: id, From: id, Topic: topic, Body: core.PublishCmd{Payload: payload}})
}

// CrashFraction crashes crashFrac of the subscribers (at least one),
// spread evenly across the ID range and therefore across pools, and
// returns how many were crashed. Subscriber 0 is spared so the publish
// probe's author stays alive.
func (h *Harness) CrashFraction() int {
	k := int(float64(h.Cfg.N) * crashFrac)
	if k < 1 {
		k = 1
	}
	if k >= h.Cfg.N {
		k = h.Cfg.N - 1
	}
	stride := h.Cfg.N / k
	if stride < 1 {
		stride = 1
	}
	crashed := 0
	for i := 1; i < h.Cfg.N && crashed < k; i += stride {
		h.Sched.Crash(h.ID(i))
		h.Pools[i/poolSize].Kill(i % poolSize)
		crashed++
	}
	return crashed
}

// AwaitDBSize advances rounds until the database of the topic's owner
// holds exactly want entries (the stabilization predicate after a crash
// burst: every dead subscriber culled, no live one evicted).
func (h *Harness) AwaitDBSize(want int) (rounds int, ok bool) {
	owner := h.SupFor(topic)
	return h.Sched.RunRoundsUntil(h.maxRounds, func() bool {
		return owner.N(topic) == want
	})
}

// Result is one scale point: everything `srsim scale` prints (its table
// and, with -digest, Digest) and bench's scale.psim workload times.
type Result struct {
	N int
	// Mode is the delivery mode the sweep point ran with ("besteffort",
	// "fifo", "causal").
	Mode string
	// Workers is how many lane workers executed the point (the engine's
	// resolved value, never 0). Physical parallelism only — never part of
	// Digest.
	Workers int
	// Join: mass arrival of all N subscribers at t=0.
	JoinRounds  metrics.Summary // rounds until a subscriber held its label
	JoinWallSec float64         // wall-clock for the whole join phase
	JoinsPerSec float64
	// Fan-out: one publication reaching every live subscriber.
	FanoutRounds  metrics.Summary
	FanoutWallSec float64
	// Stabilization: crash burst of crashFrac·N, rounds until the
	// supervisor database is exact again.
	Crashed          int
	StabilizeRounds  int
	StabilizeWallSec float64
	// Memory, estimated by accounting, not measured on the heap: element
	// counts × unsafe.Sizeof (Supervisor.MemoryBytes, Trie.MemoryBytes,
	// Engine.QueueHighWaterBytes). Map overhead enters only as the
	// supervisor's flat 2× per map entry; slack — a slab's or a bucket's
	// unused capacity — is left out. Deterministic for a schedule.
	SupDBBytes   uint64 // supervisor database for the topic
	SubTrieBytes uint64 // one subscriber's publication trie
	QueueBytes   uint64 // event-queue high-water footprint
	// DBHash is the content hash of the supervisor's topic directory at
	// the end of the run (epoch:hash:count) — the cheap whole-system
	// fingerprint the P-independence gates diff.
	DBHash string
	// Converged reports every phase finished inside maxRounds.
	Converged bool
}

// Digest renders every schedule-determined field in one canonical line:
// two runs of the same engine schedule must produce equal digests no
// matter how many workers executed them. Wall-clock fields and Workers —
// the things parallelism IS allowed to change — are excluded.
func (r Result) Digest() string {
	sum := func(s metrics.Summary) string {
		return fmt.Sprintf("{n=%d min=%g max=%g mean=%g p50=%g p95=%g p99=%g}",
			s.Count, s.Min, s.Max, s.Mean, s.P50, s.P95, s.P99)
	}
	return fmt.Sprintf("n=%d mode=%s join=%s fanout=%s crashed=%d stabilize=%d supdb=%d subtrie=%d queue=%d dbhash=%s converged=%v",
		r.N, r.Mode, sum(r.JoinRounds), sum(r.FanoutRounds), r.Crashed,
		r.StabilizeRounds, r.SupDBBytes, r.SubTrieBytes, r.QueueBytes,
		r.DBHash, r.Converged)
}

// Run executes the full scenario at one N: join everyone, wait for
// labels, settle, publish once and time the fan-out, sample memory, crash
// a fraction and time the supervisor's re-stabilization.
func Run(cfg Config) Result {
	h := New(cfg)
	defer h.Sched.Close()
	res := Result{N: cfg.N, Mode: cfg.DeliveryMode.String(), Workers: h.Sched.Workers(), Converged: true}

	start := time.Now()
	h.JoinAll()
	joinRounds, ok := h.AwaitLabelled()
	res.JoinWallSec = time.Since(start).Seconds()
	res.JoinRounds = metrics.Summarize(metrics.Ints(joinRounds))
	if res.JoinWallSec > 0 {
		res.JoinsPerSec = float64(cfg.N) / res.JoinWallSec
	}
	res.Converged = res.Converged && ok

	h.Sched.RunRounds(settleRounds)

	start = time.Now()
	h.Publish(0, fmt.Sprintf("pub-n%d", cfg.N))
	fanRounds, ok2 := h.AwaitFanout(1)
	res.FanoutWallSec = time.Since(start).Seconds()
	res.FanoutRounds = metrics.Summarize(metrics.Ints(fanRounds))
	res.Converged = res.Converged && ok2

	owner := h.SupFor(topic)
	res.SupDBBytes = owner.MemoryBytes(topic)
	if in, found := h.Client(0).Instance(topic); found {
		res.SubTrieBytes = in.Eng.Trie().MemoryBytes()
	}

	start = time.Now()
	res.Crashed = h.CrashFraction()
	rounds, ok := h.AwaitDBSize(cfg.N - res.Crashed)
	res.StabilizeWallSec = time.Since(start).Seconds()
	res.StabilizeRounds = rounds
	res.Converged = res.Converged && ok

	res.QueueBytes = h.Sched.QueueHighWaterBytes()
	if epoch, hash, count, found := owner.DirectoryDigest(topic); found {
		res.DBHash = fmt.Sprintf("%d:%x:%d", epoch, hash, count)
	}
	return res
}
