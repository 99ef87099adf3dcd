package scale

import (
	"sspubsub/internal/core"
	"sspubsub/internal/hashdht"
	"sspubsub/internal/label"
	"sspubsub/internal/psim"
	"sspubsub/internal/sim"
	"sspubsub/internal/supervisor"
)

// FailoverConfig sizes one supervisor-failover measurement: a plane of
// Supervisors supervisors hosting N pooled subscribers on one topic, whose
// owner is crashed once the system (and, with a positive replication
// factor, its warm replicas) has converged.
type FailoverConfig struct {
	// N is the number of virtual subscribers.
	N int
	// PoolSize is how many virtual subscribers share one pool node
	// (default 1024).
	PoolSize int
	// Seed drives the deterministic engine.
	Seed int64
	// Topic is the topic under measurement. Default 1.
	Topic sim.Topic
	// Supervisors is the plane size (default 4).
	Supervisors int
	// ReplicationFactor is the directory replication factor. 0 measures
	// the cold Reregister rebuild (the PR 5 baseline); ≥ 1 measures warm
	// adoption from the hashdht successor's replica.
	ReplicationFactor int
	// CullPerTimeout is each supervisor's failure-detector budget per
	// interval (default max(1, N/64), as in Config).
	CullPerTimeout int
	// MaxRounds bounds every convergence wait (default 8192 — the cold
	// rebuild at 10^5 subscribers is dominated by the subscribers'
	// ratcheting staleness probes, which is exactly the cost the warm path
	// is built to avoid).
	MaxRounds int
	// SettleRounds run after join convergence before the crash so the
	// replica stream and anti-entropy reach steady state (default 64).
	SettleRounds int
	// Workers and Lanes configure the engine as on Config (0 = default).
	Workers int
	Lanes   int
}

func (c FailoverConfig) withDefaults() FailoverConfig {
	if c.PoolSize == 0 {
		c.PoolSize = 1024
	}
	if c.Topic == 0 {
		c.Topic = 1
	}
	if c.Supervisors == 0 {
		c.Supervisors = 4
	}
	if c.CullPerTimeout == 0 {
		c.CullPerTimeout = c.N / 64
		if c.CullPerTimeout < 1 {
			c.CullPerTimeout = 1
		}
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 8192
	}
	if c.SettleRounds == 0 {
		c.SettleRounds = 64
	}
	return c
}

// FailoverResult is one failover measurement point.
type FailoverResult struct {
	N         int
	RepFactor int
	// SetupRounds is the unmeasured join-and-converge prologue length.
	SetupRounds int
	// ReplicaWarm reports whether the expected replicas matched the
	// owner's digest at crash time (always false with RepFactor 0).
	ReplicaWarm bool
	// FailoverRounds counts from the owner crash until the successor's
	// database is exact and every subscriber reports to it at a non-⊥
	// label; -1 when the budget expired.
	FailoverRounds int
	// Relabelled counts survivors whose label changed across the failover
	// — 0 is the warm path's "no relabelling" claim.
	Relabelled int
	// Converged reports whether every phase finished inside MaxRounds.
	Converged bool
}

// failoverHarness is the multi-supervisor sibling of Harness: a plane of
// supervisors sharded by consistent hashing, pooled subscribers routed by
// a driver-side view ring (mirroring cluster.NewLiveRF's client options).
type failoverHarness struct {
	cfg     FailoverConfig
	sched   *psim.Engine
	sups    map[sim.NodeID]*supervisor.Supervisor
	supIDs  []sim.NodeID
	ring    *hashdht.Ring
	pools   []*Pool
	subBase sim.NodeID
}

func newFailoverHarness(cfg FailoverConfig) *failoverHarness {
	sched := psim.New(psim.Options{Seed: cfg.Seed, Workers: cfg.Workers, Lanes: cfg.Lanes})
	ids := make([]sim.NodeID, cfg.Supervisors)
	for i := range ids {
		ids[i] = SupervisorID + sim.NodeID(i)
	}
	ring := hashdht.NewRing(0)
	h := &failoverHarness{
		cfg:   cfg,
		sched: sched,
		sups:  make(map[sim.NodeID]*supervisor.Supervisor, cfg.Supervisors),
		ring:  ring,
	}
	for _, id := range ids {
		sup := supervisor.New(id, sched)
		sup.CullPerTimeout = cfg.CullPerTimeout
		if cfg.Supervisors > 1 {
			sup.JoinPlane(ids)
			if cfg.ReplicationFactor > 0 {
				sup.SetReplicationFactor(cfg.ReplicationFactor)
			}
		}
		sched.AddNode(id, sup)
		h.sups[id] = sup
		ring.Add(id)
	}
	h.supIDs = ids

	opts := core.Options{
		Supervisors: ids,
		SupervisorFor: func(t sim.Topic) sim.NodeID {
			if id, ok := ring.OwnerTopic(t); ok {
				return id
			}
			return SupervisorID
		},
	}
	numPools := (cfg.N + cfg.PoolSize - 1) / cfg.PoolSize
	h.subBase = SupervisorID + sim.NodeID(cfg.Supervisors) + sim.NodeID(numPools)
	for j := 0; j < numPools; j++ {
		base := h.subBase + sim.NodeID(j*cfg.PoolSize)
		k := cfg.PoolSize
		if rest := cfg.N - j*cfg.PoolSize; rest < k {
			k = rest
		}
		p := NewPool(sched, base, k, SupervisorID, opts)
		p.Register(sched, SupervisorID+sim.NodeID(cfg.Supervisors)+sim.NodeID(j))
		h.pools = append(h.pools, p)
	}
	return h
}

func (h *failoverHarness) client(i int) *core.Client {
	return h.pools[i/h.cfg.PoolSize].Client(i % h.cfg.PoolSize)
}

// replicasWarm reports whether every live expected replica holder's digest
// matches the owner's database digest for the topic.
func (h *failoverHarness) replicasWarm() bool {
	if h.cfg.ReplicationFactor <= 0 {
		return false
	}
	t := h.cfg.Topic
	owner, ok := h.ring.OwnerTopic(t)
	if !ok {
		return false
	}
	epoch, hash, count, ok := h.sups[owner].DirectoryDigest(t)
	if !ok {
		return false
	}
	for _, id := range h.ring.Successors(hashdht.TopicKey(t), h.cfg.ReplicationFactor) {
		rEpoch, rHash, rCount, held := h.sups[id].HeldReplicaDigest(t)
		if !held || rEpoch != epoch || rCount != count || rHash != hash {
			return false
		}
	}
	return true
}

// RunFailover executes one measurement: join N subscribers, converge,
// settle (replica steady state), crash the topic's owner and time the
// rounds until the successor's database is exact and every subscriber
// reports to it with a non-⊥ label.
func RunFailover(cfg FailoverConfig) FailoverResult {
	cfg = cfg.withDefaults()
	h := newFailoverHarness(cfg)
	defer h.sched.Close()
	t := cfg.Topic
	res := FailoverResult{N: cfg.N, RepFactor: cfg.ReplicationFactor}

	// Prologue: mass join, wait for labels, then for the owner's database
	// to be exact.
	for i := 0; i < cfg.N; i++ {
		id := h.subBase + sim.NodeID(i)
		h.sched.Send(sim.Message{To: id, From: id, Topic: t, Body: core.JoinTopic{}})
	}
	owner, _ := h.ring.OwnerTopic(t)
	setup, ok := h.sched.RunRoundsUntil(cfg.MaxRounds, func() bool {
		return h.sups[owner].N(t) == cfg.N
	})
	res.SetupRounds = setup
	if !ok {
		return res
	}
	h.sched.RunRounds(cfg.SettleRounds)
	res.ReplicaWarm = h.replicasWarm()

	// Record pre-crash labels (the warm path's no-relabelling claim).
	before := make([]label.Label, cfg.N)
	for i := 0; i < cfg.N; i++ {
		before[i] = h.client(i).CurrentLabel(t)
	}

	// Crash the owner; the driver view ring follows, so fresh routing
	// decisions go to the successor (as in cluster.Live.CrashSupervisor).
	h.sched.Crash(owner)
	h.ring.Remove(owner)
	newOwner, _ := h.ring.OwnerTopic(t)

	// Measure: successor database exact AND every subscriber re-homed at a
	// non-⊥ label. The pending-set poll touches only not-yet-re-homed
	// subscribers, so the per-round cost shrinks as the failover proceeds.
	pending := make([]int, cfg.N)
	for i := range pending {
		pending[i] = i
	}
	res.FailoverRounds = -1
	rounds, ok := h.sched.RunRoundsUntil(cfg.MaxRounds, func() bool {
		next := pending[:0]
		for _, i := range pending {
			cl := h.client(i)
			if cl.ReportsTo(t) != newOwner || !cl.Labelled(t) {
				next = append(next, i)
			}
		}
		pending = next
		return len(pending) == 0 && h.sups[newOwner].N(t) == cfg.N
	})
	if !ok {
		return res
	}
	res.FailoverRounds = rounds
	res.Converged = true
	for i := 0; i < cfg.N; i++ {
		if h.client(i).CurrentLabel(t) != before[i] {
			res.Relabelled++
		}
	}
	return res
}
