package scale

import "sspubsub/internal/label"

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

// RunFailover executes one supervisor-failover measurement: a plane of
// cfg.Supervisors supervisors (default 4) hosts cfg.N pooled subscribers on
// one topic; they join and converge, the system settles (replica steady
// state), the topic's owner is crashed, and the rounds are counted until
// every subscriber reports to the successor with a non-⊥ label and the
// successor's database is exact. MaxRounds defaults to 8192 — the cold
// rebuild at 10^5 subscribers is dominated by the subscribers' ratcheting
// staleness probes, which is exactly the cost the warm path is built to
// avoid.
func RunFailover(cfg Config) FailoverResult {
	if cfg.Supervisors == 0 {
		cfg.Supervisors = 4
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = 8192
	}
	h := New(cfg)
	defer h.Sched.Close()
	cfg = h.Cfg
	res := FailoverResult{N: cfg.N, RepFactor: h.RepFactor, FailoverRounds: -1}

	// Prologue: mass join, then wait for the owner's database to be exact.
	h.JoinAll()
	var ok bool
	if res.SetupRounds, ok = h.AwaitDBSize(cfg.N); !ok {
		return res
	}
	h.Sched.RunRounds(failoverSettleRounds)
	res.ReplicaWarm = h.RepFactor > 0 && h.ReplicasConverged(topic)

	// Record pre-crash labels (the warm path's no-relabelling claim).
	before := make([]label.Label, cfg.N)
	for i := range before {
		before[i] = h.Client(i).CurrentLabel(topic)
	}

	// Crash the owner; the plane's view ring follows, so fresh routing
	// decisions go to the successor.
	owner, _ := h.ExpectedOwner(topic)
	h.CrashSupervisor(owner)
	newOwner, _ := h.ExpectedOwner(topic)

	// Measure: every subscriber re-homed at a non-⊥ label, then the
	// successor's database exact.
	rehomed, ok := h.await(func(i int) bool {
		cl := h.Client(i)
		return cl.ReportsTo(topic) == newOwner && cl.Labelled(topic)
	})
	if !ok {
		return res
	}
	exact, ok := h.AwaitDBSize(cfg.N)
	if !ok {
		return res
	}
	last := 0
	for _, r := range rehomed {
		last = max(last, r)
	}
	res.FailoverRounds = last + exact
	res.Converged = true
	for i, l := range before {
		if h.Client(i).CurrentLabel(topic) != l {
			res.Relabelled++
		}
	}
	return res
}
