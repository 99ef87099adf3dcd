package sspubsub

import (
	"fmt"
	"time"

	"sspubsub/internal/cluster"
	"sspubsub/internal/core"
	"sspubsub/internal/ordering"
	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
)

// RuntimeKind selects the execution substrate protocol nodes run on.
type RuntimeKind string

const (
	// RuntimeSim is the deterministic discrete-event engine (internal/psim,
	// run inline on the calling goroutine): virtual time, seeded
	// randomness, exact reproducibility. The default.
	RuntimeSim RuntimeKind = "sim"
	// RuntimeConcurrent is the live goroutine-per-node runtime: real-time
	// jittered timeouts, unbounded mailboxes, true parallelism. Runs are
	// not reproducible, but exercise the protocol under genuine
	// concurrency.
	RuntimeConcurrent RuntimeKind = "concurrent"
	// RuntimeNet is the loopback networked transport: the same goroutine
	// nodes as RuntimeConcurrent, but every message — including
	// node-to-node within the process — is encoded with the internal/wire
	// codec and crosses a real TCP socket. The closest single-process
	// approximation of a deployed multi-process system.
	RuntimeNet RuntimeKind = "net"
)

// SimOptions configure a Simulation.
type SimOptions struct {
	// Runtime picks the substrate (default RuntimeSim). Every control works
	// on every substrate; on the live ones the corruption injectors
	// (CorruptSubscriberStates, CorruptSupervisorDB, InjectGarbageMessages,
	// PartitionStates) run under the quiesce barrier.
	Runtime RuntimeKind
	// Interval is the real-time length of one timeout interval on
	// RuntimeConcurrent and RuntimeNet (default 2ms). Ignored by
	// RuntimeSim, where a round is a unit of virtual time.
	Interval time.Duration
	// Seed makes RuntimeSim runs fully reproducible and seeds the
	// per-node randomness on the live substrates.
	Seed int64
	// Protocol holds the options shared with the live System's Options:
	// HistoryCap, DeliveryMode, Supervisors and ReplicationFactor, with the
	// same meaning on every substrate.
	Protocol
	// OnDeliver, if non-nil, observes every publication delivery as
	// (subscriber, topic, payload), after the DeliveryMode discipline has
	// released it — with ModeFIFO each publisher's payloads arrive at every
	// subscriber in publish order. It runs inside the protocol handlers (on
	// node goroutines under the live substrates, so it must be safe for
	// concurrent use) and must not call back into the Simulation.
	OnDeliver func(node NodeID, t Topic, payload string)
}

// NodeID identifies a simulated subscriber node.
type NodeID = sim.NodeID

// Topic identifies a topic in a Simulation.
type Topic = sim.Topic

// Simulation runs the full protocol stack (supervisor, subscribers,
// publication engines) on a chosen substrate and exposes the research
// controls used by the paper-reproduction experiments: corrupted initial
// states, crashes, convergence detection against the exact legitimate
// topology, and message accounting. On the live runtimes the same scenario
// API drives real goroutines, with every state read and every corruption
// taken under the quiesce barrier; a "round" is then one wall-clock timeout
// interval.
type Simulation struct {
	h    *cluster.Live
	kind RuntimeKind
}

// NewSimulation creates an empty system (supervisor only) on the substrate
// selected by opts.Runtime. RuntimeNet panics if the loopback listener
// cannot be opened (no 127.0.0.1 available).
func NewSimulation(opts SimOptions) *Simulation { return newSimulation(opts, opts.harness()) }

// newSimulation builds the simulation opts describe on harness options ho,
// which the allocation budgets derive from opts.Protocol with anti-entropy
// switched off.
func newSimulation(opts SimOptions, ho cluster.Options) *Simulation {
	if f := opts.OnDeliver; f != nil {
		ho.ClientOpts.OnDeliverTrace = func(node sim.NodeID, t sim.Topic, p proto.Publication, _ ordering.Meta) {
			f(node, t, p.Payload)
		}
	}
	ivl := opts.Interval
	if ivl == 0 {
		ivl = 2 * time.Millisecond
	}
	kind := opts.Runtime
	if kind == "" {
		kind = RuntimeSim
	}
	tr, err := cluster.NewSubstrate(string(kind), opts.Seed, ivl)
	if err != nil {
		panic(fmt.Sprintf("sspubsub: %v", err))
	}
	return &Simulation{h: cluster.New(tr, ho), kind: kind}
}

// Close stops the substrate. It must be called on the live runtimes to
// terminate the node goroutines; RuntimeSim owns none, so there it
// releases nothing.
func (s *Simulation) Close() { s.h.Tr.Close() }

// Runtime returns which substrate the simulation runs on.
func (s *Simulation) Runtime() RuntimeKind { return s.kind }

// AddSubscribers creates n subscriber nodes and returns their IDs.
func (s *Simulation) AddSubscribers(n int) []NodeID { return s.h.AddClients(n) }

// Join subscribes a node to a topic.
func (s *Simulation) Join(id NodeID, t Topic) { s.h.Join(id, t) }

// JoinAll subscribes every node to the topic.
func (s *Simulation) JoinAll(t Topic) { s.h.JoinAll(t) }

// Leave starts an unsubscribe handshake.
func (s *Simulation) Leave(id NodeID, t Topic) { s.h.Leave(id, t) }

// Crash fails a node without warning (Section 3.3).
func (s *Simulation) Crash(id NodeID) { s.h.Crash(id) }

// Publish makes a node publish a payload.
func (s *Simulation) Publish(id NodeID, t Topic, payload string) { s.h.Publish(id, t, payload) }

// RunRounds advances by k timeout intervals: virtual on RuntimeSim,
// wall-clock on the live runtimes.
func (s *Simulation) RunRounds(k int) { s.h.RunRounds(k) }

// RunUntilConverged advances until topic t is in its legitimate state with
// exactly n members, returning the rounds taken and success. On the live
// runtimes the legitimacy predicate is evaluated under the quiesce barrier
// once per interval, so the snapshot is exact.
func (s *Simulation) RunUntilConverged(t Topic, n, maxRounds int) (int, bool) {
	return s.h.RunUntilConverged(t, n, maxRounds)
}

// RunUntil advances round by round until pred returns true or maxRounds
// elapsed; pred is evaluated between rounds (under the quiesce barrier on
// the live runtimes).
func (s *Simulation) RunUntil(maxRounds int, pred func() bool) (int, bool) {
	return s.h.RunUntil(maxRounds, pred)
}

// frozen evaluates pred on a consistent snapshot. If a live system does
// not drain within a generous window (livelock, a fault filter that keeps
// traffic circulating), the check conservatively reports false.
func (s *Simulation) frozen(pred func() bool) bool {
	ok := false
	s.h.Freeze(func() { ok = pred() })
	return ok
}

// explained evaluates an Explain-style report on a consistent snapshot.
func (s *Simulation) explained(report func() string) string {
	out := "system did not quiesce"
	s.h.Freeze(func() { out = report() })
	return out
}

// Converged reports whether topic t is currently legitimate.
func (s *Simulation) Converged(t Topic) bool {
	return s.frozen(func() bool { return s.h.Converged(t) })
}

// Explain describes the first legitimacy violation, or returns "".
func (s *Simulation) Explain(t Topic) string {
	return s.explained(func() string { return s.h.Explain(t) })
}

// ReplicasConverged reports whether every expected warm replica of t
// matches the owner's directory digest (trivially true when
// SimOptions.ReplicationFactor is 0).
func (s *Simulation) ReplicasConverged(t Topic) bool {
	return s.frozen(func() bool { return s.h.ReplicasConverged(t) })
}

// ExplainReplication describes the first replica-convergence violation
// for t, or returns "" when all replicas are warm.
func (s *Simulation) ExplainReplication(t Topic) string {
	return s.explained(func() string { return s.h.ExplainReplication(t) })
}

// TriesEqual reports whether all members hold identical publication sets.
func (s *Simulation) TriesEqual(t Topic) bool {
	return s.frozen(func() bool { return s.h.TriesEqual(t) })
}

// AllHavePubs reports whether every member knows at least k publications.
func (s *Simulation) AllHavePubs(t Topic, k int) bool {
	return s.frozen(func() bool { return s.h.AllHavePubs(t, k) })
}

// Publications returns the publication payloads known to a node.
func (s *Simulation) Publications(id NodeID, t Topic) []string {
	cl, ok := s.clientOf(id)
	if !ok {
		return nil
	}
	pubs := cl.Publications(t)
	out := make([]string, len(pubs))
	for i, p := range pubs {
		out[i] = p.Payload
	}
	return out
}

// Degree returns a node's current overlay degree.
func (s *Simulation) Degree(id NodeID, t Topic) int {
	cl, ok := s.clientOf(id)
	if !ok {
		return 0
	}
	return cl.Degree(t)
}

// Label returns a node's current overlay label for t ("⊥" when absent).
func (s *Simulation) Label(id NodeID, t Topic) string {
	cl, ok := s.clientOf(id)
	if !ok {
		return "⊥"
	}
	st, ok := cl.StateOf(t)
	if !ok {
		return "⊥"
	}
	return st.Label.String()
}

func (s *Simulation) clientOf(id NodeID) (*core.Client, bool) {
	cl, ok := s.h.Clients[id]
	return cl, ok
}

// The corruption injectors below run under the quiesce barrier, drawing
// from the substrate's driver random source. On RuntimeSim the barrier is
// a direct call, so seeded runs stay reproducible. Each reports whether it
// ran: false means a live system never drained, and nothing was injected.

// CorruptSubscriberStates overwrites all member states with garbage.
func (s *Simulation) CorruptSubscriberStates(t Topic) bool {
	return s.h.Freeze(func() { s.h.CorruptSubscriberStates(t, s.h.Rand()) })
}

// CorruptSupervisorDB injects the four database corruption cases.
func (s *Simulation) CorruptSupervisorDB(t Topic) bool {
	return s.h.Freeze(func() { s.h.CorruptSupervisorDB(t, s.h.Rand()) })
}

// InjectGarbageMessages seeds the channels with corrupted messages, spread
// over the following round.
func (s *Simulation) InjectGarbageMessages(t Topic, count int) bool {
	return s.h.Freeze(func() { s.h.SendGarbageMessages(t, count, s.h.Rand()) })
}

// PartitionStates splits the members into k self-consistent, unrecorded
// components (the hard initial state of Section 3.2.1).
func (s *Simulation) PartitionStates(t Topic, k int) bool {
	return s.h.Freeze(func() { s.h.PartitionStates(t, k) })
}

// Restart brings a previously crashed subscriber back with exactly the
// stale state it crashed with — an arbitrary initial state for the
// self-stabilization machinery to repair. It reports false when the node
// was never crashed (or was already restarted). Works on every substrate.
func (s *Simulation) Restart(id NodeID) bool { return s.h.Restart(id) }

// SupervisorIDs returns the static supervisor plane (node IDs
// 1 … SimOptions.Supervisors), crashed or not.
func (s *Simulation) SupervisorIDs() []NodeID {
	return append([]NodeID(nil), s.h.SupIDs...)
}

// CrashSupervisor fails a supervisor without warning (by node ID; see
// SupervisorIDs). Its topics are orphaned until the surviving peers'
// failure detector migrates them to their hashdht successors, which
// rebuild the topic databases from the live subscribers. It reports false
// for unknown or already-crashed supervisors, and refuses to crash the
// last live supervisor (mirroring System.CrashSupervisor — a plane with
// no live member owns nothing and cannot converge). Works on every
// substrate.
func (s *Simulation) CrashSupervisor(id NodeID) bool {
	return s.h.CrashSupervisor(id)
}

// RestartSupervisor brings a crashed supervisor back with the stale plane
// state it crashed with; the ownership machinery lets it reclaim its
// topics at a fresh epoch. It reports false when the supervisor was not
// crashed.
func (s *Simulation) RestartSupervisor(id NodeID) bool {
	return s.h.RestartSupervisor(id)
}

// FaultAction is the verdict a message-fault filter returns; see the
// Fault* constants.
type FaultAction = sim.FaultAction

// Fault filter verdicts: deliver unchanged, lose the message, deliver it
// twice, or hold it back so later traffic overtakes it.
const (
	FaultDeliver = sim.FaultDeliver
	FaultDrop    = sim.FaultDrop
	FaultDup     = sim.FaultDup
	FaultDelay   = sim.FaultDelay
)

// SetMessageFault installs (or clears, with nil) a transport-layer fault
// filter consulted for every message: chaos experiments use it to model
// lossy, duplicating, reordering or partitioned channels (Section 3.3's
// adversarial channel). On the live substrates the filter runs on the
// sending goroutine and must be safe for concurrent use. Driver control
// commands are ordinary self-sends — exempt them (from == to) unless the
// experiment really wants to sever its own controls.
func (s *Simulation) SetMessageFault(f func(from, to NodeID, topic Topic) FaultAction) {
	var ff sim.FaultFunc
	if f != nil {
		ff = func(m sim.Message) sim.FaultAction { return f(m.From, m.To, m.Topic) }
	}
	s.h.SetFault(ff)
}

// MessagesDelivered returns the total messages delivered so far.
func (s *Simulation) MessagesDelivered() int64 { return s.h.Delivered() }

// MessagesByType returns the count of sends for a protocol message type
// name, e.g. "proto.GetConfiguration".
func (s *Simulation) MessagesByType(name string) int64 { return s.h.CountByType(name) }

// SentBy returns the number of messages a node has sent.
func (s *Simulation) SentBy(id NodeID) int64 { return s.h.SentBy(id) }

// SupervisorSent returns the number of messages the supervisor has sent.
func (s *Simulation) SupervisorSent() int64 { return s.SentBy(cluster.SupervisorID) }

// ResetCounters zeroes the message accounting (measure steady states).
func (s *Simulation) ResetCounters() { s.h.ResetCounters() }

// Members returns the nodes currently subscribed to t.
func (s *Simulation) Members(t Topic) []NodeID { return s.h.Members(t) }

// Now returns the current time in timeout intervals: virtual on
// RuntimeSim, wall-clock on the live runtimes.
func (s *Simulation) Now() float64 { return s.h.Now() }

// Cluster exposes the underlying harness for advanced experiments, on
// every substrate. On the live runtimes its state reads and writes belong
// under its Freeze.
func (s *Simulation) Cluster() *cluster.Live { return s.h }
