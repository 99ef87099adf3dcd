// Package cluster assembles a complete supervised publish-subscribe system
// — a supervisor plane plus any number of client nodes — on any execution
// substrate, and is the one harness every driver shares: the public
// System/Simulation facades, the chaos engine, the experiments, the CLIs
// and the tests. The supervisor plane is assembled in exactly one place,
// NewPlane: Live embeds the Plane, and the scale harness, which pools its
// clients instead of registering them one by one, builds its supervisors
// through it. The package provides the legitimacy predicate used by every
// convergence experiment (comparing live protocol state against the unique
// legitimate SR(n) computed by package topology), corruption injectors for
// arbitrary initial states, workload helpers, and the driver surface
// (RunRounds, RunUntil, Freeze, the message counters) whose meaning — what
// a round is, how a consistent snapshot is taken — comes from the substrate.
package cluster

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"sspubsub/internal/core"
	"sspubsub/internal/psim"
	"sspubsub/internal/runtime/concurrent"
	"sspubsub/internal/runtime/nettransport"
	"sspubsub/internal/sim"
)

// SupervisorID is the well-known node ID of the supervisor.
const SupervisorID sim.NodeID = 1

// Driver is what a substrate offers a driver beyond hosting nodes: stepping
// and snapshots (sim.Stepper), channel faults, a random source, and message
// accounting. psim.Engine, concurrent.Runtime and nettransport.Transport
// (through its embedded runtime) implement it; Live promotes it, so
// l.RunRounds, l.Freeze, l.Rand, l.SentBy … work on whichever substrate the
// harness was built on.
type Driver interface {
	sim.Stepper
	sim.FaultInjectable
	// Rand returns the driver's random source, for workload generation and
	// the corruption injectors: the deterministic engine's external stream
	// on sim, a stream seeded from the runtime's seed on the live ones.
	Rand() *rand.Rand
	// Delivered returns the total number of delivered messages.
	Delivered() int64
	// CountByType returns the number of sends per message body type name.
	CountByType(typeName string) int64
	// SentBy returns the number of messages node id has sent so far.
	SentBy(id sim.NodeID) int64
	// ResetCounters zeroes the accounting (measure steady states).
	ResetCounters()
}

// Options describe the system a harness assembles.
type Options struct {
	// Seed drives the deterministic engine NewSim builds; New, which is
	// handed its substrate, ignores it.
	Seed int64
	// ClientOpts configure every client (its DeliveryMode included — the
	// supervisors keep no mode of their own). The plane fills in
	// Supervisors and SupervisorFor.
	ClientOpts core.Options
	// Supervisors is the supervisor-plane size (default 1). With more than
	// one, topics are sharded by consistent hashing and supervisor crashes
	// are recoverable (see internal/supervisor's plane).
	Supervisors int
	// ReplicationFactor is how many hashdht successors each topic owner
	// replicates its directory to (default 0: failover falls back to the
	// Reregister rebuild). Only meaningful with Supervisors > 1.
	ReplicationFactor int
	// Remote means the supervisors live in another process, reachable
	// through the transport: none is started here, clients are routed to
	// the same IDs, and the supervisor-side predicates report "no live
	// supervisor".
	Remote bool
	// FirstClientID is the first client node ID (default: the ID after the
	// supervisor block). A harness joining a deployment spread over several
	// processes sets it to the base of the ID block its transport was
	// granted.
	FirstClientID sim.NodeID
}

// Substrate is an execution substrate with its driver surface.
type Substrate interface {
	sim.Transport
	Driver
}

// NewSubstrate builds the substrate named kind — "sim" (the deterministic
// engine), "concurrent" (goroutine per node) or "net" (loopback TCP behind
// the wire codec). interval is the timeout interval of the live runtimes;
// virtual time ignores it.
func NewSubstrate(kind string, seed int64, interval time.Duration) (Substrate, error) {
	switch kind {
	case "sim":
		return newEngine(seed), nil
	case "concurrent":
		return concurrent.NewRuntime(concurrent.Options{Interval: interval, Seed: seed}), nil
	case "net":
		nt, err := nettransport.NewLoopback(nettransport.Options{Interval: interval, Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("loopback transport: %w", err)
		}
		return nt, nil
	}
	return nil, fmt.Errorf("unknown substrate %q (use sim, concurrent or net)", kind)
}

// newEngine builds the deterministic engine with one worker: it executes
// inline on the driver goroutine, owns no goroutines and needs no Close.
// Below the scale harness' populations a lookahead window holds too little
// work to share — a second worker only adds barrier cost (6.7× slower at
// n = 8; at n = 2 048 `srsim scale` runs every phase equally fast on one
// worker and on two, on the 2-core reference box). Two workers first pay
// at about 10^4 subscribers (1.4–1.7× per phase there), far above any
// population this constructor serves.
func newEngine(seed int64) *psim.Engine {
	return psim.New(psim.Options{Seed: seed, Workers: 1})
}

// NewSim creates a harness on the deterministic engine: same seed, same
// call sequence, bit-identical run.
func NewSim(opts Options) *Live {
	return New(newEngine(opts.Seed), opts)
}

// RunUntil advances round by round until pred holds on a frozen snapshot
// or maxRounds elapsed; it returns the rounds taken and whether pred held.
func (l *Live) RunUntil(maxRounds int, pred func() bool) (int, bool) {
	return sim.RunRoundsUntil(l.Driver, maxRounds, pred)
}

// RunUntilConverged advances rounds until the topic is legitimate with
// exactly n members; it returns the rounds taken and whether convergence
// was reached.
func (l *Live) RunUntilConverged(t sim.Topic, n, maxRounds int) (int, bool) {
	return l.RunUntil(maxRounds, func() bool { return l.ConvergedWith(t, n) })
}

// DumpStates renders every member's state (debugging aid).
func (l *Live) DumpStates(t sim.Topic) string {
	var sb strings.Builder
	for _, id := range l.Members(t) {
		st, _ := l.Clients[id].StateOf(t)
		fmt.Fprintf(&sb, "node %d: label=%s left=%s right=%s ring=%s sc=%v\n",
			id, st.Label, st.Left, st.Right, st.Ring, st.Shortcuts)
	}
	if sup := l.SupFor(t); sup != nil {
		fmt.Fprintf(&sb, "db(owner %d): %v\n", sup.ID(), sup.Snapshot(t))
	} else {
		fmt.Fprintf(&sb, "db: no live supervisor\n")
	}
	return sb.String()
}
