// Package sim provides the distributed-system substrate the paper's
// protocols run on: an asynchronous message-passing model with unbounded,
// loss-free, non-FIFO channels, periodic Timeout actions, node crashes and
// an eventually-correct failure detector (Sections 1.1 and 3.3 of Feldmann
// et al.).
//
// The package holds only the model: the types protocol nodes are written
// against (Handler, Context, Message), the contracts an execution substrate
// fulfils (Transport, Stepper, FaultInjectable) and the one driver loop
// over them (RunRoundsUntil). Three substrates execute the model:
// internal/psim (the deterministic discrete-event engine: virtual time,
// seeded randomness, exact message accounting — tests, experiments and
// benchmarks run on it), internal/runtime/concurrent (one goroutine per
// node, real tickers — the public System runs on it) and
// internal/runtime/nettransport (the same nodes behind the wire codec and
// TCP). Protocol nodes are oblivious to which one drives them.
package sim

import (
	"fmt"
	"math/rand"
)

// NodeID identifies a protocol node. The zero value is ⊥ (no node); the
// supervisor of a system conventionally has ID 1.
type NodeID int64

// None is the ⊥ node reference.
const None NodeID = 0

// Topic identifies one publish-subscribe topic; every message is tagged
// with the topic it refers to (Section 4: "each message contains the topic
// it refers to, such that the receiver can match it to the respective
// BuildSR protocol").
type Topic int32

// Message is an envelope in a node's channel. Body carries one of the
// protocol messages defined in package proto.
type Message struct {
	To    NodeID
	From  NodeID
	Topic Topic
	Body  any
}

// String renders a compact description for traces.
func (m Message) String() string {
	return fmt.Sprintf("%d→%d t%d %T", m.From, m.To, m.Topic, m.Body)
}

// Context is the interface a node uses to interact with the system while
// handling a message or a timeout.
type Context interface {
	// Self returns the executing node's ID.
	Self() NodeID
	// Send puts a message into the channel of node to. Sends to ⊥ or to
	// crashed/unknown nodes are silently dropped (the paper assumes
	// non-corrupted IDs; messages to failed nodes invoke no action).
	Send(to NodeID, topic Topic, body any)
	// Rand returns the node's deterministic random source. It must only be
	// used from within the executing handler.
	Rand() *rand.Rand
	// Now returns the current time in timeout intervals (virtual time on
	// the deterministic engine, wall-clock intervals on the live runtimes).
	Now() float64
}

// Handler is a protocol node: it reacts to messages and to the periodic
// Timeout action (the paper's only spontaneous action).
type Handler interface {
	OnMessage(ctx Context, m Message)
	OnTimeout(ctx Context)
}

// Transport is the execution-substrate contract: everything a protocol
// driver (the public System/Simulation facades, the cluster harness, the
// CLIs) needs in order to host Handlers, independent of whether they run on
// the deterministic engine in internal/psim, the goroutine runtime in
// internal/runtime/concurrent or the networked transport. Handlers
// themselves never see a Transport — they only see Context — so protocol
// code is substrate-agnostic by construction.
type Transport interface {
	// AddNode registers a handler and starts its periodic Timeout action.
	AddNode(id NodeID, h Handler)
	// RemoveNode gracefully deregisters a node; in-flight messages to it
	// are dropped on delivery.
	RemoveNode(id NodeID)
	// Crash fails a node without warning (Section 3.3): it stops executing
	// actions, messages addressed to it vanish, and the failure detector
	// eventually suspects it.
	Crash(id NodeID)
	// Send routes a well-formed message toward its destination mailbox.
	Send(m Message)
	// Close stops the substrate and releases its resources (goroutines,
	// sockets, the parallel engine's worker pool). Close is idempotent; a
	// closed substrate must not be driven any further.
	Close()

	// Transports double as the system-wide failure detector of Section 3.3.
	Detector
}

// Detector is the failure-detector oracle of Section 3.3. Only the
// supervisor consults it. Implementations are eventually correct: a crashed
// node is eventually (and permanently) suspected, and live nodes are never
// suspected.
type Detector interface {
	Suspects(id NodeID) bool
}

// neverSuspects is the detector used when failures are disabled.
type neverSuspects struct{}

func (neverSuspects) Suspects(NodeID) bool { return false }

// NeverSuspects returns a Detector that suspects no one.
func NeverSuspects() Detector { return neverSuspects{} }

// Stepper is how a driver advances a substrate and reads it consistently;
// every substrate implements it next to Transport. It is the one place the
// difference between virtual and wall-clock time lives: drivers written
// against it run unchanged on all substrates.
type Stepper interface {
	// RunRounds advances k timeout intervals: virtual time on the
	// deterministic engine, k·Interval of sleep on the live runtimes.
	RunRounds(k int)
	// Freeze runs f against a consistent cross-node snapshot: directly on
	// the deterministic engine (nothing executes between events), under the
	// quiesce barrier — timeouts paused, mailboxes drained, 100·Interval to
	// get there — on the live runtimes. It reports whether f ran; false
	// means the system never drained. A Freeze from inside f runs directly.
	Freeze(f func()) bool
	// Now returns the substrate's time in timeout intervals.
	Now() float64
}

// RunRoundsUntil advances s round by round until pred holds on a frozen
// snapshot or maxRounds have elapsed, returning the whole rounds elapsed
// and whether pred held. pred is evaluated before the first round and after
// each one; a snapshot that cannot be taken counts as "not yet".
func RunRoundsUntil(s Stepper, maxRounds int, pred func() bool) (rounds int, ok bool) {
	start := s.Now()
	check := func() { ok = pred() } // one closure, not one per round
	for {
		s.Freeze(check)
		// The epsilon absorbs the rounding of k additions of 1.0 to a
		// fractional virtual time; on a wall clock it is a microround.
		rounds = int(s.Now() - start + 1e-6)
		if ok {
			return rounds, true
		}
		if rounds >= maxRounds {
			return maxRounds, false
		}
		s.RunRounds(1)
	}
}

// SplitMix64 is SplitMix64's output function: an odd-constant add, then
// xor-shifts and odd multiplies, each invertible mod 2^64, so it is a
// bijection. The engines, the supervisor and the trie share this one copy.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
