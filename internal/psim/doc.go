// Package psim is the deterministic simulation substrate: a conservative
// parallel discrete-event engine that runs inline on one goroutine for the
// tests, experiments and facades (Workers: 1) and across cores for the
// million-subscriber scale sweeps.
//
// # Model
//
// Nodes (and the scale harness' virtual pool listeners) are partitioned
// across a fixed number of lanes by a deterministic hash of NodeID. Each
// lane owns an event min-heap, a random stream derived from (seed, lane),
// and the exclusive right to execute its nodes' handlers. Virtual time
// advances in lookahead windows of width MinDelay: the transport
// guarantees that a message sent at time t is delivered no earlier than
// t+MinDelay, so two events inside the same window can never causally
// affect one another — which makes every lane's window slice independent
// and safe to execute in parallel. Cross-lane sends are buffered per
// (srcLane, dstLane) during the window and merged at the barrier; every
// event carries a (deliverTime, srcLane, per-lane seq) key assigned at
// creation, so heaps order identically no matter which worker produced
// which event, and the merged schedule is canonical.
//
// A lane's heap holds 24-byte keys — (deliverTime, srcSeq, srcLane) and
// the slot of a slab that holds the event itself — and sifts by moving a
// hole, so an event is written once when queued and read once when it
// runs; the order is total, so the pop sequence is the one any correct
// heap would give. Accounting stays off the delivery path: sends are
// counted per sender and per body type (names resolved only when read),
// deliveries only in a lane total.
//
// # Determinism contract
//
// The schedule identity is (Seed, Lanes, MinDelay, MaxDelay). Two runs
// with the same identity produce bit-identical results — labels, round
// counts, delivery traces, accounting — for ANY value of Workers,
// including Workers=1, which executes the whole schedule inline on the
// calling goroutine with no goroutines at all. Workers is physical
// parallelism only; it can change wall-clock time and nothing else.
// Changing Lanes changes the (still deterministic) schedule, the same way
// changing Seed does.
//
// Randomness rules that uphold the contract: handlers draw from their
// executing lane's stream; per-node timeout phases are pure functions of
// (seed, nodeID); driver injections with an unregistered From draw from a
// dedicated external stream. Nothing ever draws from a stream another
// worker could be advancing.
//
// The identity also holds across architectures: every time computation
// that multiplies and then adds rounds the product explicitly
// (float64(a*b) + c), which blocks the fused multiply-add arm64 would
// otherwise emit and whose extra precision would shift event times.
//
// # Barrier operations
//
// There is no single-event step; the unit of progress is the window.
// Topology mutation (AddNode, AddListener, RemoveNode, Crash), Send with an
// unregistered From, Freeze, fault installation and the accounting
// accessors are barrier operations — call them between Run* calls, never
// from inside a handler. Handlers interact with the engine only through
// their Context.
package psim
