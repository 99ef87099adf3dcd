// Package psim is the deterministic simulation substrate: a conservative
// parallel discrete-event engine that runs inline on one goroutine for the
// tests, experiments and facades (Workers: 1) and across cores for the
// million-subscriber scale sweeps.
//
// # Model
//
// Nodes (and the scale harness' virtual pool listeners) are partitioned
// across a fixed number of lanes by a deterministic hash of NodeID. Each
// lane owns an event calendar, a random stream derived from (seed, lane),
// and the exclusive right to execute its nodes' handlers. Virtual time
// advances in lookahead windows of width minDelay (0.05 intervals; delays
// are drawn from [0.05, 0.95)): the transport guarantees that a message
// sent at time t is delivered no earlier than t+minDelay, so two events inside the same window can never causally
// affect one another — which makes every lane's window slice independent
// and safe to execute in parallel. Cross-lane sends are buffered per
// (srcLane, dstLane) during the window and filed into the destination
// lanes' calendars at the barrier, which is the only handoff per window;
// every event carries a (deliverTime, srcLane, per-lane seq) key assigned
// at creation, so lanes order identically no matter which worker produced
// which event, and the merged schedule is canonical.
//
// # Calendar
//
// A lane's calendar is a ring of buckets, one per lookahead window (a
// calendar queue, Brown 1988, whose day is the window): an event goes to
// the bucket of the W-grid cell that window selection would choose for
// it, computed with the same floating-point expression. No event created
// in window k lands in window k — the lookahead puts it later, minDelay is
// below the one-interval timeout period, and a time that rounds into
// cell k is filed one cell on — so a window's bucket is complete when the
// window starts; the window sorts it once by (deliverTime, srcLane, seq)
// and runs it in that order, and what a RunUntil target cuts off stays in
// the bucket, in order. The ring doubles when an event lands beyond it
// (FaultDelay's extra one to four intervals); there is no horizon to tune. Buckets
// keep their capacity, so the steady state allocates nothing.
//
// A delivery resolves its destination once, at send: the event carries
// the node it resolved to, and a listener carries its owner's. Crash and
// RemoveNode mark a node dead, and only a dead or unresolved destination
// is looked up again by ID at delivery, so the outcome is the one a
// per-delivery lookup would give. Accounting stays off the delivery path:
// sends are counted in a counter per node (a departed node's count moves
// to a map at the barrier) and per body type in a small per-lane list
// (names resolved only when read), deliveries only in a lane total.
//
// # Determinism contract
//
// The schedule identity is (Seed, Lanes); the delay bounds and the
// detector grace are constants of the engine. Two runs
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
// There is no single-event step; the unit of progress is the window. A
// window runs only its busy lanes: inline when Workers is 1 or one lane
// is busy, else the driver and the pool goroutines take them from one
// queue.
// Topology mutation (AddNode, AddListener, RemoveNode, Crash), Send with an
// unregistered From, Freeze, fault installation and the accounting
// accessors are barrier operations — call them between Run* calls, never
// from inside a handler. Handlers interact with the engine only through
// their Context.
package psim
