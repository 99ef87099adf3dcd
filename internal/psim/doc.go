// Package psim is the deterministic simulation substrate: a conservative
// parallel discrete-event engine that runs inline on one goroutine for the
// tests, experiments and facades (Workers: 1) and across cores for the
// million-subscriber scale sweeps.
//
// # Model
//
// Nodes (and the scale harness' virtual pool listeners) are partitioned
// across 16 lanes by a deterministic hash of NodeID. Each
// lane owns an event calendar, a random stream derived from (seed, lane),
// and the exclusive right to execute its nodes' handlers. Virtual time
// advances in lookahead windows of width minDelay (0.05 intervals; delays
// are drawn from [0.05, 0.95)): the transport guarantees that a message
// sent at time t is delivered no earlier than t+minDelay, so two events inside the same window can never causally
// affect one another — which makes every lane's window slice independent
// and safe to execute in parallel. Cross-lane sends wait in outboxes per
// (srcLane, dstLane), double-buffered by window parity. The barrier copies
// no event: the driver flips the parity and folds each source lane's
// earliest outbound time, destination mask and count into a summary of
// the inbound set, which window selection reads as it reads a queued
// cell. Each destination lane files its own inbound, with the sending
// window's floor, at the start of its next window slice, so every lane
// with inbound is busy in that window even when the window's cell holds
// none of its events; RunUntil files the last window's inbound before it
// returns, so barrier operations see it queued. During a window lane d
// touches only its own entries of the inbound parity, and sources append
// only to the other parity, so the handoff needs no lock. A driver Send
// on behalf of a registered node goes straight into its destination
// calendar. Every event carries a (deliverTime, srcLane, per-lane seq) key
// assigned at creation, so lanes order identically no matter which worker
// produced which event, and the merged schedule is canonical.
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
// # Node table
//
// Registered nodes and listeners live in a table indexed by NodeID, so
// resolving an ID on the send and delivery paths indexes a slice. The
// table covers IDs 1 … 2^22−1 and grows to the largest ID registered;
// AddNode and AddListener panic on an ID outside that range, so there is
// no second lookup path. Every caller registers small sequential IDs (the
// harnesses number nodes from 1; a scale run at 10^6 subscribers uses
// about 1.03·10^6). A message may still name any ID: one that is not
// registered, however large, resolves to no node and is dropped and
// counted when it falls due.
//
// The table holds its entries by value, each with a registration
// generation (0 while no node is registered under the ID). An event names
// its node by ID only: a delivery looks its destination up when it falls
// due, one slice index, and a listener's owner by the owner's ID; a
// timeout carries the generation its chain was started under and drops
// when the entry's differs, so a crashed or removed node's chain ends and
// a node re-added under the ID runs only its new one. An entry's address
// is good until the next barrier, where the table may grow. Accounting
// stays off the delivery path:
// sends are counted in a counter per node (a departed node's count moves
// to a map at the barrier) and per body type in a small per-lane list
// (names resolved only when read), deliveries only in a lane total.
//
// # Determinism contract
//
// The schedule identity is the Seed; the lane count (16), the delay
// bounds and the detector grace are constants of the engine. Two runs
// with the same seed produce bit-identical results — labels, round
// counts, delivery traces, accounting — for ANY value of Workers,
// including Workers=1, which executes the whole schedule inline on the
// calling goroutine with no goroutines at all. Workers is physical
// parallelism only; it can change wall-clock time and nothing else.
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
// is busy, else the driver and the helper goroutines take them from one
// queue. The driver starts such a window by raising the helpers it needs
// and ends it when the last of them raises it back; a waiting side spins
// briefly before it parks, and parks at once when there are more workers
// than GOMAXPROCS (Engine.runBusy). Close ends the helpers.
// Topology mutation (AddNode, AddListener, RemoveNode, Crash), Send with an
// unregistered From, Freeze, fault installation and the accounting
// accessors are barrier operations — call them between Run* calls, never
// from inside a handler. Handlers interact with the engine only through
// their Context.
package psim
