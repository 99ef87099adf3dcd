// Package scale is the million-subscriber measurement harness: it drives
// 10^5–10^6 real-protocol subscribers on one machine by multiplexing
// unmodified core.Client state machines onto physical pool nodes (Pool),
// using the substrate's listener aliasing so every virtual subscriber
// keeps its own node ID on the wire.
//
// The harness exists to measure, empirically, the growth orders the paper
// proves: join latency and publish fan-out in O(log n) rounds, supervisor
// database and trie memory in O(n) bytes with O(log n) per-operation work.
// There is one harness: New builds the engine, the supervisor plane
// (cluster.NewPlane — a single supervisor unless Config.Supervisors says
// otherwise) and the pools. Run executes one scale point on it (mass join
// → fan-out probe → crash burst → re-stabilization) and returns a Result;
// cmd/srsim's scale subcommand sweeps N over decades and fits power-law
// exponents (FitPowerLaw) to the resulting curves. RunFailover runs the
// supervisor-failover measurement on the same harness and the same
// Config: join, settle, crash the topic's owner, count the rounds until
// every subscriber reports to the successor and its database is exact.
//
// A pool is one sequential strand on one engine lane, so the pool size is
// a harness choice that decides how much of a window the engine's workers
// can share, not a protocol one. Pools hold 32 subscribers, a constant:
// at n = 2,048 that is 64 pools, about four per lane of the engine's 16.
// Pools of 1,024 had put every subscriber on two lanes, which capped what
// any worker count could gain at 1.41× (lane work over each window's
// largest lane, Workers: 1, five seeds); pools of 32 allow 4.29×. Fewer subscribers sharing
// one Timeout phase is also closer to the paper's independent per-node
// actions.
//
// Two findings from the first 10^5 run are baked into defaults here:
//
//   - The supervisor database was the first structure to fall over: its
//     per-request O(n) scans and O(n log n) re-sorts made joins/s collapse
//     quadratically. internal/supervisor now maintains an order-indexed
//     treap (O(log n) per operation); see that package.
//   - Stabilization after a crash burst is bounded by the supervisor's
//     round-robin cull sweep, which visits the supervisor's CullPerTimeout
//     entries per interval: with the paper's constant budget it is O(n)
//     rounds by construction, a deployment parameter rather than a
//     protocol property. The harness therefore sets that budget to
//     max(1, N/64), keeping the sweep ~64 rounds at every N so the curves
//     measure the protocol, not the budget.
package scale
