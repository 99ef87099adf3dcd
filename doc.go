// Package sspubsub is a self-stabilizing supervised publish-subscribe
// system: a Go implementation of Feldmann, Kolb, Scheideler and Strothmann,
// "Self-Stabilizing Supervised Publish-Subscribe Systems" (IPDPS Workshops
// 2018, arXiv:1710.08128).
//
// Subscribers of a topic organize themselves into a supervised skip ring —
// a sorted ring over supervisor-assigned labels plus shortcuts that give
// the overlay logarithmic diameter — with the help of a lightweight,
// always-known supervisor that only stores the (label, subscriber)
// database and answers subscribe/unsubscribe/configuration requests with a
// constant number of messages. The protocol is self-stabilizing: from any
// initial state (corrupted labels, corrupted supervisor database, garbage
// in channels, partitioned components, crashed nodes) the overlay
// converges to the unique legitimate topology and stays there.
// Publications are stored in hashed Patricia tries and reconciled by an
// anti-entropy protocol that compares node digests, so every subscriber of
// a topic eventually holds every publication ever issued for it; a
// flooding layer delivers fresh publications along ring and shortcut edges
// in O(log n) hops, one copy per subscriber down a per-origin forwarding
// tree.
//
// Two entry points are provided:
//
//   - System runs the protocol live for applications: create clients,
//     subscribe to topics, publish payloads and receive deliveries on
//     channels.
//   - Simulation drives research scenarios — corrupted states, crashes,
//     convergence detection, message accounting — on a selectable
//     execution substrate (SimOptions.Runtime).
//
// Protocol nodes are substrate-agnostic: they implement sim.Handler
// against sim.Context, and any sim.Transport can execute them. Three
// transports ship with the package:
//
//   - RuntimeSim, the deterministic discrete-event engine
//     (internal/psim, run inline on the calling goroutine): virtual
//     time, seeded randomness, bit-identical equal-seed replay, exact
//     message accounting. Use it for research, regression tests and
//     anything that must be reproducible.
//   - RuntimeConcurrent, the production goroutine-per-node runtime
//     (internal/runtime/concurrent): loss-free mailboxes that each node
//     drains a whole batch at a time, real-time jittered Timeout ticks,
//     crash and stale-state restart, and a quiesce barrier that freezes
//     the system so convergence predicates read one consistent cross-node
//     snapshot. Use it to exercise true parallelism; System runs on it by
//     default.
//   - RuntimeNet, the networked transport (internal/runtime/nettransport
//     over the internal/wire binary codec): the same goroutine nodes, but
//     every message is a length-prefixed wire frame crossing a real TCP
//     socket. In-process it runs as a loopback (SimOptions.Runtime "net");
//     across processes a hub grants node-ID blocks to joiners and relays
//     their traffic, so one skip ring spans address spaces. Undecodable
//     frames are counted and dropped — corruption becomes message loss,
//     which the protocol self-stabilizes through — and dropped links
//     redial with exponential backoff.
//
// Networked deployment: the serve process creates a System over
// nettransport.NewHub (it hosts the supervisor); every other process
// attaches with Options.Attach and Options.FirstClientID set from its
// nettransport.NewJoiner's granted ID block. See cmd/srsim's serve and
// join subcommands for a complete two-process walkthrough, and
// Subscription.Dropped for observing consumers that lag behind their
// event buffer.
//
// The cross-substrate conformance tests run the same BuildSR scenario on
// all three transports and require identical outcomes, which is
// well-defined because the legitimate state is unique for every member
// count.
//
// # Performance
//
// The message hot path is effectively allocation-free on every
// substrate. The deterministic engine schedules and delivers with zero
// allocations per message (a calendar of per-window buckets that keep
// their capacity and are sorted once per window, reused handler contexts,
// send accounting in per-node counters and a per-lane list of body types
// with names resolved only when read);
// the wire codec encodes frames append-only into pooled or caller-held
// buffers (wire.AppendFrame, wire.WriteFrame) and decodes through a
// per-connection wire.DecodeState whose arena bump-allocates payload
// strings and batch scaffolds; and a concurrent-runtime mailbox reuses its
// batch arrays, swapping them between senders and the node goroutine. The
// networked transport's
// egress is one hop: a send encodes on the sending goroutine straight
// into its link's pending batch (one length-prefixed wire.Batch2 member
// in a reused buffer), and the link's writer puts whatever is pending on
// the socket with one write, parking only when nothing is — batching
// comes from load, not from a timer. On the pinned fan-out benchmark (one
// publication flooded to 16 subscribers, BenchmarkHotPathPublishFanout)
// this cut whole-system allocations per publication by 9.0x on the sim
// substrate, 12.0x on the concurrent runtime and 26x over TCP (647 to 25
// allocs/op), and a 16-way forwarding-tree step over TCP (one publication,
// 16 copies with their own arcs) costs one boxed body per copy on each
// side of the socket, 32 allocations (BenchmarkNetEgressMulticast).
// testing.AllocsPerRun guards in internal/wire, internal/psim,
// internal/runtime/nettransport and the root package hold each layer to
// its budget; the fan-out rows
// (TestPublishFanoutAllocGuard, TestOrderedFanoutAllocBudget,
// TestNetEgressMulticastAllocBudget) allow the committed allocs/op + 15 %,
// and TestRestAllocBudget does the same for a legitimate state's
// periodic work per node and round, where a subscriber whose state did
// not change skips its shortcut reconcile.
// Time is measured only by bench/run.sh (BENCHMARK.json). See the
// README's Performance section for the measured table and the exact
// reproduction commands.
//
// A publication costs each subscriber one message and one SHA-256. Each
// flood body carries the ring arc its receiver must cover, and a node
// forwards once, to the neighbours inside its arc, each with the sub-arc
// between the midpoints to its neighbouring points (internal/pubsub's
// tree.go): on a legitimate ring every subscriber gets exactly one copy,
// where flooding every edge sent three. The trie's node digests are XOR
// folds of their leaves' truncated SHA-256, kept incrementally on the
// path Insert already walks and recomputed from the children whenever
// anti-entropy reads one, so a corrupted digest is repaired by the first
// probe through it. The trade is depth: the tree is deeper than flooding
// every edge (mean height over all origins 4.50 vs 4.12 hops at n = 32,
// 8.84 vs 6.45 at n = 256).
//
// # Scale
//
// internal/scale drives 10^5–10^6 real-protocol subscribers on one
// machine by multiplexing thousands of unmodified client state machines
// onto each physical node: the deterministic engine's AddListener
// aliases every virtual subscriber's node ID onto its hosting pool, so
// each keeps its own identity on the wire while sharing one timeout chain
// and one mailbox. `srsim scale -ns 1000,10000,100000` sweeps the population,
// measures join latency, publish fan-out, post-crash stabilization and
// memory at each point, and fits power-law growth exponents against the
// paper's O(log n) bounds; the table adds each phase's wall seconds, and
// the nightly sweep uploads its output so the scaling trajectory
// accumulates.
// Protocol.HistoryCap (set through Options or SimOptions, which both
// embed Protocol) bounds each subscriber's retained publication history — at these populations an unbounded
// history is the difference between a flat and a linearly growing
// per-node footprint.
//
// The sweeps run on the same engine as everything else, internal/psim, a
// conservative parallel discrete-event executor: nodes are sharded across lanes by a deterministic NodeID hash,
// lanes execute concurrently inside lookahead windows of 0.05 intervals,
// the fixed minimum message delay (a message sent at t cannot deliver
// before t+0.05, so intra-window events never causally interact), and cross-lane sends merge at window
// barriers in a fixed (deliverTime, srcLane, seq) order. Results are
// bit-identical for every -workers value — parallelism buys wall-clock,
// never reproducibility — which CI enforces by diffing full result
// digests between serial and 4-worker runs. -workers 0 is the engine
// default, one worker per CPU; everything but the sweeps runs it with one
// worker, inline. See the README's Scale section for measured curves.
//
// # Supervisor plane
//
// The paper assumes one reliable supervisor. With Protocol.Supervisors > 1
// (Options and SimOptions embed Protocol, the options the two facades
// share) the system instead runs a crash-tolerant supervisor plane: topics are
// sharded over the supervisors by consistent hashing (internal/hashdht),
// the supervisors monitor each other through the system-wide failure
// detector, a crashed supervisor's topics migrate to their hashing
// successors, and each successor rebuilds its topic database from the
// live subscribers (the database is soft state, re-reported through a
// Reregister/OwnerAnnounce handshake that preserves the survivors'
// labels). Ownership eras are ordered by per-topic epochs carried in
// every configuration, so commands from deposed supervisors are
// recognizably stale. System.CrashSupervisor and System.RestartSupervisor
// (and the same pair on Simulation) inject the faults; the legitimacy
// predicates extend to ownership agreement. A single-supervisor system
// takes none of these code paths — this is a deliberate departure from
// the paper's reliable-supervisor assumption, extending the
// self-stabilization guarantee to the one component the paper exempts.
// The plane is assembled in one place, internal/cluster's Plane, which the
// one harness (cluster.Live — a System is names, subscriptions and locking
// over one, a Simulation a thin facade) embeds and the scale harness
// builds its supervisors through.
//
// With Protocol.ReplicationFactor > 0 the plane additionally replicates
// each topic's directory to the topic's hashdht successors: owners
// stream bounded delta batches and run a periodic anti-entropy digest
// exchange (mismatch triggers a bounded-chunk full sync, so an
// arbitrarily corrupted replica converges — the replication protocol is
// itself self-stabilizing, with no unbounded logs). On owner failure the
// successor adopts the warm replica at a fresh epoch and announces
// itself to the recorded subscribers directly, making failover time
// near-constant in the subscriber count; the Reregister rebuild above
// remains the fallback when the replica is stale or absent.
//
// # Delivery modes
//
// Delivery is best-effort by default: every publication reaches every
// subscriber exactly once, in no promised order — the paper's semantics.
// Protocol.DeliveryMode (in Options and SimOptions; `srsim … -mode`)
// selects a stronger discipline for the deployment. ModeFIFO delivers
// each publisher's publications in publish order: publishers stamp a
// per-topic sequence number, subscribers hold out-of-order arrivals in a
// bounded reorder window, and a gap that outlives the window is declared
// lost so the cursor advances — corrupted or wrapped sequence state
// always converges instead of wedging the stream. ModeCausal additionally
// stamps each publication with a bounded causal-barrier summary (the
// publisher's recently-observed publishers and their sequence numbers,
// after VCube-PS) and holds delivery until the barrier is satisfied, with
// a hard cap on tracked publishers and deterministic eviction — O(k)
// state per subscriber, never a full vector clock. The ordering state is
// itself self-stabilizing: the corrupt-ordering chaos fault scrambles
// cursors, barriers and publisher sequence counters, and the
// delivery-ordering probe (per-origin sequence monotonicity, causal
// coverage, cross-node agreement on delivery order) verifies convergence
// under reorder/dup/loss on every substrate. Steady-state cost on the
// pinned 16-subscriber fan-out (TestOrderedFanoutAllocBudget, budgeted
// like the hot path): FIFO adds zero allocations per publication over
// best-effort (43.0 vs 43.0) and causal adds four (47.0), at identical p95
// delivery rounds. When anti-entropy delivers a publication before its
// sequenced tree copy arrives, the copy only moves the publisher's cursor
// (ordering.Buffer.Known), so later publications are not held behind it.
// The sequence number and barrier ride the one flood message, PublishNew,
// and the mode lives only in each client's configuration: supervisors
// neither record nor replicate it. Best-effort deployments take none of
// these code paths.
//
// # Chaos testing
//
// Simulation.Restart brings a crashed subscriber back with its stale
// state (an arbitrary initial configuration, Theorem 8's premise),
// Simulation.SetMessageFault installs a transport-layer fault filter
// (loss, duplication, reordering, partitions) on any substrate, and
// Simulation.CrashSupervisor / Simulation.RestartSupervisor fail and
// revive members of the supervisor plane. The full chaos machinery —
// declarative scenarios, seed-reproducible random generation, invariant
// probes (including ownership convergence), convergence-time measurement
// and a failure shrinker — lives in internal/chaos and is exposed as
// `srsim chaos`; see the README's "Chaos & self-stabilization testing"
// section.
//
// The packages under internal/ hold the building blocks (label algebra,
// the BuildSR subscriber and supervisor protocols, the Patricia trie, the
// static topology oracle and the baseline overlays used by the
// experiments). internal/experiments reproduces every quantitative claim
// in the paper (E1–E14 and ablations A1–A3; `go run ./cmd/experiments`),
// and its testdata/quick.golden pins the -quick tables byte for byte. Every
// stabilization action of the subscriber protocol is a named core.Rule
// whose firings are always counted: core.Client.RuleCounts reads one node,
// cluster.Live.RuleCounts sums a harness, and E14 prints the firings per
// node per round at rest and after a crash.
package sspubsub
