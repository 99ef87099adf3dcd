// Package chaos is the self-stabilization torture chamber: a declarative,
// seed-reproducible scenario engine that perturbs a running supervised
// publish-subscribe system with composed fault actions and then measures
// whether — and how fast — it converges back to a legal state, with every
// invariant probe passing.
//
// The paper's central theorem (Theorem 8) promises convergence from an
// *arbitrary* initial configuration. Hand-written fault scripts only ever
// test the configurations someone thought of; this package systematically
// explores the rest.
//
// # Model
//
// A Scenario is a list of Actions applied in order to a freshly converged
// system of N subscribers:
//
//   - process faults: crash bursts, restarts (stale state), join/leave churn
//   - supervisor-plane faults (Config.Supervisors > 1): supervisor crashes
//     (the topic's owner first), stale-state supervisor restarts, and
//     corruption of the ownership directory itself (hosting flags and
//     epochs)
//   - channel faults: network partitions and heal, probabilistic message
//     loss/duplication/reordering at the transport layer, wire-frame
//     corruption on the networked substrate
//   - state corruption: supervisor database, subscriber ring/shortcut
//     pointers, trie divergence, ordered-delivery state, warm directory
//     replicas, garbage protocol traffic
//   - pacing: settle periods and mid-fault publications
//
// After the last action the engine force-heals all channel faults (the
// paper's model: faults eventually cease), publishes a fresh delivery wave
// and runs until every invariant probe holds:
//
//   - supervisor-plane ownership convergence (the expected owner — and only
//     it — hosts the topic database; every member reports to it; epochs
//     agree)
//   - warm-replica consistency with the owner's database
//   - exact overlay legitimacy against the unique SR(n) (Definition 2):
//     the supervisor database records exactly the live members, and their
//     left, right and ring pointers form the one legal overlay, so it
//     connects them all
//   - trie structural invariants and cross-member root-hash agreement
//   - delivery completeness of the post-fault publication wave: every
//     member knows each wave publication, and its application received
//     each exactly once
//   - delivery ordering (per-publisher monotonicity, causal coverage,
//     cross-node agreement on the wave's order) in the ordered modes
//
// Every run records each node's application deliveries, in every delivery
// mode; the probes read those traces.
//
// The convergence time — faults ceasing to all-probes-green — is the
// difference of two readings of the substrate's clock, reported per run.
//
// # Substrates
//
// Every scenario runs unchanged on all three execution substrates via the
// sim.Transport abstraction: the deterministic discrete-event engine
// (fully reproducible: a failing seed replays bit-for-bit), the concurrent
// goroutine runtime, and the networked loopback transport where every
// message crosses the wire codec and a real TCP socket. State corruption on
// the live substrates happens under the quiesce barrier, so no handler ever
// observes a torn write.
//
// # Reproducibility and shrinking
//
// Random scenarios are generated from a seed (Generate) and replayed from
// that seed alone. When a random scenario fails on the deterministic
// substrate, Shrink delta-debugs the action list down to a 1-minimal
// failing core: removing any single remaining action makes the failure
// disappear. A Result encodes to JSON with each action's kind by name
// ("crash-sup", not its ordinal), so a failing-seed artifact keeps its
// meaning when the vocabulary changes. On the deterministic substrate
// Config.Trace (`srsim chaos -trace`) writes every delivery and timeout in
// execution order, so two traced runs of one seed are byte-identical.
//
// The engine is exposed as `srsim chaos` (see cmd/srsim) and as the
// chaos_test.go property suite; CI runs the suite on every PR and a long
// random soak nightly.
package chaos
