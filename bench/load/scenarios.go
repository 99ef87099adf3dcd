package load

import "time"

// The scenario sizes, shared by the end-to-end and the traced binary so that
// both offer the identical load. They were sized on a two-core box: large
// enough that per-message cost, not set-up, dominates a run of a few
// seconds, small enough that a run's memory stays near half a gigabyte.
const (
	Interval       = 10 * time.Millisecond // SimOptions.Interval of every live workload
	ConvergeRounds = 1500                  // bound on every convergence wait, in intervals

	FanoutSubs           = 32   // subscribers, all of which also publish in rotation
	FanoutPayload        = 64   // bytes: the smallest size, where per-message cost dominates
	FanoutWindow         = 24   // closed-loop publications outstanding in the saturated phase
	FanoutConcurrentRate = 1000 // paced publications per second on the goroutine runtime
	FanoutNetRate        = 500  // and on the net runtime, both well below saturation

	BulkSubs    = 8
	BulkPayload = 4096
	BulkWindow  = 8

	RecoverSubs  = 32
	RecoverCrash = 4 // members crashed, then replaced, per cycle

	PsimSubs = 2048 // simulated subscribers per repetition of the scale scenario
)

// Workload names one of the benchmark's workloads and why it exists.
type Workload struct{ Name, Why string }

// Workloads is the benchmark's fixed set; BENCHMARK.json names the same five.
var Workloads = []Workload{
	{"fanout.concurrent", "32 subscribers, 64-B payloads on the in-process goroutine runtime: the protocol path alone (core, pubsub, trie, mailbox), the base the socket's cost is subtracted from"},
	{"fanout.net", "the same scenario through wire + ring + loopback TCP at the smallest message size, where per-message cost dominates; minus fanout.concurrent it is the socket's cost"},
	{"bulk.net", "8 subscribers, 4-KiB payloads on the net runtime: bytes dominate instead of messages, so a codec or egress change that trades a copy for a frame shows here"},
	{"recover.concurrent", "crash 4 of 32 members, time re-stabilization, regrow: the self-stabilization promise in milliseconds; timeout-bound, so CPU optimisations must leave it flat"},
	{"scale.psim", "mass join, fan-out probe and 1 % crash burst on the parallel deterministic engine: supervisor, core and psim do all the work, wire and the live runtimes none"},
}
