package chaos

import "fmt"

// Kind enumerates the fault-action vocabulary.
type Kind uint8

const (
	// Settle runs the system for Rounds timeout intervals with whatever
	// faults are currently installed.
	Settle Kind = iota
	// CrashBurst crashes Count random members without warning (never the
	// supervisor; at least two members always survive).
	CrashBurst
	// RestartAll restarts every crashed member with the stale state it
	// crashed with (Count > 0 restarts at most Count of them).
	RestartAll
	// JoinBurst adds Count fresh clients and subscribes them.
	JoinBurst
	// LeaveBurst starts the unsubscribe handshake for Count random members
	// (at least two members always remain).
	LeaveBurst
	// Partition splits supervisor + members into K groups; messages
	// crossing group boundaries are dropped until Heal.
	Partition
	// Heal removes all installed channel faults (partition, loss,
	// duplication, reordering, wire corruption).
	Heal
	// Loss drops each non-local message with probability Rate until Heal.
	Loss
	// Duplicate delivers each message twice with probability Rate until
	// Heal.
	Duplicate
	// Reorder delays each message by several intervals with probability
	// Rate until Heal, letting newer traffic overtake it.
	Reorder
	// WireGarbage corrupts outgoing wire frames with probability Rate on
	// the networked substrate (the receiver sees undecodable garbage); on
	// the other substrates it degrades to GarbageTraffic with Count
	// messages, so the scenario stays meaningful everywhere.
	WireGarbage
	// GarbageTraffic sends Count corrupted protocol messages (stale
	// tuples, wrong labels, bogus trie summaries) to random members.
	GarbageTraffic
	// CorruptStates overwrites every member's ring/shortcut state with
	// pseudo-random garbage (Section 3.2's arbitrary states).
	CorruptStates
	// CorruptDB injects the four supervisor-database corruption cases of
	// Section 3.1.
	CorruptDB
	// CorruptTries inserts Count fabricated publications directly into
	// random members' tries, forcing divergence only anti-entropy can heal.
	CorruptTries
	// SplitStates forces members into K self-consistent unrecorded chains
	// and wipes the database (the hard case of Section 3.2.1).
	SplitStates
	// Publish makes Count random members publish mid-scenario (the
	// payloads may be lost to crashes; agreement is still enforced by the
	// trie probe).
	Publish
	// CrashSupervisor crashes Count supervisors without warning — the
	// topic's current owner first (crashing only bystanders would not
	// exercise failover), then random others; at least one supervisor
	// always survives. A no-op on a single-supervisor plane.
	CrashSupervisor
	// RestartSupervisors restarts every crashed supervisor with the stale
	// plane state (epochs, hosting flags, deposed database) it crashed
	// with; the restored owner must reclaim its topics at a fresh epoch.
	RestartSupervisors
	// CorruptDirectory scrambles a random live supervisor's ownership
	// directory: hosting flags dropped or fabricated, epochs regressed,
	// the routing cache poisoned. A no-op on a single-supervisor plane.
	CorruptDirectory
	// CorruptReplica scrambles a warm directory replica on one of the
	// topic's expected replica holders: bogus entries, amnesia, or a
	// poisoned digest/era. Anti-entropy must detect and repair it. A safe
	// no-op when ReplicationFactor is 0 or the plane has one supervisor.
	CorruptReplica
	// CorruptOrdering scrambles every subscriber's ordered-delivery state
	// (FIFO cursors, causal coverage positions, pending buffers) and the
	// publishers' sequence counters. The ordering layer must re-converge
	// to clean in-order delivery in a fresh monotonicity epoch. A safe
	// no-op in best-effort mode, so random scenarios stay valid on every
	// configuration.
	CorruptOrdering
)

var kindNames = [...]string{
	Settle:             "settle",
	CrashBurst:         "crash",
	RestartAll:         "restart",
	JoinBurst:          "join",
	LeaveBurst:         "leave",
	Partition:          "partition",
	Heal:               "heal",
	Loss:               "loss",
	Duplicate:          "dup",
	Reorder:            "reorder",
	WireGarbage:        "wire-garbage",
	GarbageTraffic:     "garbage",
	CorruptStates:      "corrupt-states",
	CorruptDB:          "corrupt-db",
	CorruptTries:       "corrupt-tries",
	SplitStates:        "split-states",
	Publish:            "publish",
	CrashSupervisor:    "crash-sup",
	RestartSupervisors: "restart-sups",
	CorruptDirectory:   "corrupt-directory",
	CorruptReplica:     "corrupt-replica",
	CorruptOrdering:    "corrupt-ordering",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalText encodes the kind as its name, so serialized actions (the
// failing-seed JSONL of `srsim chaos -failures-out`) do not depend on the
// iota order.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText decodes a kind name; an unknown name is an error.
func (k *Kind) UnmarshalText(b []byte) error {
	for i, name := range kindNames {
		if name == string(b) {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("chaos: unknown action kind %q", b)
}

// Action is one step of a scenario script. Which fields matter depends on
// the kind; unused fields are ignored.
type Action struct {
	Kind   Kind
	Count  int     // crash/join/leave/garbage/trie/publish volume
	K      int     // partition / split-states group count
	Rate   float64 // loss/dup/reorder/wire-garbage probability
	Rounds int     // settle duration in timeout intervals
}

// String renders the action compactly for logs and shrink reports.
func (a Action) String() string {
	switch a.Kind {
	case Settle:
		return fmt.Sprintf("settle(%d)", a.Rounds)
	case Partition, SplitStates:
		return fmt.Sprintf("%s(k=%d)", a.Kind, a.K)
	case Loss, Duplicate, Reorder, WireGarbage:
		return fmt.Sprintf("%s(%.2f)", a.Kind, a.Rate)
	case Heal, CorruptStates, CorruptDB, RestartSupervisors, CorruptDirectory, CorruptReplica, CorruptOrdering:
		return a.Kind.String()
	default:
		return fmt.Sprintf("%s(%d)", a.Kind, a.Count)
	}
}

// isFault reports whether the action perturbs the system (everything
// except pacing actions); the stopwatch records fault times from these.
func (a Action) isFault() bool {
	switch a.Kind {
	case Settle, Publish, Heal, RestartAll, RestartSupervisors:
		return false
	}
	return true
}
