// Package ordering implements the per-topic delivery modes of the
// publish-subscribe layer: best-effort (the paper's unordered delivery),
// FIFO per publisher, and causal broadcast in the style of VCube-PS.
//
// The defining constraint is that ordering metadata must stabilize like
// every other piece of protocol state: it is bounded, corruption-tolerant
// and convergent — never an unbounded vector clock, never a cursor that
// can deadlock delivery forever.
//
//   - FIFO keeps one bounded cursor per recent publisher: the next
//     expected sequence number. Arrivals inside the reorder window buffer
//     until the gap fills; a gap that survives past the window is declared
//     loss and the cursor advances, so a corrupted or wrapped publisher
//     counter converges instead of wedging the stream. An arrival below
//     the cursor is delivered flagged, and one more than Window below it
//     also resyncs the cursor downward — the repair for a cursor
//     scrambled upward or a publisher counter that regressed.
//   - Causal attaches a bounded barrier summary to each publication: up
//     to BarrierCap (origin, seq) entries naming the highest sequences
//     the publisher had delivered from other recent publishers
//     (deterministic eviction keeps the summary O(k) regardless of
//     history). A receiver holds a publication until its own cursors
//     cover the barrier; held publications live in a bounded pending set
//     and are force-delivered (flagged, so ordering probes exempt them)
//     after ForceAfter ticks — causality is enforced when the metadata is
//     healthy and degrades to bounded-delay delivery when it is not.
//
// The buffer keeps no duplicate filter: the trie is the one record of which
// publications are known, and the engine hands the buffer a publication only
// when the trie has just stored it as new (plus, through Known, the one
// sequenced copy of a publication anti-entropy delivered first). A second,
// distinct publication reusing a delivered sequence number is therefore
// delivered too, flagged — never mistaken for a duplicate and lost.
//
// Deliveries escape the ordering guarantees in exactly two marked ways:
// Meta.Recovered (the publication arrived through anti-entropy
// reconciliation, which carries no sequencing) and Meta.Forced (the
// self-stabilization machinery released it: declared loss, resync,
// pending-set overflow or age-out). The chaos delivery-ordering probe
// asserts the FIFO/causal invariants over all other deliveries.
package ordering

import (
	"fmt"
	"strings"

	"sspubsub/internal/proto"
)

// Mode selects a topic's delivery discipline.
type Mode uint8

const (
	// BestEffort is the paper's delivery: publications are handed to the
	// application the moment they are first stored, in arrival order.
	BestEffort Mode = iota
	// FIFO delivers each publisher's publications in publication order
	// (per-publisher sequence numbers, bounded reorder window).
	FIFO
	// Causal delivers respecting causal precedence across publishers, as
	// summarized by bounded causal barriers, and implies FIFO per
	// publisher.
	Causal
)

// String names the mode the way flags and scenario notes spell it.
func (m Mode) String() string {
	switch m {
	case BestEffort:
		return "besteffort"
	case FIFO:
		return "fifo"
	case Causal:
		return "causal"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// ParseMode parses a mode name as accepted by srsim's -mode flag.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "besteffort", "best-effort":
		return BestEffort, nil
	case "fifo":
		return FIFO, nil
	case "causal":
		return Causal, nil
	}
	return BestEffort, fmt.Errorf("unknown delivery mode %q (use besteffort, fifo or causal)", s)
}

// Bounds of the self-stabilizing ordering state. All per-subscriber
// ordering memory is O(MaxPublishers·Window + PendingCap) regardless of
// history length.
const (
	// Window is the reorder window: a sequence this far past the cursor
	// declares the gap lost and advances, and one more than this far
	// below it resyncs the cursor downward.
	Window = 64
	// MaxPublishers caps the tracked per-publisher cursors; the
	// least-recently-touched cursor is evicted deterministically.
	MaxPublishers = 16
	// BarrierCap caps the causal barrier entries attached to a
	// publication (the highest-sequence cursors win, deterministically).
	BarrierCap = 4
	// PendingCap bounds the held-publication set; overflow force-delivers
	// the oldest entry.
	PendingCap = 128
	// ForceAfter is the age, in ticks, past which a held publication is
	// force-delivered even though its gap or barrier is unsatisfied.
	ForceAfter = 8
)

// Meta annotates one delivery with its ordering provenance.
type Meta struct {
	// Seq is the publisher-assigned sequence number (0 on best-effort
	// deliveries, which carry none).
	Seq uint64
	// Recovered marks a delivery from the anti-entropy reconciliation
	// path, which carries no ordering metadata. Exempt from the ordering
	// invariants.
	Recovered bool
	// Forced marks a delivery released by the self-stabilization
	// machinery (a below-cursor arrival, cursor resync, pending overflow
	// or age-out) rather than by a satisfied ordering condition. Exempt from
	// the ordering invariants.
	Forced bool
	// Barrier is the causal barrier the publication carried (causal mode
	// only; nil otherwise).
	Barrier []proto.BarrierEntry
}
