package ordering

import (
	"math/rand"
	"sort"

	"sspubsub/internal/sim"
)

// Corrupt scrambles the buffer's ordering state in place — the
// corrupt-ordering chaos fault. The scrambles it performs model real
// failure classes the machinery must converge from:
//
//   - cursors scrambled downward (amnesia): the next publication from that
//     origin looks far ahead → gap-declared-loss advance resyncs upward,
//     or within-window gaps resolve via ForceAfter forced deliveries.
//   - FIFO cursors may additionally scramble upward (a wrapped or
//     fabricated counter): subsequent real sequences arrive below the
//     cursor and are delivered flagged, and the first more than Window
//     below it resyncs the cursor downward. Causal cursors scramble
//     DOWN only — an upward scramble would manufacture false barrier
//     coverage, which no amount of later traffic can distinguish from a
//     genuine past delivery, so the coverage probe would (correctly) flag
//     machinery that allowed it.
//   - pending entries dropped (never mutated: a held publication either
//     survives intact or disappears). The trie already stores a dropped
//     entry's publication, so anti-entropy never sends it again: it stays
//     known but is lost to the application, and its cursor's gap is
//     declared lost or aged out like any other.
func (b *Buffer) Corrupt(rng *rand.Rand) {
	origins := make([]sim.NodeID, 0, len(b.curs))
	for id := range b.curs {
		origins = append(origins, id)
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
	for _, id := range origins {
		if rng.Intn(2) == 0 {
			continue
		}
		c := b.curs[id]
		switch rng.Intn(2) {
		case 0: // scramble the cursor position
			if b.mode == Causal || rng.Intn(2) == 0 {
				// Downward (both modes): lose progress.
				c.next = 1 + uint64(rng.Int63n(int64(c.next)))
			} else {
				// Upward (FIFO only): fabricate progress.
				c.next += uint64(1 + rng.Intn(4*Window))
			}
		case 1: // full amnesia for this publisher
			delete(b.curs, id)
		}
	}
	if len(b.pending) > 0 && rng.Intn(2) == 0 {
		kept := b.pending[:0]
		for _, e := range b.pending {
			if rng.Intn(2) == 0 {
				kept = append(kept, e)
			}
		}
		b.pending = kept
	}
}
