package cluster

import (
	"fmt"
	"testing"

	"sspubsub/internal/label"
)

// The TestAblate tests each keep one stabilization rule or refinement in
// place: each fails when its rule's branch is made to do nothing (README,
// "Every rule earns its place"). The unit-level ones are in
// internal/core and internal/supervisor; these need a whole topic.

// TestAblateSupervisorSetDataAnswer: a corrupted database records a
// supervisor as a member of the topic — the owner itself on a lone
// supervisor, another plane member on a plane of four. The failure
// detector never suspects a live supervisor, so only the supervisor's
// answer to the configuration it is sent (an Unsubscribe) removes the
// entry, and the topic returns to legitimacy.
func TestAblateSupervisorSetDataAnswer(t *testing.T) {
	const n = 8
	for _, sups := range []int{1, 4} {
		t.Run(fmt.Sprintf("supervisors=%d", sups), func(t *testing.T) {
			l := NewSim(Options{Seed: 1, Supervisors: sups})
			l.AddClients(n)
			l.JoinAll(topicA)
			if _, ok := l.RunUntilConverged(topicA, n, 2000); !ok {
				t.Fatalf("setup: %s", l.Explain(topicA))
			}
			owner := l.SupFor(topicA)
			member := owner.ID()
			for _, id := range l.SupIDs {
				if id != owner.ID() {
					member = id
					break
				}
			}
			owner.InjectRaw(topicA, label.FromIndex(n), member)
			if l.Converged(topicA) {
				t.Fatal("a database recording a supervisor reads legitimate")
			}
			if rounds, ok := l.RunUntilConverged(topicA, n, 500); !ok {
				t.Fatalf("supervisor %d still recorded after %d rounds: %s", member, rounds, l.Explain(topicA))
			}
		})
	}
}

// TestAblateClosureFreshJoinRounds bounds E5's fresh-join burst at n = 32.
// Algorithm 2's periodic closure actions (check, announce, pass) let the
// extremes find each other without waiting for the supervisor's
// round-robin refresh: over seeds 1–20 the burst converges in 6.65 rounds
// on average (at most 8) with them, and in 12.9 (at most 16) with the
// whole timeout block removed.
func TestAblateClosureFreshJoinRounds(t *testing.T) {
	const n, seeds, bound = 32, 20, 9.0
	total := 0
	for seed := int64(1); seed <= seeds; seed++ {
		l := NewSim(Options{Seed: seed})
		l.AddClients(n)
		l.JoinAll(topicA)
		rounds, ok := l.RunUntilConverged(topicA, n, 2000)
		if !ok {
			t.Fatalf("seed %d: no convergence: %s", seed, l.Explain(topicA))
		}
		total += rounds
	}
	if mean := float64(total) / seeds; mean > bound {
		t.Fatalf("fresh join burst of %d: %.2f rounds on average over %d seeds, want at most %.0f", n, mean, seeds, bound)
	}
}
