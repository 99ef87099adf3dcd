package chaos

import (
	"testing"

	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
)

// TestDeliveryProbesCatchCraftedTraces gives the delivery probes' clauses
// teeth one by one: each hand-built trace breaks exactly one clause, and
// that clause reports it. A clean trace of the same shape passes them all.
func TestDeliveryProbesCatchCraftedTraces(t *testing.T) {
	const a, b, pub, other sim.NodeID = 10, 11, 20, 21
	wave := []wavePub{{"wave-0", pub}, {"wave-1", pub}}
	d := func(origin sim.NodeID, payload string, seq uint64) traceEntry {
		return traceEntry{Origin: origin, Seq: seq, Payload: payload}
	}
	inEpoch := func(en traceEntry, epoch int) traceEntry { en.Epoch = epoch; return en }
	after := func(en traceEntry, o sim.NodeID, seq uint64) traceEntry {
		en.Barrier = []proto.BarrierEntry{{Origin: o, Seq: seq}}
		return en
	}
	clean := map[sim.NodeID][]traceEntry{
		a: {d(other, "x", 1), after(d(pub, "wave-0", 1), other, 1), d(pub, "wave-1", 2)},
		b: {d(pub, "wave-0", 1), d(other, "x", 1), d(pub, "wave-1", 2)},
	}
	if v := orderViolation(clean, wave); v != "" {
		t.Fatalf("clean traces: ordering probe reports %q", v)
	}
	for id, trace := range clean {
		if v := onceViolation(id, trace, wave); v != "" {
			t.Fatalf("clean trace: %s", v)
		}
	}

	for _, tc := range []struct {
		name   string
		traces map[sim.NodeID][]traceEntry
		want   string
	}{
		{"per-origin monotonicity", map[sim.NodeID][]traceEntry{
			a: {d(other, "y", 2), d(other, "x", 1), d(pub, "wave-0", 1), d(pub, "wave-1", 2)},
		}, "node 10 delivered seq 1 from publisher 21 after seq 2 (epoch 0)"},
		{"causal coverage", map[sim.NodeID][]traceEntry{
			a: {d(other, "x", 1), after(d(pub, "wave-0", 1), other, 2), d(pub, "wave-1", 2)},
		}, `node 10 delivered "wave-0" before its causal predecessor (origin 21 seq 2)`},
		// b's second delivery starts a new corruption epoch, so
		// monotonicity holds and only the cross-node order disagrees.
		{"wave order agreement", map[sim.NodeID][]traceEntry{
			a: {d(pub, "wave-0", 1), d(pub, "wave-1", 2)},
			b: {d(pub, "wave-1", 2), inEpoch(d(pub, "wave-0", 1), 1)},
		}, `nodes 10 and 11 disagree on the delivery order of wave publication "wave-1"`},
	} {
		if got := orderViolation(tc.traces, wave); got != tc.want {
			t.Errorf("%s: ordering probe reports %q, want %q", tc.name, got, tc.want)
		}
	}

	// A best-effort trace carries no sequence numbers, so only the
	// completeness probe's exactly-once count sees a double delivery.
	twice := []traceEntry{d(pub, "wave-0", 0), d(pub, "wave-1", 0), d(pub, "wave-0", 0)}
	want := `node 10 delivered wave publication "wave-0" from 20 2 times`
	if got := onceViolation(a, twice, wave); got != want {
		t.Errorf("best-effort double delivery: completeness probe reports %q, want %q", got, want)
	}
	want = `node 10 delivered wave publication "wave-1" from 20 0 times`
	if got := onceViolation(a, twice[:1], wave); got != want {
		t.Errorf("missing delivery: completeness probe reports %q, want %q", got, want)
	}
}
