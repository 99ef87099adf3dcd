package ordering

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
)

type delivery struct {
	payload string
	meta    Meta
}

type harness struct {
	buf *Buffer
	out []delivery
}

func newHarness(mode Mode) *harness {
	h := &harness{}
	h.buf = New(mode, 99, func(p proto.Publication, m Meta) {
		m.Barrier = nil // normalize: tests compare order/flags, not barriers
		h.out = append(h.out, delivery{payload: p.Payload, meta: m})
	})
	return h
}

func pub(origin sim.NodeID, payload string) proto.Publication {
	return proto.Publication{Origin: origin, Payload: payload}
}

func (h *harness) take() []delivery {
	out := h.out
	h.out = nil
	return out
}

func (h *harness) payloads() []string {
	var ps []string
	for _, d := range h.out {
		ps = append(ps, d.payload)
	}
	h.out = nil
	return ps
}

func TestModeStringParse(t *testing.T) {
	for _, m := range []Mode{BestEffort, FIFO, Causal} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if m, err := ParseMode(""); err != nil || m != BestEffort {
		t.Fatalf("ParseMode(\"\") = %v, %v", m, err)
	}
	if m, err := ParseMode("Best-Effort"); err != nil || m != BestEffort {
		t.Fatalf("ParseMode case-insensitive = %v, %v", m, err)
	}
	if _, err := ParseMode("total"); err == nil {
		t.Fatal("ParseMode accepted an unknown mode")
	}
}

// TestKnownMovesCursorSilently: when anti-entropy delivers p2 (Recovered)
// before its sequenced copy, the copy — fed through Known, held or not —
// moves the cursor without a second delivery, so p3 after it is delivered
// at once, in order and unflagged, instead of waiting out ForceAfter.
func TestKnownMovesCursorSilently(t *testing.T) {
	for _, early := range []bool{false, true} { // early: p2's copy overtakes p1 and is held
		h := newHarness(FIFO)
		if !early {
			h.buf.Arrive(pub(1, "p1"), 1, nil)
		}
		h.buf.Recovered(pub(1, "p2"))
		h.buf.Known(pub(1, "p2"), 2, nil)
		if early {
			h.buf.Arrive(pub(1, "p1"), 1, nil)
		}
		h.buf.Arrive(pub(1, "p3"), 3, nil)
		p1, p2 := delivery{payload: "p1", meta: Meta{Seq: 1}}, delivery{payload: "p2", meta: Meta{Recovered: true}}
		want := []delivery{p1, p2, {payload: "p3", meta: Meta{Seq: 3}}}
		if early {
			want[0], want[1] = p2, p1
		}
		if got := h.take(); !reflect.DeepEqual(got, want) {
			t.Fatalf("early=%v: deliveries = %+v, want %+v", early, got, want)
		}
		if h.buf.PendingLen() != 0 {
			t.Fatalf("early=%v: %d still held", early, h.buf.PendingLen())
		}
	}
}

// TestFIFOInOrder: the trivial path — sequences arriving in order deliver
// immediately, unflagged.
func TestFIFOInOrder(t *testing.T) {
	h := newHarness(FIFO)
	for i := 1; i <= 5; i++ {
		h.buf.Arrive(pub(1, fmt.Sprintf("p%d", i)), uint64(i), nil)
	}
	want := []string{"p1", "p2", "p3", "p4", "p5"}
	if got := h.payloads(); !reflect.DeepEqual(got, want) {
		t.Fatalf("in-order delivery = %v, want %v", got, want)
	}
}

// TestFIFOReorderBuffered: a gap inside the window holds later sequences
// until the gap fills, then drains in order.
func TestFIFOReorderBuffered(t *testing.T) {
	h := newHarness(FIFO)
	h.buf.Arrive(pub(1, "p1"), 1, nil)
	h.buf.Arrive(pub(1, "p3"), 3, nil)
	h.buf.Arrive(pub(1, "p4"), 4, nil)
	if got := h.payloads(); !reflect.DeepEqual(got, []string{"p1"}) {
		t.Fatalf("before gap fill: delivered %v, want [p1]", got)
	}
	if n := h.buf.PendingLen(); n != 2 {
		t.Fatalf("pending = %d, want 2", n)
	}
	h.buf.Arrive(pub(1, "p2"), 2, nil)
	want := []string{"p2", "p3", "p4"}
	if got := h.payloads(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after gap fill: delivered %v, want %v", got, want)
	}
	for _, d := range h.out {
		if d.meta.Forced || d.meta.Recovered {
			t.Fatalf("unexpected flagged delivery %+v", d)
		}
	}
}

// TestFIFOWindowBoundary: seq next+Window-1 still buffers; seq next+Window
// declares the gap lost and advances the cursor (conformance vector:
// reorder window boundary).
func TestFIFOWindowBoundary(t *testing.T) {
	h := newHarness(FIFO)
	h.buf.Arrive(pub(1, "edge"), Window, nil) // next=1, seq == next+Window-1
	if got := h.take(); len(got) != 0 {
		t.Fatalf("seq at window edge delivered %v, want buffered", got)
	}
	h2 := newHarness(FIFO)
	h2.buf.Arrive(pub(1, "past"), Window+1, nil) // seq == next+Window
	got := h2.take()
	if len(got) != 1 || got[0].payload != "past" {
		t.Fatalf("seq past window = %v, want immediate delivery", got)
	}
	if got[0].meta.Forced {
		t.Fatal("gap-declared-loss FIFO delivery should be unflagged (order preserved, payloads declared lost)")
	}
	// Cursor advanced: the next in-stream sequence delivers immediately.
	h2.buf.Arrive(pub(1, "next"), Window+2, nil)
	if got := h2.payloads(); !reflect.DeepEqual(got, []string{"next"}) {
		t.Fatalf("after gap advance: %v, want [next]", got)
	}
}

// TestFIFOGapDeclaredLossAdvance: a gap that never fills is released by
// age-out, and the stream keeps moving (conformance vector:
// gap-declared-loss advance).
func TestFIFOGapDeclaredLossAdvance(t *testing.T) {
	h := newHarness(FIFO)
	h.buf.Arrive(pub(1, "p1"), 1, nil)
	h.buf.Arrive(pub(1, "p3"), 3, nil) // p2 lost in transit
	h.take()
	for tick := uint64(1); tick <= ForceAfter; tick++ {
		h.buf.Tick(tick)
	}
	got := h.take()
	if len(got) != 1 || got[0].payload != "p3" || !got[0].meta.Forced {
		t.Fatalf("aged-out gap: %+v, want forced p3", got)
	}
	// Cursor advanced past the loss: stream continues unflagged.
	h.buf.Arrive(pub(1, "p4"), 4, nil)
	got = h.take()
	if len(got) != 1 || got[0].payload != "p4" || got[0].meta.Forced {
		t.Fatalf("post-loss stream: %+v, want normal p4", got)
	}
	// The straggler p2 finally arrives: delivered flagged, not lost.
	h.buf.Arrive(pub(1, "p2"), 2, nil)
	got = h.take()
	if len(got) != 1 || got[0].payload != "p2" || !got[0].meta.Forced {
		t.Fatalf("straggler: %+v, want forced p2", got)
	}
}

// TestFIFOAncientResync: an arrival below the cursor is delivered
// flagged, never dropped; one more than Window below also resyncs the
// cursor downward — convergence from an upward-corrupted cursor or a
// regressed publisher counter.
func TestFIFOAncientResync(t *testing.T) {
	h := newHarness(FIFO)
	h.buf.Arrive(pub(1, "p1"), 1, nil)
	h.take()
	// Corrupt the cursor upward, just inside the window: a below-cursor
	// arrival is delivered flagged and leaves the cursor where it is.
	h.buf.curs[1].next = 1 + Window
	h.buf.Arrive(pub(1, "p2"), 2, nil)
	got := h.take()
	if len(got) != 1 || got[0].payload != "p2" || !got[0].meta.Forced {
		t.Fatalf("in-window below-cursor arrival: %+v, want forced p2", got)
	}
	if next := h.buf.curs[1].next; next != 1+Window {
		t.Fatalf("in-window arrival moved the cursor to %d", next)
	}
	// Far upward: the first arrival is delivered and resyncs the cursor.
	h.buf.curs[1].next = 100000
	h.buf.Arrive(pub(1, "sync"), 10, nil)
	got = h.take()
	if len(got) != 1 || got[0].payload != "sync" || !got[0].meta.Forced {
		t.Fatalf("resync delivery: %+v, want forced sync", got)
	}
	// Cursor now tracks the real stream again.
	h.buf.Arrive(pub(1, "p11"), 11, nil)
	got = h.take()
	if len(got) != 1 || got[0].payload != "p11" || got[0].meta.Forced {
		t.Fatalf("post-resync: %+v, want normal p11", got)
	}
}

// TestFIFOPendingOverflow: the pending set is hard-bounded; overflow
// force-delivers the oldest entry.
func TestFIFOPendingOverflow(t *testing.T) {
	h := newHarness(FIFO)
	// Many origins each with an unfillable gap — each origin contributes
	// a few held entries within its window.
	n := 0
	for o := sim.NodeID(1); n < PendingCap+8; o++ {
		for s := uint64(2); s < 10 && n < PendingCap+8; s++ {
			h.buf.Arrive(pub(o, fmt.Sprintf("o%dp%d", o, s)), s, nil)
			n++
		}
	}
	if got := h.buf.PendingLen(); got > PendingCap {
		t.Fatalf("pending overflowed the cap: %d > %d", got, PendingCap)
	}
	forced := 0
	for _, d := range h.take() {
		if d.meta.Forced {
			forced++
		}
	}
	if forced == 0 {
		t.Fatal("overflow produced no forced deliveries")
	}
}

// TestCausalBarrierHold: a causal publication is held until its barrier
// is covered by local deliveries, then delivered in causal order.
func TestCausalBarrierHold(t *testing.T) {
	h := newHarness(Causal)
	// B's publication causally follows A's seq 1.
	barrier := []proto.BarrierEntry{{Origin: 1, Seq: 1}}
	h.buf.Arrive(pub(2, "effect"), 1, barrier)
	if got := h.take(); len(got) != 0 {
		t.Fatalf("uncovered barrier delivered early: %v", got)
	}
	h.buf.Arrive(pub(1, "cause"), 1, nil)
	want := []string{"cause", "effect"}
	if got := h.payloads(); !reflect.DeepEqual(got, want) {
		t.Fatalf("causal order = %v, want %v", got, want)
	}
}

// TestCausalBarrierAgeOut: an uncoverable barrier (its cause truly lost)
// degrades to forced delivery after ForceAfter ticks, not deadlock.
func TestCausalBarrierAgeOut(t *testing.T) {
	h := newHarness(Causal)
	h.buf.Arrive(pub(2, "orphan"), 1, []proto.BarrierEntry{{Origin: 1, Seq: 5}})
	for tick := uint64(1); tick <= ForceAfter; tick++ {
		h.buf.Tick(tick)
	}
	got := h.take()
	if len(got) != 1 || got[0].payload != "orphan" || !got[0].meta.Forced {
		t.Fatalf("aged-out barrier: %+v, want forced orphan", got)
	}
}

// TestCausalBarrierConstruction: Barrier() summarizes the delivery
// frontier, capped at BarrierCap with deterministic eviction (highest
// sequences win, ties by smallest origin) and self excluded (conformance
// vector: barrier cap eviction).
func TestCausalBarrierConstruction(t *testing.T) {
	h := newHarness(Causal) // self = 99
	// Deliver from BarrierCap+2 publishers with distinct frontiers.
	for o := 1; o <= BarrierCap+2; o++ {
		for s := 1; s <= o; s++ { // publisher o's frontier = o
			h.buf.Arrive(pub(sim.NodeID(o), fmt.Sprintf("o%ds%d", o, s)), uint64(s), nil)
		}
	}
	// And a self-delivery that must not appear.
	h.buf.Arrive(pub(99, "self"), 7, nil)
	h.take()
	br := h.buf.Barrier()
	if len(br) != BarrierCap {
		t.Fatalf("barrier len = %d, want cap %d", len(br), BarrierCap)
	}
	// Highest frontiers kept: publishers BarrierCap+2 down to 3.
	for i, e := range br {
		wantOrigin := sim.NodeID(BarrierCap + 2 - i)
		wantSeq := uint64(BarrierCap + 2 - i)
		if e.Origin == 99 {
			t.Fatal("barrier includes self")
		}
		if e.Origin != wantOrigin || e.Seq != wantSeq {
			t.Fatalf("barrier[%d] = %+v, want {%d %d}", i, e, wantOrigin, wantSeq)
		}
	}
	if got := New(FIFO, 99, nil).Barrier(); got != nil {
		t.Fatalf("FIFO Barrier() = %v, want nil", got)
	}
}

// TestCursorEviction: the publisher-cursor set is hard-capped; the
// least-recently-touched cursor is evicted deterministically and its held
// publications are force-delivered, not dropped.
func TestCursorEviction(t *testing.T) {
	h := newHarness(FIFO)
	for o := 1; o <= MaxPublishers; o++ {
		h.buf.now = uint64(o) // distinct touch times
		h.buf.Arrive(pub(sim.NodeID(o), fmt.Sprintf("o%d", o)), 1, nil)
	}
	// Park a pending entry on origin 1, then pin it as the LRU cursor.
	h.buf.now = uint64(MaxPublishers + 1)
	h.buf.Arrive(pub(1, "held"), 3, nil) // gap at 2 → pending
	h.take()
	h.buf.curs[1].touch = 0
	// A new publisher forces the eviction of origin 1, flushing its held
	// publication as a forced delivery.
	h.buf.now = uint64(MaxPublishers + 2)
	h.buf.Arrive(pub(100, "new"), 1, nil)
	var forcedHeld bool
	for _, d := range h.take() {
		if d.payload == "held" && d.meta.Forced {
			forcedHeld = true
		}
	}
	if !forcedHeld {
		t.Fatal("evicted publisher's pending entry was dropped, want forced delivery")
	}
	if _, ok := h.buf.curs[1]; ok {
		t.Fatal("cursor (origin 1) not evicted")
	}
	if len(h.buf.curs) > MaxPublishers {
		t.Fatalf("cursor count %d exceeds cap %d", len(h.buf.curs), MaxPublishers)
	}
}

// TestRecoveredBypass: anti-entropy deliveries bypass the cursors and are
// flagged Recovered.
func TestRecoveredBypass(t *testing.T) {
	h := newHarness(Causal)
	h.buf.Recovered(pub(1, "rec"))
	got := h.take()
	if len(got) != 1 || !got[0].meta.Recovered {
		t.Fatalf("Recovered: %+v", got)
	}
	if len(h.buf.curs) != 0 {
		t.Fatal("Recovered touched a cursor")
	}
}

// TestCorruptConverges: after arbitrary state corruption, a healthy
// in-order stream from each publisher converges back to unflagged
// in-order delivery, and every live payload surfaces at least once.
func TestCorruptConverges(t *testing.T) {
	for _, mode := range []Mode{FIFO, Causal} {
		for seed := int64(1); seed <= 20; seed++ {
			h := newHarness(mode)
			rng := rand.New(rand.NewSource(seed))
			seq := map[sim.NodeID]uint64{}
			send := func(o sim.NodeID) {
				seq[o]++
				h.buf.Arrive(pub(o, fmt.Sprintf("o%d-%d", o, seq[o])), seq[o], nil)
			}
			for i := 0; i < 30; i++ {
				send(sim.NodeID(1 + rng.Intn(4)))
			}
			h.take()
			h.buf.Corrupt(rng)
			// Healthy traffic + ticks: must converge to normal delivery.
			// An upward-scrambled FIFO cursor can emit up to Window flagged
			// stragglers before the real stream catches up, so drive more
			// than Window publications per origin.
			var tick uint64 = 100
			for i := 0; i < 2*Window; i++ {
				for o := sim.NodeID(1); o <= 4; o++ {
					send(o)
				}
				if i%2 == 0 {
					tick++
					h.buf.Tick(tick)
				}
			}
			for i := 0; i < 2*ForceAfter; i++ {
				tick++
				h.buf.Tick(tick)
			}
			if n := h.buf.PendingLen(); n != 0 {
				t.Fatalf("mode=%v seed=%d: %d entries still pending after convergence", mode, seed, n)
			}
			// The tail of the trace must be unflagged in-order deliveries.
			out := h.take()
			if len(out) == 0 {
				t.Fatalf("mode=%v seed=%d: no deliveries after corruption", mode, seed)
			}
			tail := out
			if len(tail) > 10 {
				tail = tail[len(tail)-10:]
			}
			for _, d := range tail {
				if d.meta.Forced || d.meta.Recovered {
					t.Fatalf("mode=%v seed=%d: tail delivery still flagged: %+v", mode, seed, d)
				}
			}
		}
	}
}

// TestCausalCorruptNeverScramblesUp: causal cursors must only be
// scrambled downward — an upward scramble would fabricate barrier
// coverage.
func TestCausalCorruptNeverScramblesUp(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		h := newHarness(Causal)
		for o := sim.NodeID(1); o <= 4; o++ {
			for s := uint64(1); s <= 10; s++ {
				h.buf.Arrive(pub(o, "x"), s, nil)
			}
		}
		h.take()
		before := map[sim.NodeID]uint64{}
		for id, c := range h.buf.curs {
			before[id] = c.next
		}
		h.buf.Corrupt(rand.New(rand.NewSource(seed)))
		for id, c := range h.buf.curs {
			if c.next > before[id] {
				t.Fatalf("seed=%d: causal cursor %d scrambled up: %d -> %d", seed, id, before[id], c.next)
			}
		}
	}
}
