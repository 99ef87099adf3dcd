package core

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sspubsub/internal/label"
	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
	"sspubsub/internal/simtest"
)

// The periodic action skips the shortcut reconcile while the version has
// not moved since the last reconcile that settled the slots. These tests
// hold it to the protocol as written: a twin subscriber fed the same inputs
// has its cache dropped before every timeout, so it reconciles on every
// tick, and the two must agree on every send and every piece of state.

// twin is a subscriber with the reconcile cache (a) and its always-
// reconciling reference (ref), each with its own recording context.
type twin struct {
	a, ref   *Subscriber
	ca, cref *simtest.Ctx
}

func newTwin() *twin {
	a, ca := newSub(10)
	ref, cref := newSub(10)
	return &twin{a: a, ref: ref, ca: ca, cref: cref}
}

// do applies one input to both subscribers.
func (w *twin) do(f func(s *Subscriber, c sim.Context)) {
	f(w.a, w.ca)
	f(w.ref, w.cref)
}

func (w *twin) msg(from sim.NodeID, body any) {
	w.do(func(s *Subscriber, c sim.Context) {
		s.OnMessage(c, sim.Message{From: from, To: 10, Topic: tp, Body: body})
	})
}

// timeout runs one periodic action on both; the reference reconciles
// whatever its cache says.
func (w *twin) timeout() {
	w.ref.scVersion = 0
	w.do(func(s *Subscriber, c sim.Context) { s.OnTimeout(c) })
}

// settled reports whether a's next timeout would skip the reconcile.
func (w *twin) settled() bool { return w.a.scVersion == w.a.version+1 }

// agree fails unless both twins sent the same messages and hold the same
// state.
func (w *twin) agree(t *testing.T, where string) {
	t.Helper()
	if got, want := w.ca.Take(), w.cref.Take(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: sends differ:\n cached    %v\n reference %v", where, got, want)
	}
	a, r := w.a, w.ref
	if a.lab != r.lab || a.nb != r.nb || a.ring != r.ring || a.version != r.version ||
		a.departed != r.departed || a.leaving != r.leaving || !slices.Equal(a.shortcuts, r.shortcuts) {
		t.Fatalf("%s: state differs:\n cached    %s\n reference %s", where, dump(a), dump(r))
	}
}

// slotLabels returns s's slot labels in slot order.
func slotLabels(s *Subscriber) []label.Label {
	var slots []label.Label
	for _, t := range s.shortcuts {
		slots = append(slots, t.L)
	}
	return slots
}

func dump(s *Subscriber) string {
	sc := ""
	for _, t := range s.shortcuts {
		sc += fmt.Sprintf(" %s→%d", t.L, t.Ref)
	}
	return fmt.Sprintf("label=%s nb=%v ring=%v v=%d departed=%v slots:%s", s.lab, s.nb, s.ring, s.version, s.departed, sc)
}

// fromScratch fails unless s's slot set is exactly what label.Shortcuts
// derives from its current label and circular neighbours.
func fromScratch(t *testing.T, s *Subscriber, where string) {
	t.Helper()
	labs := s.circularLabels()
	want, _, _ := label.Shortcuts(s.lab, labs[left], labs[right])
	wantSet := map[label.Label]bool{}
	for _, l := range want {
		wantSet[l] = true
	}
	got := map[label.Label]bool{}
	for _, t := range s.shortcuts {
		got[t.L] = true
	}
	if !maps.Equal(got, wantSet) {
		t.Fatalf("%s: slots %v, label.Shortcuts derives %v (%s)", where, got, wantSet, dump(s))
	}
}

// settledTwin is node 01 of SR(16) between 0011 and 0101 (slots 001, 0,
// 011 and 1), with occupants in three slots and the cache hot.
func settledTwin(t *testing.T) *twin {
	w := newTwin()
	w.msg(supID, proto.SetData{Pred: tup("0011", 11), Label: label.MustParse("01"), Succ: tup("0101", 12)})
	w.timeout()
	w.msg(99, proto.IntroduceShortcut{T: tup("0", 20)})
	w.msg(99, proto.IntroduceShortcut{T: tup("011", 21)})
	w.msg(99, proto.IntroduceShortcut{T: tup("1", 22)})
	w.timeout()
	w.agree(t, "set-up")
	if !w.settled() {
		t.Fatalf("set-up: the cache is not hot after a quiet timeout (%s)", dump(w.a))
	}
	return w
}

// TestShortcutSkipExact drives every path that changes the state the slot
// set derives from, each from a hot cache, and checks the next timeout
// against the reference and against label.Shortcuts from scratch.
func TestShortcutSkipExact(t *testing.T) {
	cases := []struct {
		name string
		path func(w *twin)
	}{
		{"IntroduceShortcut displaces an occupant", func(w *twin) {
			// Slot 001 first takes node 11 — our left neighbour, carried
			// under 0011 — then node 24 displaces it: re-linearizing (001,
			// 11) relabels the left neighbour, which moves the slot set.
			w.msg(99, proto.IntroduceShortcut{T: tup("001", 11)})
			w.msg(99, proto.IntroduceShortcut{T: tup("001", 24)})
		}},
		{"RemoveConnections", func(w *twin) {
			w.msg(11, proto.RemoveConnections{V: 11})
		}},
		{"SetData relabel", func(w *twin) {
			// Same neighbours, a new label: only the label changes.
			w.msg(supID, proto.SetData{Pred: tup("0011", 11), Label: label.MustParse("00111"), Succ: tup("0101", 12)})
		}},
		{"label correction through Check", func(w *twin) {
			// Node 12 believes our label and introduces its true one.
			w.msg(12, proto.Check{Sender: tup("01011", 12), YourLabel: label.MustParse("01"), Flag: proto.LIN})
		}},
		{"label correction through Introduce", func(w *twin) {
			w.msg(11, proto.Introduce{C: tup("001", 11), Flag: proto.LIN})
		}},
		{"ForceState", func(w *twin) {
			w.do(func(s *Subscriber, _ sim.Context) {
				s.ForceState(label.MustParse("01"), tup("0011", 11), tup("011", 12), proto.Tuple{},
					map[label.Label]sim.NodeID{label.MustParse("0001"): 30, label.MustParse("1"): 22})
			})
		}},
		{"grantDeparture", func(w *twin) {
			w.do(func(s *Subscriber, c sim.Context) { s.Leave(c) })
			w.msg(supID, proto.SetData{})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := settledTwin(t)
			tc.path(w)
			w.agree(t, "after the path")
			if w.settled() {
				t.Fatal("the path left the version where the cache recorded it")
			}
			w.timeout()
			w.agree(t, "next timeout")
			if w.a.departed {
				if len(w.a.shortcuts) != 0 {
					t.Fatalf("departed instance keeps slots: %s", dump(w.a))
				}
				return
			}
			fromScratch(t, w.a, "next timeout")
			w.timeout()
			w.agree(t, "quiet timeout")
			fromScratch(t, w.a, "quiet timeout")
		})
	}
}

// TestShortcutSkipRandomInputs feeds twins long random input sequences —
// configurations, introductions, label corrections, delegations,
// RemoveConnections, shortcut introductions into existing slots, forced
// states — with a timeout after every few inputs, and requires agreement
// after each step. It also checks that both branches of the cache were
// taken: skipped timeouts, and reconciles whose own delegations moved the
// derived set and so left the cache unrecorded.
func TestShortcutSkipRandomInputs(t *testing.T) {
	var skipped, declined int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lab := func() label.Label { return label.FromIndex(uint64(rng.Intn(31))) }
		peer := func() sim.NodeID { return sim.NodeID(11 + rng.Intn(8)) }
		tuple := func() proto.Tuple {
			if rng.Intn(8) == 0 {
				return proto.Tuple{}
			}
			return proto.Tuple{L: lab(), Ref: peer()}
		}
		flag := func() proto.Flag { return []proto.Flag{proto.LIN, proto.CYC}[rng.Intn(2)] }
		w := newTwin()
		w.msg(supID, proto.SetData{Pred: tuple(), Label: lab(), Succ: tuple()})
		for step := 0; step < 400; step++ {
			switch rng.Intn(9) {
			case 0:
				l := lab()
				if rng.Intn(10) == 0 {
					l = label.Bottom
				}
				w.msg(supID, proto.SetData{Pred: tuple(), Label: l, Succ: tuple()})
			case 1:
				your := w.a.lab
				if rng.Intn(3) == 0 {
					your = lab()
				}
				w.msg(peer(), proto.Check{Sender: tuple(), YourLabel: your, Flag: flag()})
			case 2:
				w.msg(peer(), proto.Introduce{C: tuple(), Flag: flag()})
			case 3:
				w.msg(peer(), proto.Linearize{V: tuple(), From: tuple()})
			case 4:
				w.msg(peer(), proto.RemoveConnections{V: peer()})
			case 5:
				// Into a slot we hold, so adoptions and displacements happen.
				tt := tuple()
				if slots := slotLabels(w.a); len(slots) > 0 {
					tt.L = slots[rng.Intn(len(slots))]
				}
				w.msg(peer(), proto.IntroduceShortcut{T: tt})
			case 6:
				if rng.Intn(6) == 0 {
					sc := map[label.Label]sim.NodeID{lab(): peer(), lab(): sim.None}
					l, r, g := tuple(), tuple(), tuple()
					ll := lab()
					w.do(func(s *Subscriber, _ sim.Context) { s.ForceState(ll, l, r, g, sc) })
				}
			default:
				before := w.settled()
				w.timeout()
				if before {
					skipped++
				} else if !w.a.lab.IsBottom() && !w.settled() {
					declined++
				}
			}
			w.agree(t, fmt.Sprintf("seed %d step %d", seed, step))
			if w.settled() && !w.a.lab.IsBottom() {
				fromScratch(t, w.a, fmt.Sprintf("seed %d step %d", seed, step))
			}
		}
	}
	t.Logf("%d timeouts skipped the reconcile, %d reconciles left the cache unrecorded", skipped, declined)
	if skipped == 0 || declined == 0 {
		t.Fatalf("a cache branch was never taken: %d skipped, %d declined", skipped, declined)
	}
}
