package core

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"sspubsub/internal/label"
	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
	"sspubsub/internal/simtest"
)

// The shortcut slots are a slice kept in slotLess order. These tests run
// the operations that change it — set, delete, the reference clears of
// RemoveConnections and label correction, the departure reset, ForceState
// — against a map model, and after every step require the slice to be
// strictly ordered (so no label is held twice) and to hold exactly the
// model's slots.

// slotModel drives one subscriber's slot table and its map model.
type slotModel struct {
	s     *Subscriber
	ctx   *simtest.Ctx
	model map[label.Label]sim.NodeID
}

func newSlotModel() *slotModel {
	s, ctx := newSub(10)
	return &slotModel{s: s, ctx: ctx, model: map[label.Label]sim.NodeID{}}
}

// slotLabel draws a slot label from a small set that holds distinct labels
// at one ring position, as corrupted states do, so that ties in Frac are
// common.
func slotLabel(b byte) label.Label {
	k := b / 8 % 3
	switch b % 8 {
	case 6:
		return label.Label{Bits: 1 << k, Len: 1 + k} // 1, 10, 100: position 1/2
	case 7:
		return label.Label{Len: 1 + k} // 0, 00, 000: position 0
	}
	return label.FromIndex(uint64(b % 24))
}

// slotRef draws a reference: sim.None or one of four peers.
func slotRef(b byte) sim.NodeID {
	if b%5 == 0 {
		return sim.None
	}
	return sim.NodeID(20 + b%5)
}

// step applies operation op with arguments a and b to the table and the
// model, and returns its name.
func (m *slotModel) step(op, a, b byte) string {
	s := m.s
	switch op % 6 {
	case 0:
		l, ref := slotLabel(a), slotRef(b)
		s.putSlot(l, ref)
		m.model[l] = ref
		return fmt.Sprintf("set %s→%d", l, ref)
	case 1:
		l := slotLabel(a)
		if i, ok := s.findSlot(l); ok {
			s.shortcuts = slices.Delete(s.shortcuts, i, i+1)
		}
		delete(m.model, l)
		return fmt.Sprintf("delete %s", l)
	case 2:
		ref := slotRef(b)
		s.removeConnections(ref)
		if ref != sim.None {
			for l, r := range m.model {
				if r == ref {
					m.model[l] = sim.None
				}
			}
		}
		return fmt.Sprintf("RemoveConnections %d", ref)
	case 3:
		c := proto.Tuple{L: slotLabel(a), Ref: slotRef(b)}
		s.correctStoredLabel(c)
		for l, r := range m.model {
			if r == c.Ref && l != c.L {
				m.model[l] = sim.None
			}
		}
		return fmt.Sprintf("correct %s@%d", c.L, c.Ref)
	case 4:
		s.grantDeparture(m.ctx)
		m.ctx.Take()
		clear(m.model)
		return "clear"
	default:
		sc := map[label.Label]sim.NodeID{}
		for i := 0; i < int(a%6); i++ {
			sc[slotLabel(a+byte(i)*b)] = slotRef(b + byte(i))
		}
		s.ForceState(label.MustParse("01"), proto.Tuple{}, proto.Tuple{}, proto.Tuple{}, sc)
		m.model = sc
		return fmt.Sprintf("ForceState %v", sc)
	}
}

// check fails unless the slice is strictly in slotLess order and holds
// exactly the model's slots, and every label looks up as the model says.
func (m *slotModel) check(t *testing.T, where string) {
	t.Helper()
	sc := m.s.shortcuts
	for i := 1; i < len(sc); i++ {
		if !slotLess(sc[i-1].L, sc[i].L) {
			t.Fatalf("%s: slots %d and %d out of order or duplicate: %v", where, i-1, i, sc)
		}
	}
	if got := m.s.Shortcuts(); !maps.Equal(got, m.model) {
		t.Fatalf("%s: slots %v, model %v", where, got, m.model)
	}
	for b := 0; b < 48; b++ {
		l := slotLabel(byte(b))
		i, ok := m.s.findSlot(l)
		ref, want := m.model[l]
		if ok != want || ok && sc[i].Ref != ref {
			t.Fatalf("%s: findSlot(%s) = %d, %v; model %d, %v", where, l, i, ok, ref, want)
		}
	}
}

func TestSlotTableMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newSlotModel()
		for step := 0; step < 300; step++ {
			op := byte(rng.Intn(64))
			if op%6 >= 4 && rng.Intn(4) != 0 {
				op = 0 // keep the table filling: resets are rarer than sets
			}
			what := m.step(op, byte(rng.Intn(256)), byte(rng.Intn(256)))
			m.check(t, fmt.Sprintf("seed %d step %d (%s)", seed, step, what))
		}
	}
}

// FuzzSlotTable reads its input as (op, a, b) triples.
func FuzzSlotTable(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 2, 2, 0, 7, 3, 0, 15, 4, 1, 2, 0})
	f.Add([]byte{5, 5, 3, 0, 7, 1, 0, 23, 2, 2, 0, 2, 3, 9, 2})
	f.Add([]byte{0, 6, 1, 0, 14, 2, 0, 22, 3, 0, 7, 4, 0, 15, 1, 3, 6, 2, 4, 0, 0, 0, 1, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := newSlotModel()
		for i := 0; i+2 < len(ops); i += 3 {
			what := m.step(ops[i], ops[i+1], ops[i+2])
			m.check(t, fmt.Sprintf("op %d (%s)", i/3, what))
		}
	})
}
