package wire

import (
	"errors"
	"reflect"
	"testing"

	"sspubsub/internal/core"
	"sspubsub/internal/label"
	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
)

// tape turns a fuzz byte string into a stream of typed draws, so the fuzzer
// explores the full message space structure-aware: every registered type,
// every field, arbitrary values. Exhausted tapes read zero.
type tape struct {
	b   []byte
	off int
}

func (t *tape) u8() uint8 {
	if t.off >= len(t.b) {
		return 0
	}
	v := t.b[t.off]
	t.off++
	return v
}

func (t *tape) u64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(t.u8())
	}
	return v
}

func (t *tape) node() sim.NodeID { return sim.NodeID(t.u64()) }

func (t *tape) label() label.Label {
	return label.Label{Bits: t.u64(), Len: t.u8()}
}

func (t *tape) tuple() proto.Tuple { return proto.Tuple{L: t.label(), Ref: t.node()} }

func (t *tape) key() proto.Key { return proto.Key{Bits: t.u64(), Len: t.u8()} }

func (t *tape) str() string {
	n := int(t.u8() % 16)
	out := make([]byte, n)
	for i := range out {
		out[i] = t.u8()
	}
	return string(out)
}

func (t *tape) flag() proto.Flag { return proto.Flag(t.u8() % 2) }

func (t *tape) summary() proto.NodeSummary {
	s := proto.NodeSummary{Label: t.key()}
	for i := range s.Hash {
		s.Hash[i] = t.u8()
	}
	return s
}

func (t *tape) publication() proto.Publication {
	return proto.Publication{Key: t.key(), Origin: t.node(), Payload: t.str()}
}

func (t *tape) arc() proto.Arc { return proto.Arc{Lo: t.u64(), Hi: t.u64()} }

// genBody draws one message body of the selected registered type.
func genBody(sel uint8, tp *tape) any {
	switch sel % 24 {
	case 0:
		return proto.Subscribe{V: tp.node()}
	case 1:
		return proto.Unsubscribe{V: tp.node()}
	case 2:
		return proto.GetConfiguration{V: tp.node()}
	case 3:
		return proto.SetData{Pred: tp.tuple(), Label: tp.label(), Succ: tp.tuple()}
	case 4:
		return proto.Check{Sender: tp.tuple(), YourLabel: tp.label(), Flag: tp.flag()}
	case 5:
		return proto.Introduce{C: tp.tuple(), Flag: tp.flag()}
	case 6:
		return proto.Linearize{V: tp.tuple(), From: tp.tuple()}
	case 7:
		return proto.RemoveConnections{V: tp.node()}
	case 8:
		return proto.IntroduceShortcut{T: tp.tuple()}
	case 9:
		m := proto.CheckTrie{Sender: tp.node()}
		for i := int(tp.u8() % 4); i > 0; i-- {
			m.Nodes = append(m.Nodes, tp.summary())
		}
		return m
	case 10:
		m := proto.CheckAndPublish{Sender: tp.node()}
		for i := int(tp.u8() % 4); i > 0; i-- {
			m.Nodes = append(m.Nodes, tp.summary())
		}
		m.Prefix = tp.key()
		return m
	case 11:
		var m proto.PublishBatch
		for i := int(tp.u8() % 4); i > 0; i-- {
			m.Pubs = append(m.Pubs, tp.publication())
		}
		return m
	case 12:
		m := proto.PublishNew{Pub: tp.publication(), Seq: tp.u64()}
		for i := int(tp.u8() % 4); i > 0; i-- {
			m.Barrier = append(m.Barrier, proto.BarrierEntry{Origin: tp.node(), Seq: tp.u64()})
		}
		m.Arc = tp.arc()
		return m
	case 13:
		return core.JoinTopic{}
	case 14:
		return core.LeaveTopic{}
	case 15:
		return core.PublishCmd{Payload: tp.str()}
	case 16:
		return Hello{Base: tp.node(), Slots: uint32(tp.u64())}
	case 17:
		return Welcome{Base: tp.node(), Slots: uint32(tp.u64())}
	case 18:
		return proto.Reregister{V: tp.node(), Label: tp.label(), Epoch: tp.u64()}
	case 19:
		return proto.OwnerAnnounce{Owner: tp.node(), Epoch: tp.u64()}
	case 20:
		var m proto.PlaneGossip
		for i := int(tp.u8() % 4); i > 0; i-- {
			m.Entries = append(m.Entries, proto.TopicEpoch{Topic: sim.Topic(uint32(tp.u64())), Epoch: tp.u64()})
		}
		return m
	case 21:
		m := proto.ReplicaDelta{Epoch: tp.u64()}
		for i := int(tp.u8() % 4); i > 0; i-- {
			m.Put = append(m.Put, proto.ReplicaEntry{L: tp.label(), V: tp.node()})
		}
		for i := int(tp.u8() % 4); i > 0; i-- {
			m.Del = append(m.Del, tp.label())
		}
		return m
	case 22:
		m := proto.ReplicaDigest{Probe: tp.u8()%2 == 1, Epoch: tp.u64(), Count: tp.u64()}
		for i := range m.Hash {
			m.Hash[i] = tp.u8()
		}
		return m
	default:
		m := proto.ReplicaSync{Epoch: tp.u64(), Round: tp.u64(), Seq: tp.u64(), Chunks: tp.u64()}
		for i := int(tp.u8() % 4); i > 0; i-- {
			m.Entries = append(m.Entries, proto.ReplicaEntry{L: tp.label(), V: tp.node()})
		}
		return m
	}
}

// FuzzWireRoundTrip drives the structured property the transport depends
// on: for every message the generator can produce (any registered type,
// arbitrary field values), Unmarshal(Marshal(m)) == m exactly.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(3), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(uint8(11), []byte{3, 0xFF, 0xAA, 0x55, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Add(uint8(12), []byte("causal-barrier-entries-and-a-long-tail-of-entropy"))
	f.Add(uint8(17), []byte{0x80, 0})
	f.Fuzz(func(t *testing.T, sel uint8, raw []byte) {
		tp := &tape{b: raw}
		m := sim.Message{
			To:    tp.node(),
			From:  tp.node(),
			Topic: sim.Topic(tp.u64()),
			Body:  genBody(sel, tp),
		}
		b, err := Marshal(m)
		if err != nil {
			t.Fatalf("Marshal(%#v): %v", m, err)
		}
		got, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("Unmarshal(Marshal(%#v)): %v", m, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip:\n got %#v\nwant %#v", got, m)
		}
	})
}

// FuzzWireAdversarial feeds the decoder arbitrary bytes. It must never
// panic; when it does accept an input, re-encoding must be canonical
// (Marshal succeeds and decodes back to the same message) — otherwise a
// hostile frame could mean different things to different receivers.
func FuzzWireAdversarial(f *testing.F) {
	// Seed with valid frames of several shapes, then mutilations.
	for _, body := range []any{
		proto.Subscribe{V: 7},
		proto.Check{Sender: proto.Tuple{L: label.MustParse("01"), Ref: 4}, YourLabel: label.MustParse("1")},
		proto.PublishBatch{Pubs: []proto.Publication{{Key: proto.Key{Bits: 5, Len: 8}, Origin: 1, Payload: "x"}}},
		core.PublishCmd{Payload: "seed"},
		Hello{Base: 4096, Slots: 64},
		proto.Reregister{V: 5, Label: label.MustParse("01"), Epoch: 3},
		proto.OwnerAnnounce{Owner: 2, Epoch: 4},
		proto.PlaneGossip{Entries: []proto.TopicEpoch{{Topic: 2, Epoch: 9}}},
		proto.ReplicaDelta{Epoch: 4, Put: []proto.ReplicaEntry{{L: label.MustParse("01"), V: 6}}, Del: []label.Label{label.MustParse("1")}},
		proto.ReplicaDigest{Probe: true, Epoch: 2, Count: 5, Hash: [16]byte{0xAB, 1}},
		proto.ReplicaSync{Epoch: 3, Round: 1, Seq: 0, Chunks: 2, Entries: []proto.ReplicaEntry{{L: label.MustParse("001"), V: 8}}},
		proto.PublishNew{Pub: proto.Publication{Key: proto.Key{Bits: 5, Len: 8}, Origin: 1, Payload: "s"}, Seq: 7},
		proto.PublishNew{Pub: proto.Publication{Key: proto.Key{Bits: 6, Len: 8}, Origin: 2, Payload: "c"}, Seq: 3,
			Barrier: []proto.BarrierEntry{{Origin: 1, Seq: 2}, {Origin: 4, Seq: 9}}},
		proto.PublishNew{Pub: proto.Publication{Key: proto.Key{Bits: 7, Len: 8}, Origin: 3, Payload: "t"},
			Arc: proto.Arc{Lo: label.MustParse("01").Frac(), Hi: label.MustParse("11").Frac()}},
	} {
		b, err := Marshal(sim.Message{To: 2, From: 3, Topic: 1, Body: body})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		if len(b) > 6 {
			cut := append([]byte{}, b[:len(b)-2]...)
			f.Add(cut)
			flip := append([]byte{}, b...)
			flip[6] ^= 0xFF
			f.Add(flip)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 3, 'S', 'R', 1})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 'S', 'R', 1})

	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Unmarshal(b)
		if err != nil {
			if !errors.Is(err, ErrGarbage) && !errors.Is(err, ErrFrameTooLarge) {
				t.Fatalf("unclassified decode error: %v", err)
			}
			return
		}
		re, err := Marshal(m)
		if err != nil {
			t.Fatalf("accepted frame %x decoded to unmarshalable %#v: %v", b, m, err)
		}
		again, err := Unmarshal(re)
		if err != nil {
			t.Fatalf("re-encoding of %#v does not decode: %v", m, err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("non-canonical frame %x:\n first %#v\nsecond %#v", b, m, again)
		}
	})
}
