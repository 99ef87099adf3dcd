package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"sspubsub/internal/core"
	"sspubsub/internal/label"
	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
)

func lbl(s string) label.Label { return label.MustParse(s) }

func tup(l string, id sim.NodeID) proto.Tuple { return proto.Tuple{L: lbl(l), Ref: id} }

// sampleBodies holds one populated value per registered type, so the
// round-trip table provably covers the whole registry.
var sampleBodies = []any{
	proto.Subscribe{V: 7},
	proto.Unsubscribe{V: 1<<40 + 3},
	proto.GetConfiguration{V: 2},
	proto.SetData{Pred: tup("01", 4), Label: lbl("11"), Succ: proto.Tuple{}},
	proto.Check{Sender: tup("011", 9), YourLabel: lbl("0"), Flag: proto.CYC},
	proto.Introduce{C: tup("1", 5), Flag: proto.LIN},
	proto.Linearize{V: tup("001", 8)},
	proto.RemoveConnections{V: 3},
	proto.IntroduceShortcut{T: tup("101", 6)},
	proto.CheckTrie{Sender: 4, Nodes: []proto.NodeSummary{
		{Label: proto.Key{Bits: 0b101, Len: 3}, Hash: [16]byte{1, 2, 3, 255}},
		{Label: proto.Key{Bits: 0, Len: 0}},
	}},
	proto.CheckAndPublish{Sender: 5, Nodes: []proto.NodeSummary{
		{Label: proto.Key{Bits: 1, Len: 1}, Hash: [16]byte{9}},
	}, Prefix: proto.Key{Bits: 0b11, Len: 2}},
	proto.PublishBatch{Pubs: []proto.Publication{
		{Key: proto.Key{Bits: 42, Len: 64}, Origin: 7, Payload: "hello"},
		{Key: proto.Key{Bits: 0, Len: 1}, Origin: 8, Payload: ""},
	}},
	proto.PublishNew{Pub: proto.Publication{Key: proto.Key{Bits: 99, Len: 32}, Origin: 2, Payload: "pub-β"}},
	proto.Reregister{V: 12, Label: lbl("001"), Epoch: 1<<40 + 5},
	proto.OwnerAnnounce{Owner: 3, Epoch: 7},
	proto.PlaneGossip{Entries: []proto.TopicEpoch{{Topic: 1, Epoch: 2}, {Topic: 1 << 30, Epoch: 0}}},
	proto.PlaneGossip{},
	proto.SetData{Pred: tup("01", 4), Label: lbl("11"), Succ: tup("1", 6), Epoch: 9},
	proto.ReplicaDelta{Epoch: 3, Put: []proto.ReplicaEntry{
		{L: lbl("01"), V: 7},
		{L: lbl("011"), V: 1<<40 + 9},
	}, Del: []label.Label{lbl("0"), lbl("1011")}},
	proto.ReplicaDelta{Epoch: 1 << 50},
	proto.ReplicaDigest{Probe: true, Epoch: 5, Count: 1 << 20, Hash: [16]byte{1, 2, 3, 255}},
	proto.ReplicaSync{Epoch: 6, Round: 2, Seq: 1, Chunks: 3, Entries: []proto.ReplicaEntry{
		{L: lbl("0001"), V: 12},
	}},
	proto.ReplicaSync{Epoch: 7, Round: 1, Seq: 0, Chunks: 1},
	proto.ReplicaDelta{Epoch: 4, Mode: 1},
	proto.ReplicaDigest{Epoch: 2, Count: 3, Mode: 2},
	proto.ReplicaSync{Epoch: 8, Round: 1, Seq: 0, Chunks: 1, Mode: 2},
	proto.PublishSeq{Pub: proto.Publication{Key: proto.Key{Bits: 17, Len: 16}, Origin: 3, Payload: "seq-pub"}, Seq: 1 << 33},
	proto.PublishSeq{Pub: proto.Publication{Key: proto.Key{Bits: 1, Len: 1}, Origin: 4, Payload: ""}, Seq: 1},
	proto.PublishCausal{Pub: proto.Publication{Key: proto.Key{Bits: 5, Len: 8}, Origin: 6, Payload: "causal"}, Seq: 9,
		Barrier: []proto.BarrierEntry{{Origin: 1, Seq: 8}, {Origin: 1<<40 + 2, Seq: 1 << 50}}},
	proto.PublishCausal{Pub: proto.Publication{Key: proto.Key{Bits: 2, Len: 2}, Origin: 7, Payload: "lone"}, Seq: 1},
	core.JoinTopic{},
	core.LeaveTopic{},
	core.PublishCmd{Payload: "payload with\x00bytes"},
	Hello{Base: sim.None, Slots: 1024},
	Welcome{Base: 4096, Slots: 1024},
	Batch2{Msgs: []sim.Message{
		// The same shareable body to two destinations (the encode-once
		// multicast shape), plus a slice-bearing body that must bypass
		// the intern cache.
		{To: 5, From: 9, Topic: 1, Body: proto.PublishNew{Pub: proto.Publication{Key: proto.Key{Bits: 7, Len: 8}, Origin: 9, Payload: "fan-out"}}},
		{To: 6, From: 9, Topic: 1, Body: proto.PublishNew{Pub: proto.Publication{Key: proto.Key{Bits: 7, Len: 8}, Origin: 9, Payload: "fan-out"}}},
		{To: 2, From: 3, Topic: 2, Body: proto.PublishBatch{Pubs: []proto.Publication{{Key: proto.Key{Bits: 1, Len: 2}, Origin: 3, Payload: "x"}}}},
	}},
}

// TestRoundTripAllTypes checks Unmarshal(Marshal(m)) == m for a populated
// sample of every registered type, and that the sample set covers the
// registry exactly.
func TestRoundTripAllTypes(t *testing.T) {
	covered := make(map[reflect.Type]bool)
	for i, body := range sampleBodies {
		covered[reflect.TypeOf(body)] = true
		m := sim.Message{To: 3, From: 9, Topic: sim.Topic(i + 1), Body: body}
		b, err := Marshal(m)
		if err != nil {
			t.Fatalf("Marshal(%T): %v", body, err)
		}
		got, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("Unmarshal(Marshal(%T)): %v", body, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("round trip %T:\n got %#v\nwant %#v", body, got, m)
		}
	}
	if len(covered) != len(Registered()) {
		t.Errorf("sampleBodies covers %d types, registry has %d:\n%s",
			len(covered), len(Registered()), strings.Join(Registered(), "\n"))
	}
}

// TestEnvelopeExtremes pins the envelope codec at the edges of the ID and
// topic domains (negative values must survive, even though the protocol
// never generates them: the codec must not corrupt what it carries).
func TestEnvelopeExtremes(t *testing.T) {
	for _, m := range []sim.Message{
		{To: sim.None, From: sim.None, Topic: 0, Body: core.JoinTopic{}},
		{To: 1<<62 - 1, From: -5, Topic: -1, Body: core.JoinTopic{}},
		{To: -1 << 62, From: 1, Topic: 1<<31 - 1, Body: core.JoinTopic{}},
	} {
		b, err := Marshal(m)
		if err != nil {
			t.Fatalf("Marshal(%v): %v", m, err)
		}
		got, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("Unmarshal(%v): %v", m, err)
		}
		if got != m {
			t.Errorf("envelope round trip: got %v want %v", got, m)
		}
	}
}

// TestGarbageRejected feeds the decoder a gallery of malformed frames;
// every one must fail with an ErrGarbage-class error — and none may panic.
func TestGarbageRejected(t *testing.T) {
	valid, err := Marshal(sim.Message{To: 2, From: 3, Topic: 1, Body: proto.Subscribe{V: 7}})
	if err != nil {
		t.Fatal(err)
	}
	trailing := make([]byte, len(valid)+1)
	copy(trailing, valid)
	trailing[len(valid)] = 0xFF
	overrun := append([]byte{}, valid...)
	overrun[3]++ // prefix claims one more payload byte than present

	cases := map[string][]byte{
		"empty":            {},
		"short prefix":     {0, 0},
		"bad magic":        {0, 0, 0, 3, 'X', 'Y', 1},
		"bad version":      {0, 0, 0, 3, 'S', 'R', 9},
		"header only":      {0, 0, 0, 2, 'S', 'R'},
		"length mismatch":  overrun,
		"trailing garbage": trailing,
		"unknown tag":      mustFrame(t, func(e *enc) { e.svarint(1); e.svarint(2); e.svarint(3); e.uvarint(9999) }),
		"truncated body":   valid[:len(valid)-1],
		"lying slice len":  mustFrame(t, func(e *enc) { e.svarint(1); e.svarint(2); e.svarint(3); e.uvarint(tagPublishBatch); e.uvarint(1 << 50) }),
		"bad bool": mustFrame(t, func(e *enc) {
			e.svarint(1)
			e.svarint(2)
			e.svarint(3)
			e.uvarint(tagReplicaDigest)
			e.u8(7)
		}),
		"bad flag": mustFrame(t, func(e *enc) {
			e.svarint(1)
			e.svarint(2)
			e.svarint(3)
			e.uvarint(tagIntroduce)
			e.uvarint(0)
			e.u8(0)
			e.svarint(0)
			e.u8(9)
		}),
		"huge string len":   mustFrame(t, func(e *enc) { e.svarint(1); e.svarint(2); e.svarint(3); e.uvarint(tagPublishCmd); e.uvarint(1 << 40) }),
		"nonminimal varint": mustFrame(t, func(e *enc) { e.raw(0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01) }),
		"body after empty":  mustFrame(t, func(e *enc) { e.svarint(1); e.svarint(2); e.svarint(3); e.uvarint(tagJoinTopic); e.u8(0) }),
		"batch2 member len beyond frame": mustFrame(t, func(e *enc) {
			e.svarint(0)
			e.svarint(0)
			e.svarint(0)
			e.uvarint(tagBatch2)
			e.uvarint(1)  // one member…
			e.uvarint(50) // …claiming 50 bytes with none present
		}),
		"batch2 member len below floor": mustFrame(t, func(e *enc) {
			e.svarint(0)
			e.svarint(0)
			e.svarint(0)
			e.uvarint(tagBatch2)
			e.uvarint(1)
			e.uvarint(3) // a member cannot fit in 3 bytes
			e.raw(0, 0, 0)
		}),
		"batch2 member trailing byte": mustFrame(t, func(e *enc) {
			e.svarint(0)
			e.svarint(0)
			e.svarint(0)
			e.uvarint(tagBatch2)
			e.uvarint(1)
			e.uvarint(5) // envelope(3) + JoinTopic tag(1) decode to 4 — 1 byte lies beyond
			e.svarint(1)
			e.svarint(2)
			e.svarint(3)
			e.uvarint(tagJoinTopic)
			e.u8(0xEE)
		}),
		"batch2 nested batch": mustFrame(t, func(e *enc) {
			e.svarint(0)
			e.svarint(0)
			e.svarint(0)
			e.uvarint(tagBatch2)
			e.uvarint(1)
			e.uvarint(5)
			e.svarint(1)
			e.svarint(2)
			e.svarint(3)
			e.uvarint(tagBatch2)
			e.uvarint(0)
		}),
	}
	// Retired tags are reserved forever and never decodable again, neither
	// as a frame of their own nor as a batch member: 14–16 were the
	// token-passing supervisor's Token, TokenReturn and Register, 34 was
	// Batch, the first batching envelope.
	for _, tag := range []uint64{14, 15, 16, 34} {
		cases[fmt.Sprintf("retired tag %d frame", tag)] = mustFrame(t, func(e *enc) {
			e.svarint(1)
			e.svarint(2)
			e.svarint(3)
			e.uvarint(tag)
			e.uvarint(0)
		})
		cases[fmt.Sprintf("retired tag %d member", tag)] = mustFrame(t, func(e *enc) {
			e.svarint(0)
			e.svarint(0)
			e.svarint(0)
			e.uvarint(tagBatch2)
			e.uvarint(1)
			e.uvarint(5)
			e.svarint(1)
			e.svarint(2)
			e.svarint(3)
			e.uvarint(tag)
			e.uvarint(0)
		})
	}

	for name, b := range cases {
		_, err := Unmarshal(b)
		if err == nil {
			t.Errorf("%s: decoded successfully, want error", name)
			continue
		}
		if !errors.Is(err, ErrGarbage) {
			t.Errorf("%s: error %v does not wrap ErrGarbage", name, err)
		}
	}
}

// mustFrame hand-assembles a frame around a raw payload writer, for
// malformed-input tests the normal Marshal path refuses to produce.
func mustFrame(t *testing.T, body func(*enc)) []byte {
	t.Helper()
	e := &enc{b: []byte{0, 0, 0, 0, 'S', 'R', Version}}
	body(e)
	n := len(e.b) - 4
	e.b[0], e.b[1], e.b[2], e.b[3] = byte(n>>24), byte(n>>16), byte(n>>8), byte(n)
	return e.b
}

// TestFrameTooLarge: an oversize length prefix is a stream-poisoning
// error, distinct from recoverable garbage.
func TestFrameTooLarge(t *testing.T) {
	b := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := Unmarshal(b); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("got %v, want ErrFrameTooLarge", err)
	}
	if _, err := ReadFrame(bytes.NewReader(b)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("ReadFrame: got %v, want ErrFrameTooLarge", err)
	}
	big := proto.PublishBatch{Pubs: []proto.Publication{{Payload: strings.Repeat("x", MaxFrame+1)}}}
	if _, err := Marshal(sim.Message{To: 1, Body: big}); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("Marshal oversize: got %v, want ErrFrameTooLarge", err)
	}
}

// TestUnregisteredBody: Marshal refuses types outside the registry (the
// deterministic scheduler's garbage-injection bodies, for example, have no
// wire form on purpose).
func TestUnregisteredBody(t *testing.T) {
	type notAMessage struct{ X int }
	if _, err := Marshal(sim.Message{To: 1, Body: notAMessage{}}); err == nil {
		t.Error("Marshal accepted an unregistered body type")
	}
	if _, err := Marshal(sim.Message{To: 1, Body: nil}); err == nil {
		t.Error("Marshal accepted a nil body")
	}
}

// TestStreamReadWrite pushes a mixed sequence of frames through a byte
// stream, interleaved with one garbage frame that must be skippable.
func TestStreamReadWrite(t *testing.T) {
	var buf bytes.Buffer
	msgs := []sim.Message{
		{To: 1, From: 2, Topic: 1, Body: proto.Subscribe{V: 2}},
		{To: 2, From: 1, Topic: 1, Body: proto.SetData{Label: lbl("0")}},
		{To: 2, From: 3, Topic: 2, Body: proto.PublishNew{Pub: proto.Publication{Key: proto.Key{Bits: 5, Len: 8}, Origin: 3, Payload: "p"}}},
	}
	for i, m := range msgs {
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			// A well-delimited frame with an unknown tag: recoverable garbage.
			buf.Write(mustFrame(t, func(e *enc) { e.svarint(0); e.svarint(0); e.svarint(0); e.uvarint(500) }))
		}
	}
	var got []sim.Message
	for {
		m, err := ReadFrame(&buf)
		if err != nil {
			if errors.Is(err, ErrGarbage) {
				continue // skip, stream stays aligned
			}
			break // EOF
		}
		got = append(got, m)
	}
	if !reflect.DeepEqual(got, msgs) {
		t.Errorf("stream round trip:\n got %v\nwant %v", got, msgs)
	}
}

// TestStateDecodeMatchesPlain: decoding through a DecodeState must yield
// exactly what the plain decoder yields, for every registered type, and
// must keep doing so when the state (arena chunks, intern cache) is warm
// from previous frames.
func TestStateDecodeMatchesPlain(t *testing.T) {
	st := NewDecodeState()
	for pass := 0; pass < 3; pass++ { // pass 0 cold, later passes warm/interned
		for i, body := range sampleBodies {
			m := sim.Message{To: 3, From: 9, Topic: sim.Topic(i + 1), Body: body}
			b, err := Marshal(m)
			if err != nil {
				t.Fatalf("Marshal(%T): %v", body, err)
			}
			want, err := Unmarshal(b)
			if err != nil {
				t.Fatalf("Unmarshal(%T): %v", body, err)
			}
			got, err := UnmarshalState(b, st)
			if err != nil {
				t.Fatalf("pass %d: UnmarshalState(%T): %v", pass, body, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("pass %d: state decode of %T:\n got %#v\nwant %#v", pass, body, got, want)
			}
			st.EndFrame()
		}
	}
}

// TestBatch2Interning: two identical shareable members decoded through
// one DecodeState must come back as the same boxed body — the decode-side
// half of encode-once multicast.
func TestBatch2Interning(t *testing.T) {
	pub := proto.PublishNew{Pub: proto.Publication{Key: proto.Key{Bits: 9, Len: 16}, Origin: 4, Payload: "shared"}}
	m := sim.Message{Body: Batch2{Msgs: []sim.Message{
		{To: 5, From: 4, Topic: 1, Body: pub},
		{To: 6, From: 4, Topic: 1, Body: pub},
	}}}
	b, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	st := NewDecodeState()
	got, err := UnmarshalState(b, st)
	if err != nil {
		t.Fatal(err)
	}
	msgs := got.Body.(Batch2).Msgs
	if len(msgs) != 2 {
		t.Fatalf("decoded %d members, want 2", len(msgs))
	}
	p0 := reflect.ValueOf(msgs[0].Body)
	p1 := reflect.ValueOf(msgs[1].Body)
	if msgs[0].Body != msgs[1].Body {
		t.Fatalf("identical members decoded to different values: %#v vs %#v", p0, p1)
	}
	// Same value is necessary but not sufficient — a second frame with the
	// same member must hit the cache, observable as the string payloads
	// aliasing the same backing memory.
	got2, err := UnmarshalState(b, st)
	if err != nil {
		t.Fatal(err)
	}
	s1 := msgs[0].Body.(proto.PublishNew).Pub.Payload
	s2 := got2.Body.(Batch2).Msgs[0].Body.(proto.PublishNew).Pub.Payload
	if unsafe.StringData(s1) != unsafe.StringData(s2) {
		t.Error("second decode of an identical member did not return the interned body")
	}
}

// TestRawAssemblyMatchesAppendFrame: the transport's raw builders must
// produce byte-identical frames to Marshal over the equivalent message —
// readers cannot tell the encode-once path apart. A standalone frame is
// BeginFrame plus a member's bytes after its length prefix, as the net
// writer cuts it.
func TestRawAssemblyMatchesAppendFrame(t *testing.T) {
	body := proto.PublishNew{Pub: proto.Publication{Key: proto.Key{Bits: 3, Len: 4}, Origin: -7, Payload: "raw"}}
	tagged, err := AppendBody(nil, body)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AppendBody(nil, Batch2{}); err == nil {
		t.Error("AppendBody accepted a batch body")
	}

	m := sim.Message{To: -3, From: 1 << 20, Topic: 5, Body: body}
	want, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	member := AppendBatchMember(nil, m.To, m.From, m.Topic, tagged)
	_, w := binary.Uvarint(member)
	got, err := FinishFrame(append(BeginFrame(nil), member[w:]...), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("standalone assembly:\n got %x\nwant %x", got, want)
	}

	members := []sim.Message{
		{To: 5, From: -9, Topic: 1, Body: body},
		{To: 1 << 30, From: 9, Topic: -2, Body: body},
	}
	want, err = Marshal(sim.Message{Body: Batch2{Msgs: members}})
	if err != nil {
		t.Fatal(err)
	}
	got = BeginBatchFrame(nil, len(members))
	for _, mm := range members {
		got = AppendBatchMember(got, mm.To, mm.From, mm.Topic, tagged)
	}
	got, err = FinishFrame(got, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("batch assembly:\n got %x\nwant %x", got, want)
	}
}

// TestCanShare pins the share predicate on representative types: value
// types (strings included) are shareable, anything carrying a slice is
// not, batches never are.
func TestCanShare(t *testing.T) {
	for _, tc := range []struct {
		body any
		want bool
	}{
		{proto.PublishNew{Pub: proto.Publication{Payload: "p"}}, true},
		{proto.SetData{}, true},
		{core.PublishCmd{Payload: "x"}, true},
		{core.JoinTopic{}, true},
		{Hello{}, true},
		{proto.ReplicaDigest{}, true},
		{proto.PublishBatch{}, false},
		{proto.ReplicaDelta{}, false},
		{proto.ReplicaSync{}, false},
		{proto.CheckTrie{}, false},
		{Batch2{}, false},
		{nil, false},
		{struct{ X int }{}, false}, // unregistered
	} {
		if got := CanShare(tc.body); got != tc.want {
			t.Errorf("CanShare(%T) = %v, want %v", tc.body, got, tc.want)
		}
	}
}

// TestRegisteredListing pins the registry self-description format.
func TestRegisteredListing(t *testing.T) {
	lines := Registered()
	if len(lines) < 20 {
		t.Fatalf("registry has only %d entries: %v", len(lines), lines)
	}
	if lines[0] != "1 proto.Subscribe" {
		t.Errorf("first entry = %q", lines[0])
	}
	for _, l := range lines {
		var tag uint64
		var name string
		if _, err := fmt.Sscanf(l, "%d %s", &tag, &name); err != nil {
			t.Errorf("unparseable registry line %q", l)
		}
	}
}
