package wire

import (
	"strings"
	"testing"
	"unsafe"

	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
)

// These tests pin the shared-payload table: the copies of one large
// publication that a connection carries to several subscribers decode into
// one string, and nothing but equal bytes is ever shared.

const sharedFan = 8

var sharedKey = proto.Key{Bits: 0x9e3779b97f4a7c15, Len: 64}

// sharedFrame is one forwarding step on the wire: a Batch2 of sharedFan
// PublishNew members under one key, member i carrying payloads[i].
func sharedFrame(t testing.TB, payloads []string) []byte {
	t.Helper()
	var batch Batch2
	for i, p := range payloads {
		pub := proto.Publication{Key: sharedKey, Origin: 1, Payload: p}
		arc := proto.Arc{Lo: uint64(i) << 60, Hi: uint64(i+1) << 60}
		batch.Msgs = append(batch.Msgs, sim.Message{To: sim.NodeID(i + 2), From: 1, Topic: 1,
			Body: proto.PublishNew{Pub: pub, Arc: arc}})
	}
	frame, err := Marshal(sim.Message{Body: batch})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// repeated returns n copies of s.
func repeated(s string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = s
	}
	return out
}

// flipped returns s with byte i inverted.
func flipped(s string, i int) string {
	b := []byte(s)
	b[i] ^= 0xFF
	return string(b)
}

// decodePayloads decodes frame through st and returns each member's payload.
func decodePayloads(t testing.TB, frame []byte, st *DecodeState) []string {
	t.Helper()
	m, err := UnmarshalState(frame, st)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, bm := range m.Body.(Batch2).Msgs {
		out = append(out, bm.Body.(proto.PublishNew).Pub.Payload)
	}
	st.EndFrame()
	return out
}

var payload4K = strings.Repeat("0123456789abcdef", 256)

// TestSharedPayloadOneBacking: eight copies of one 4 KiB publication decode
// into payloads with one backing array, and so does the same publication in
// the connection's next frame.
func TestSharedPayloadOneBacking(t *testing.T) {
	st := NewDecodeState()
	frame := sharedFrame(t, repeated(payload4K, sharedFan))
	first := decodePayloads(t, frame, st)
	again := decodePayloads(t, frame, st)
	data := unsafe.StringData(first[0])
	for i, p := range append(first, again...) {
		if p != payload4K {
			t.Fatalf("payload %d decoded wrong", i)
		}
		if unsafe.StringData(p) != data {
			t.Errorf("payload %d has its own backing array", i)
		}
	}
}

// TestSharedPayloadFlippedByte: a member under the same key whose payload
// differs in one byte — a corrupted copy or a key collision — decodes to
// its own bytes, and the members around it still decode to theirs.
func TestSharedPayloadFlippedByte(t *testing.T) {
	want := repeated(payload4K, sharedFan)
	want[3] = flipped(payload4K, 2048)
	got := decodePayloads(t, sharedFrame(t, want), NewDecodeState())
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("member %d decoded to the wrong bytes", i)
		}
	}
	if unsafe.StringData(got[3]) == unsafe.StringData(got[2]) {
		t.Error("the flipped member shares its neighbour's backing array")
	}
}

// TestSharedPayloadAllocs: decoding the eight-copy frame on a fresh table
// allocates one payload, not eight — 7 fewer allocations than the same
// frame whose members all differ, which is what every frame cost before
// payloads were shared.
func TestSharedPayloadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are meaningless")
	}
	distinct := make([]string, sharedFan)
	for i := range distinct {
		distinct[i] = flipped(payload4K, i)
	}
	allocs := func(payloads []string) float64 {
		frame := sharedFrame(t, payloads)
		st := NewDecodeState()
		decodePayloads(t, frame, st) // warm: size the arena chunks
		return testing.AllocsPerRun(200, func() {
			st.Reset() // a fresh publication: the table has not seen it
			decodePayloads(t, frame, st)
		})
	}
	shared, apart := allocs(repeated(payload4K, sharedFan)), allocs(distinct)
	t.Logf("%.1f allocations per frame of eight copies, %.1f of eight distinct payloads", shared, apart)
	if apart-shared != sharedFan-1 {
		t.Errorf("sharing saved %.1f allocations per frame, want %d", apart-shared, sharedFan-1)
	}
}

// TestSharedPayloadTableBounds: Reset empties the table; a payload of at
// most arenaMaxStr stays on the arena path and one over sharedMaxStr is
// never retained.
func TestSharedPayloadTableBounds(t *testing.T) {
	st := NewDecodeState()
	decodePayloads(t, sharedFrame(t, repeated(payload4K, 2)), st)
	if st.arena.shared == [sharedSlots]string{} {
		t.Fatal("a 4 KiB payload was not stored")
	}
	st.Reset()
	if st.arena.shared != [sharedSlots]string{} {
		t.Error("Reset left the table non-empty")
	}
	for _, n := range []int{arenaMaxStr, sharedMaxStr + 1} {
		decodePayloads(t, sharedFrame(t, repeated(strings.Repeat("x", n), 2)), st)
		if st.arena.shared != [sharedSlots]string{} {
			t.Errorf("a %d-byte payload entered the table", n)
		}
	}
}
