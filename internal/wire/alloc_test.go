package wire

import (
	"bytes"
	"testing"

	"sspubsub/internal/label"
	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
)

// These guards pin the zero-allocation contract of the codec hot path.
// They are deliberately strict: a regression that re-introduces a
// per-frame allocation (an escaping cursor, a lost buffer reuse) fails
// here immediately instead of eroding the benchmark trajectory silently.

func allocCheckMsg() sim.Message {
	return sim.Message{To: 5, From: 9, Topic: 1, Body: proto.Check{
		Sender:    proto.Tuple{L: label.MustParse("011"), Ref: 9},
		YourLabel: label.MustParse("01"),
		Flag:      proto.CYC,
	}}
}

// TestAppendFrameAllocFree: encoding into a buffer with capacity performs
// no allocations at all, for both a fixed-size body and one with slices.
func TestAppendFrameAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are meaningless")
	}
	msgs := []sim.Message{
		allocCheckMsg(),
		{To: 9, From: 1, Topic: 1, Body: proto.CheckTrie{Sender: 4, Nodes: []proto.NodeSummary{
			{Label: proto.Key{Bits: 0b101, Len: 3}, Hash: [16]byte{1, 2, 3}},
		}}},
	}
	for _, m := range msgs {
		buf, err := Marshal(m) // warm: size the buffer, fault in the pools
		if err != nil {
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(200, func() {
			var err error
			buf, err = AppendFrame(buf[:0], m)
			if err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Errorf("AppendFrame(%T) allocates %.2f objects/op, want 0", m.Body, avg)
		}
	}
}

// TestReadFrameBufAllocs: with a reused frame buffer, decoding a
// fixed-size body costs exactly the one unavoidable allocation — boxing
// the decoded body into the message's `any` field.
func TestReadFrameBufAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are meaningless")
	}
	frame, err := Marshal(allocCheckMsg())
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(frame)
	var buf []byte
	if _, buf, err = ReadFrame(r, buf, nil); err != nil { // warm: grow buf, fault in pools
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		r.Reset(frame)
		m, b, err := ReadFrame(r, buf, nil)
		buf = b
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := m.Body.(proto.Check); !ok {
			t.Fatalf("decoded %T", m.Body)
		}
	})
	if avg > 1 {
		t.Errorf("ReadFrame(Check) allocates %.2f objects/op, want ≤ 1 (body boxing)", avg)
	}
}

// TestArenaBatchDecodeAllocs: decoding the PublishBatch16 shape through a
// DecodeState costs at most 2 allocations per frame — the body boxing and
// the amortized arena chunk — instead of the 18 discrete allocations of
// the stateless path (16 payload strings, the publication slice, boxing).
func TestArenaBatchDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are meaningless")
	}
	frame, err := Marshal(benchMessages()["PublishBatch16"])
	if err != nil {
		t.Fatal(err)
	}
	st := NewDecodeState()
	if _, err := UnmarshalState(frame, st); err != nil { // warm: size the arena chunks
		t.Fatal(err)
	}
	st.Reset()
	avg := testing.AllocsPerRun(200, func() {
		m, err := UnmarshalState(frame, st)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(m.Body.(proto.PublishBatch).Pubs); got != 16 {
			t.Fatalf("decoded %d pubs", got)
		}
		st.EndFrame()
		st.Reset() // the benchmark's lifetime model: caller owns the frame's values
	})
	if avg > 2 {
		t.Errorf("arena decode of PublishBatch16 allocates %.2f objects/op, want ≤ 2", avg)
	}
}
