package wire

import (
	"fmt"
	"strings"
	"testing"

	"sspubsub/internal/label"
	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
)

// benchMessages are the shapes that dominate live traffic: Check is the
// steady-state ring heartbeat, SetData the supervisor's answer, and
// PublishBatch the anti-entropy bulk path.
func benchMessages() map[string]sim.Message {
	batch := proto.PublishBatch{}
	for i := 0; i < 16; i++ {
		batch.Pubs = append(batch.Pubs, proto.Publication{
			Key:     proto.Key{Bits: uint64(i) * 0x9e3779b97f4a7c15, Len: 64},
			Origin:  sim.NodeID(i + 2),
			Payload: fmt.Sprintf("payload-%d-with-some-realistic-length", i),
		})
	}
	return map[string]sim.Message{
		"Check": {To: 5, From: 9, Topic: 1, Body: proto.Check{
			Sender:    proto.Tuple{L: label.MustParse("011"), Ref: 9},
			YourLabel: label.MustParse("01"),
			Flag:      proto.CYC,
		}},
		"SetData": {To: 9, From: 1, Topic: 1, Body: proto.SetData{
			Pred:  proto.Tuple{L: label.MustParse("01"), Ref: 4},
			Label: label.MustParse("011"),
			Succ:  proto.Tuple{L: label.MustParse("11"), Ref: 7},
		}},
		"PublishBatch16": {To: 5, From: 9, Topic: 1, Body: batch},
	}
}

// BenchmarkWireMarshal measures encode throughput per message shape.
func BenchmarkWireMarshal(b *testing.B) {
	for name, m := range benchMessages() {
		b.Run(name, func(b *testing.B) {
			frame, err := Marshal(m)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			buf := make([]byte, 0, len(frame))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				buf, err = AppendFrame(buf[:0], m)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWireUnmarshal measures decode throughput per message shape,
// through the per-connection DecodeState the transport read loop uses.
// The state is Reset each iteration — the strictest lifetime model, so
// the numbers hold even for callers that cannot batch-amortize.
func BenchmarkWireUnmarshal(b *testing.B) {
	for name, m := range benchMessages() {
		b.Run(name, func(b *testing.B) {
			frame, err := Marshal(m)
			if err != nil {
				b.Fatal(err)
			}
			st := NewDecodeState()
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := UnmarshalState(frame, st); err != nil {
					b.Fatal(err)
				}
				st.EndFrame()
				st.Reset()
			}
		})
	}
}

// BenchmarkWireRoundTrip is the end-to-end codec cost per message — the
// number that bounds the net transport's per-frame CPU overhead.
func BenchmarkWireRoundTrip(b *testing.B) {
	for name, m := range benchMessages() {
		b.Run(name, func(b *testing.B) {
			frame, _ := Marshal(m)
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			buf := make([]byte, 0, len(frame))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, _ = AppendFrame(buf[:0], m)
				if _, err := Unmarshal(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWireDecodeBatch measures decode cost per Batch2 member on the
// frames the forwarding tree sends: 32 PublishNew members, each carrying
// its own arc, through one warm DecodeState as the transport read loop
// uses it (EndFrame after each frame, no Reset). The frames cycle through
// 64 distinct publications per member slot, so no body repeats within
// 2,048 members. Reported per member, at 64-B and 4-KiB payloads.
func BenchmarkWireDecodeBatch(b *testing.B) {
	const members, frames = 32, 64
	for _, size := range []int{64, 4096} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			payload := strings.Repeat("x", size)
			var all [][]byte
			for f := 0; f < frames; f++ {
				batch := Batch2{Msgs: make([]sim.Message, members)}
				for i := range batch.Msgs {
					batch.Msgs[i] = sim.Message{To: sim.NodeID(i + 2), From: 1, Topic: 1, Body: proto.PublishNew{
						Pub: proto.Publication{Key: proto.Key{Bits: uint64(f*members+i) * 0x9e3779b97f4a7c15, Len: 64}, Origin: 1, Payload: payload},
						Arc: proto.Arc{Lo: uint64(i) << 59, Hi: uint64(i+1) << 59},
					}}
				}
				frame, err := Marshal(sim.Message{Body: batch})
				if err != nil {
					b.Fatal(err)
				}
				all = append(all, frame)
			}
			st := NewDecodeState()
			b.SetBytes(int64(len(all[0])))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := UnmarshalState(all[i%frames], st); err != nil {
					b.Fatal(err)
				}
				st.EndFrame()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*members), "ns/member")
		})
	}
}
