package trie

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
)

// clone copies t's slab, so the copy can take inserts independently.
func (t *Trie) clone() *Trie {
	c := *t
	c.chunks = make([]chunk, len(t.chunks))
	for i, ch := range t.chunks {
		c.chunks[i] = chunk{nodes: slices.Clone(ch.nodes), pubs: slices.Clone(ch.pubs)}
	}
	return &c
}

// BenchmarkInsertAgeOrdered prices storing one publication at every
// subscriber of a 32-member topic under a fan-out's load: age-ordered
// 64-bit keys with 225 publications per clock bucket, each trie taking
// them in batches of 8 by InsertFlood, into tries already holding a warm
// prefix. One op is one publication stored in all 32 tries; ns/insert is
// the cost of one of those inserts.
//
// Every round publications the tries are reset to copies of the warm
// prefix outside the timer, which bounds the benchmark's memory. The warm
// prefix is three rounds long, so the slab chunk the round fills is
// already open and no timed insert zeroes a fresh chunk.
func BenchmarkInsertAgeOrdered(b *testing.B) {
	const (
		tries     = 32
		perBucket = 225
		batch     = 8
		round     = 2048
		warm      = 3 * round
	)
	payload := strings.Repeat("x", 64)
	pubs := make([]proto.Publication, warm+round)
	for i := range pubs {
		origin := sim.NodeID(i % tries)
		k := KeyFor(64, uint64(i/perBucket), origin, strconv.Itoa(i))
		pubs[i] = proto.Publication{Key: k, Origin: origin, Payload: payload}
	}
	prefix := New(64)
	for _, p := range pubs[:warm] {
		prefix.InsertFlood(p)
	}
	trs := make([]*Trie, tries)
	reset := func() {
		for i := range trs {
			trs[i] = prefix.clone()
		}
	}
	reset()
	b.ResetTimer()
	for done, next := 0, warm; done < b.N; {
		if next == len(pubs) {
			b.StopTimer()
			reset()
			next = warm
			b.StartTimer()
		}
		n := min(batch, b.N-done, len(pubs)-next)
		for _, tr := range trs {
			for _, p := range pubs[next : next+n] {
				tr.InsertFlood(p)
			}
		}
		done, next = done+n, next+n
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tries), "ns/insert")
}
