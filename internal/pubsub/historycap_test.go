package pubsub

import (
	"fmt"
	"testing"

	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
	"sspubsub/internal/simtest"
)

// mkCapped builds a lone engine (no neighbours) with the given HistoryCap.
func mkCapped(self sim.NodeID, cap int) (*Engine, *simtest.Ctx) {
	e := NewEngine(Config{
		Self:            self,
		Topic:           tp,
		KeyLen:          64,
		HistoryCap:      cap,
		DisableFlooding: true,
	})
	return e, simtest.NewCtx(self)
}

// Regression test for the unbounded-history leak: with a HistoryCap set, a
// subscriber under sustained publish load must retain at most HistoryCap
// publications and its trie memory must plateau exactly — the footprint
// after 10× more publishes is byte-identical, not merely "close".
func TestHistoryCapBoundsMemory(t *testing.T) {
	const cap = 64
	e, ctx := mkCapped(10, cap)

	publish := func(n int) {
		for i := 0; i < n; i++ {
			// Fixed-width payloads so the at-cap footprint is a constant.
			e.Publish(ctx, fmt.Sprintf("payload-%08d", i))
		}
	}

	publish(2 * cap) // warm past the cap
	if got := e.Trie().Len(); got != cap {
		t.Fatalf("retained %d publications, want exactly %d", got, cap)
	}
	plateau := e.Trie().MemoryBytes()
	if plateau == 0 {
		t.Fatal("MemoryBytes() = 0 for a non-empty trie")
	}

	// 10× more load: count and memory must not move at all.
	for round := 0; round < 10; round++ {
		publish(2 * cap)
		if got := e.Trie().Len(); got != cap {
			t.Fatalf("round %d: retained %d publications, want %d", round, got, cap)
		}
		if got := e.Trie().MemoryBytes(); got != plateau {
			t.Fatalf("round %d: MemoryBytes() = %d, want flat at %d", round, got, plateau)
		}
	}
}

// HistoryCap = 0 must preserve the paper's monotone store: everything is
// retained and memory grows with every publication.
func TestHistoryCapZeroIsUnlimited(t *testing.T) {
	e, ctx := mkCapped(10, 0)
	const n = 500
	prev := uint64(0)
	for i := 0; i < n; i++ {
		e.Publish(ctx, fmt.Sprintf("payload-%08d", i))
		if got := e.Trie().MemoryBytes(); got <= prev {
			t.Fatalf("publication %d: MemoryBytes() = %d, not growing past %d", i, got, prev)
		} else {
			prev = got
		}
	}
	if got := e.Trie().Len(); got != n {
		t.Fatalf("retained %d publications, want all %d", got, n)
	}
}

// Eviction by smallest key keeps the retained set a pure function of the
// known set: two capped replicas that learn the same publications in
// different orders end with identical tries (equal root hashes), so
// anti-entropy between them stays silent.
func TestHistoryCapReplicasConverge(t *testing.T) {
	const cap = 16
	a, ac := mkCapped(10, cap)
	b, _ := mkCapped(11, cap)

	var pubs []string
	for i := 0; i < 5*cap; i++ {
		pubs = append(pubs, fmt.Sprintf("payload-%08d", i))
	}
	for _, p := range pubs {
		a.Publish(ac, p)
	}
	// b learns the exact same publications (keys are deterministic in
	// origin+payload) but in reverse order, evicting as it goes.
	full, fc := mkCapped(10, 0)
	for _, p := range pubs {
		full.Publish(fc, p)
	}
	stream := full.Trie().All()
	for i := len(stream) - 1; i >= 0; i-- {
		b.insert(stream[i])
	}

	if a.Trie().Len() != cap || b.Trie().Len() != cap {
		t.Fatalf("lens %d/%d, want %d", a.Trie().Len(), b.Trie().Len(), cap)
	}
	ra, okA := a.Trie().RootSummary()
	rb, okB := b.Trie().RootSummary()
	if !okA || !okB || ra.Hash != rb.Hash {
		t.Fatalf("capped replicas diverged: %x vs %x", ra.Hash, rb.Hash)
	}
}

// A capped history keeps the newest publications. The publisher's clock
// advances once per timeout, so publication i lies in bucket i/perTick;
// once the cap is full, every publication of a bucket newer than the
// oldest retained one must still be stored — eviction takes the oldest
// bucket first. With uniform keys the cap kept a random subset, mostly
// dropping fresh publications.
func TestHistoryCapKeepsNewest(t *testing.T) {
	const cap, total, perTick = 2000, 20000, 100
	e := NewEngine(Config{Self: 10, Topic: tp, KeyLen: 64, HistoryCap: cap,
		DisableFlooding: true, DisableAntiEntropy: true})
	ctx := simtest.NewCtx(10)
	pubs := make([]proto.Publication, total)
	for i := range pubs {
		if i > 0 && i%perTick == 0 {
			e.OnTimeout(ctx)
		}
		pubs[i] = e.Publish(ctx, fmt.Sprintf("payload-%08d", i))
	}
	if got := e.Trie().Len(); got != cap {
		t.Fatalf("retained %d publications, want %d", got, cap)
	}
	oldest := total
	for i, p := range pubs {
		if e.Trie().Has(p.Key) {
			oldest = i
			break
		}
	}
	missing := 0
	for _, p := range pubs[(oldest/perTick+1)*perTick:] {
		if !e.Trie().Has(p.Key) {
			missing++
		}
	}
	if missing > 0 {
		t.Fatalf("oldest retained publication is #%d, yet %d publications of newer buckets were evicted", oldest, missing)
	}
}
