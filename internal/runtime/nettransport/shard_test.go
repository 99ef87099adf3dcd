package nettransport

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
)

// These tests pin the loopback role's sharding: one dialed link per P,
// each message on the link its destination picks. They raise GOMAXPROCS
// to maxLoopbackLinks for the transport's construction, so the shards
// exist however many cores the machine has.

// shardedLoopback returns a loopback transport with maxLoopbackLinks links
// and destinations 1..maxLoopbackLinks, each on a link of its own.
func shardedLoopback(t *testing.T, opts Options) *Transport {
	t.Helper()
	prev := runtime.GOMAXPROCS(maxLoopbackLinks)
	tr, err := NewLoopback(opts)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.links) != maxLoopbackLinks {
		tr.Close()
		t.Fatalf("%d links at GOMAXPROCS %d, want %d", len(tr.links), maxLoopbackLinks, maxLoopbackLinks)
	}
	seen := make(map[*peer]bool)
	for d := sim.NodeID(1); d <= maxLoopbackLinks; d++ {
		seen[tr.linkFor(d)] = true
	}
	if len(seen) != maxLoopbackLinks {
		tr.Close()
		t.Fatalf("destinations 1..%d share links: %d distinct", maxLoopbackLinks, len(seen))
	}
	return tr
}

// seqHandler checks that Subscribe bodies arrive with V = 0, 1, 2, …; only
// its node goroutine touches next.
type seqHandler struct {
	next int
	got  atomic.Int64
	bad  atomic.Int64 // arrivals out of sequence
}

func (h *seqHandler) OnMessage(_ sim.Context, m sim.Message) {
	v := int(m.Body.(proto.Subscribe).V)
	if v != h.next {
		h.bad.Add(1)
	}
	h.next = v + 1
	h.got.Add(1)
}
func (h *seqHandler) OnTimeout(sim.Context) {}

// TestShardFIFO: one driver interleaves 2,000 sequence-numbered messages
// to each of four destinations on four links, rotating the destination
// order every round so that no link choice blind to the destination lines
// up with it. Each destination's messages ride one link, so each sees its
// own sequence in order, whatever the other links' readers do meanwhile.
func TestShardFIFO(t *testing.T) {
	tr := shardedLoopback(t, Options{Interval: time.Second})
	defer tr.Close()
	const each = 2000
	hs := make([]*seqHandler, maxLoopbackLinks)
	for i := range hs {
		hs[i] = &seqHandler{}
		tr.AddNode(sim.NodeID(i+1), hs[i])
	}
	for i := 0; i < each; i++ {
		for k := range hs {
			tr.Send(subscribe(sim.NodeID((i+k)%len(hs)+1), 9, i))
		}
	}
	if !tr.Quiesce(10*time.Second, func() {}) {
		t.Fatal("quiesce wedged")
	}
	if lost := tr.LostFrames(); lost != 0 {
		t.Fatalf("lost %d frames below queueDepth", lost)
	}
	for d, h := range hs {
		if got, bad := h.got.Load(), h.bad.Load(); got != each || bad != 0 {
			t.Errorf("node %d: %d delivered (want %d), %d out of order", d+1, got, each, bad)
		}
	}
}

// TestShardConservationAcrossFaults cycles the frame fault through drop,
// corrupt and deliver while four links carry traffic, so the hook runs on
// four writers at once: sent = delivered + LostFrames on the quiesced
// transport, and every link delivered something.
func TestShardConservationAcrossFaults(t *testing.T) {
	tr := shardedLoopback(t, Options{Interval: time.Millisecond})
	defer tr.Close()
	hs := make([]*countHandler, maxLoopbackLinks)
	for i := range hs {
		hs[i] = &countHandler{}
		tr.AddNode(sim.NodeID(i+1), hs[i])
	}
	var calls atomic.Int64
	tr.SetFrameFault(func() FrameFault {
		switch calls.Add(1) % 3 {
		case 0:
			return FrameDrop
		case 1:
			return FrameCorrupt
		default:
			return FrameDeliver
		}
	})
	const each = 300
	for i := 0; i < each; i++ {
		for d := range hs {
			tr.Send(subscribe(sim.NodeID(d+1), 9, i))
		}
		if i%10 == 0 {
			time.Sleep(100 * time.Microsecond) // let the writers cut many frames
		}
	}
	if !tr.Quiesce(10*time.Second, func() {}) {
		t.Fatal("quiesce wedged: some loss path leaked an in-flight hold")
	}
	var delivered int64
	for d, h := range hs {
		n := h.n.Load()
		if n == 0 {
			t.Errorf("node %d's link delivered nothing", d+1)
		}
		delivered += n
	}
	sent, lost := int64(each*len(hs)), tr.LostFrames()
	if delivered+lost != sent {
		t.Fatalf("conservation violated: sent %d, delivered %d + lost %d = %d", sent, delivered, lost, delivered+lost)
	}
	if lost == 0 {
		t.Error("the fault mix shed nothing")
	}
}

// TestShardCloseCountsPendingLost holds every link's writer inside its
// first frame, queues more behind each, and closes the transport: Close
// counts every link's pending messages lost, the held frames are dropped
// and counted when released, and no goroutine outlives Close.
func TestShardCloseCountsPendingLost(t *testing.T) {
	before := runtime.NumGoroutine()
	tr := shardedLoopback(t, Options{Interval: time.Second})
	hs := make([]*countHandler, maxLoopbackLinks)
	for i := range hs {
		hs[i] = &countHandler{}
		tr.AddNode(sim.NodeID(i+1), hs[i])
	}
	var holding atomic.Int64
	release := make(chan struct{})
	tr.SetFrameFault(func() FrameFault {
		holding.Add(1)
		<-release
		return FrameDrop
	})
	for d := range hs {
		tr.Send(subscribe(sim.NodeID(d+1), 9, 0))
	}
	deadline := time.Now().Add(10 * time.Second)
	for holding.Load() < maxLoopbackLinks {
		if time.Now().After(deadline) {
			close(release)
			tr.Close()
			t.Fatalf("%d of %d writers reached their first frame", holding.Load(), maxLoopbackLinks)
		}
		time.Sleep(time.Millisecond)
	}
	const pending = 100
	for i := 1; i <= pending; i++ {
		for d := range hs {
			tr.Send(subscribe(sim.NodeID(d+1), 9, i))
		}
	}
	closed := make(chan struct{})
	go func() {
		tr.Close()
		close(closed)
	}()
	// Close's link shutdowns count the queued messages before it waits for
	// the writers, which are still held.
	waitFor(t, 10*time.Second, "every link's pending messages counted lost", func() bool {
		return tr.LostFrames() == pending*maxLoopbackLinks
	})
	close(release)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
	sent := int64((pending + 1) * maxLoopbackLinks)
	var delivered int64
	for _, h := range hs {
		delivered += h.n.Load()
	}
	if lost := tr.LostFrames(); delivered != 0 || lost != sent {
		t.Errorf("sent %d: delivered %d, lost %d; want 0 and %d", sent, delivered, lost, sent)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d still running after Close:\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
	}
}
