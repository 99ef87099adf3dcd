package nettransport

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
)

// These tests pin the egress path's one contract, conservation: every
// message that enters Redirect is delivered or counted in LostFrames
// exactly once — under overflow, frame faults, unencodable and oversize
// bodies, reconnects and a link dying mid-burst alike. It is the invariant
// the quiesce barrier is built on: a loss path that forgets a message
// leaves its in-flight hold raised and Quiesce reports false forever.

// conserved asserts sent = delivered + lost on a quiesced loopback
// transport whose traffic all goes to h.
func conserved(t *testing.T, tr *Transport, h *countHandler, sent int64) {
	t.Helper()
	if !tr.Quiesce(10*time.Second, func() {}) {
		t.Fatal("quiesce wedged: some loss path leaked an in-flight hold")
	}
	delivered, lost := h.n.Load(), tr.LostFrames()
	if delivered+lost != sent {
		t.Fatalf("conservation violated: sent %d, delivered %d + lost %d = %d",
			sent, delivered, lost, delivered+lost)
	}
}

// closeConn kills p's current connection from under it, as a dying link
// would.
func closeConn(p *peer) {
	p.mu.Lock()
	c := p.conn
	p.mu.Unlock()
	c.Close()
}

func subscribe(to, from sim.NodeID, v int) sim.Message {
	return sim.Message{To: to, From: from, Topic: 1, Body: proto.Subscribe{V: sim.NodeID(v)}}
}

// TestEgressConservationOverflow fills a link past its 4,096 pending
// messages from several goroutines at once, while its writer is held inside
// its first frame (the way TestWriteCoalescing holds it): the link takes
// exactly queueDepth of them and sheds the rest. Released, every message
// ends up delivered or counted, and the quiesce barrier settles.
func TestEgressConservationOverflow(t *testing.T) {
	tr, err := NewLoopback(Options{Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	h := &countHandler{}
	tr.AddNode(1, h)
	var frames atomic.Int64
	held, release := make(chan struct{}), make(chan struct{})
	tr.SetFrameFault(func() FrameFault {
		if frames.Add(1) == 1 {
			close(held)
			<-release
		}
		return FrameDeliver
	})
	tr.Send(subscribe(1, 2, 0))
	<-held
	const (
		senders = 4
		each    = 1500
	)
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tr.Send(subscribe(1, 2, 1+g*each+i))
			}
		}(g)
	}
	wg.Wait()
	if lost := tr.LostFrames(); lost != senders*each-queueDepth {
		t.Errorf("a held link shed %d of %d sends, want all but its %d pending", lost, senders*each, queueDepth)
	}
	close(release)
	conserved(t, tr, h, 1+senders*each)
}

// TestEgressLossFreeModerateLoad: under load the default queue depth
// absorbs easily, the path must be loss-free.
func TestEgressLossFreeModerateLoad(t *testing.T) {
	tr, err := NewLoopback(Options{Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	h := &countHandler{}
	tr.AddNode(1, h)
	const n = 500
	for i := 0; i < n; i++ {
		tr.Send(subscribe(1, 2, i))
	}
	conserved(t, tr, h, n)
	if lost := tr.LostFrames(); lost != 0 {
		t.Fatalf("moderate load lost %d frames, want 0", lost)
	}
}

// TestEgressConservationAcrossFaults cycles the frame fault hook through
// drop, corrupt and clean verdicts while traffic flows: a dropped frame's
// and a corrupted frame's messages are each counted lost exactly once,
// however many of them the writer had batched into the frame.
func TestEgressConservationAcrossFaults(t *testing.T) {
	tr, err := NewLoopback(Options{Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	h := &countHandler{}
	tr.AddNode(1, h)
	var calls int // node 1's link's writer is the only caller
	tr.SetFrameFault(func() FrameFault {
		calls++
		switch calls % 3 {
		case 0:
			return FrameDrop
		case 1:
			return FrameCorrupt
		default:
			return FrameDeliver
		}
	})
	const n = 300
	for i := 0; i < n; i++ {
		tr.Send(subscribe(1, 2, i))
		if i%10 == 0 {
			time.Sleep(100 * time.Microsecond) // let the writer cut many frames
		}
	}
	conserved(t, tr, h, n)
	if tr.LostFrames() == 0 {
		t.Error("the fault mix shed nothing")
	}
}

// TestEgressConservationOversizeAndUnencodable drives the two
// shed-before-wire paths: a body the codec refuses to encode at all
// (refused by send) and a body whose standalone frame exceeds
// wire.MaxFrame (queued, shed by the writer when frame assembly fails).
// Both are counted loss; interleaved normal traffic must still arrive.
func TestEgressConservationOversizeAndUnencodable(t *testing.T) {
	type notRegistered struct{ X int }
	tr, err := NewLoopback(Options{Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	h := &countHandler{}
	tr.AddNode(1, h)
	huge := proto.PublishNew{Pub: proto.Publication{
		Key: proto.Key{Bits: 1, Len: 64}, Origin: 2,
		Payload: strings.Repeat("x", (1<<20)+512), // frame > wire.MaxFrame
	}}
	const normal, bad = 50, 10
	for i := 0; i < bad; i++ {
		tr.Send(sim.Message{To: 1, From: 2, Topic: 1, Body: notRegistered{X: i}})
		tr.Send(sim.Message{To: 1, From: 2, Topic: 1, Body: huge})
	}
	for i := 0; i < normal; i++ {
		tr.Send(subscribe(1, 2, i))
	}
	conserved(t, tr, h, normal+2*bad)
	if got := h.n.Load(); got != normal {
		t.Errorf("delivered %d, want %d (shed messages must not block the stream)", got, normal)
	}
	if lost := tr.LostFrames(); lost != 2*bad {
		t.Errorf("LostFrames() = %d, want %d (unencodable + oversize)", lost, 2*bad)
	}
}

// TestEgressConservationConnDeath kills the loopback link that carries
// node 1's traffic three times while four goroutines keep sending to node
// 1, so every kill lands on a loaded link. A write that fails
// carried a known set of messages: they are counted lost and their holds
// released, the backlog queued during the gap leaves on the next
// connection, and the barrier settles on sent = delivered + lost.
func TestEgressConservationConnDeath(t *testing.T) {
	tr, err := NewLoopback(Options{Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	h := &countHandler{}
	tr.AddNode(1, h)
	var (
		wg   sync.WaitGroup
		sent atomic.Int64
		stop atomic.Bool
	)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				tr.Send(subscribe(1, 2, i))
				sent.Add(1)
				if i%64 == 0 {
					time.Sleep(50 * time.Microsecond) // stay below queueDepth most of the time
				}
			}
		}()
	}
	for kill := 0; kill < 3; kill++ {
		mark := h.n.Load()
		waitFor(t, 10*time.Second, "traffic before the kill", func() bool { return h.n.Load() > mark+100 })
		closeConn(tr.linkFor(1))
		mark = h.n.Load()
		waitFor(t, 10*time.Second, "traffic after the reconnect", func() bool { return h.n.Load() > mark+100 })
	}
	stop.Store(true)
	wg.Wait()
	conserved(t, tr, h, sent.Load())
	t.Logf("sent %d, delivered %d, lost %d across 3 connection deaths", sent.Load(), h.n.Load(), tr.LostFrames())
}

// TestEgressConservationAcrossReconnect runs the link-death matrix across
// processes: the hub dies, the joiner queues into the dead link, a new hub
// comes up on the same address and the backlog arrives there — each of the
// queued messages is delivered by the new hub, or counted lost by it
// (unroutable until its node registers) or by the joiner. Then the joiner
// leaves while the hub stays up, and both ends close.
func TestEgressConservationAcrossReconnect(t *testing.T) {
	hub1, err := NewHub(Options{Listen: "127.0.0.1:0", Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	addr := hub1.Addr()
	j, err := NewJoiner(Options{Hub: addr, Interval: 5 * time.Millisecond})
	if err != nil {
		hub1.Close()
		t.Fatal(err)
	}
	hubNode := &countHandler{}
	hub1.AddNode(1, hubNode)
	nid := j.BaseID()
	n := &countHandler{}
	j.AddNode(nid, n)

	// Live traffic both ways.
	j.Send(subscribe(1, nid, 1))
	hub1.Send(subscribe(nid, 1, 2))
	waitFor(t, 5*time.Second, "pre-kill traffic", func() bool {
		return hubNode.n.Load() == 1 && n.n.Load() == 1
	})

	hub1.Close()
	// Once the joiner has seen the link drop no writer is left: everything
	// sent from here on queues on the link.
	waitFor(t, 5*time.Second, "joiner notices the dead hub", func() bool { return j.links[0].downFor(0) })
	const backlog = 50
	for i := 0; i < backlog; i++ {
		j.Send(subscribe(1, nid, i))
	}
	if lost := j.LostFrames(); lost != 0 {
		t.Fatalf("joiner lost %d frames queueing %d into a down link", lost, backlog)
	}

	hub2, err := NewHub(Options{Listen: addr, Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	hubNode2 := &countHandler{}
	hub2.AddNode(1, hubNode2)
	waitFor(t, 10*time.Second, "the backlog reaches the restarted hub", func() bool {
		return hubNode2.n.Load()+hub2.LostFrames()+j.LostFrames() == backlog
	})
	// The stream is live again in both directions.
	j.Send(subscribe(1, nid, 99))
	waitFor(t, 5*time.Second, "joiner→hub after reconnect", func() bool {
		return hubNode2.n.Load()+hub2.LostFrames() == backlog+1
	})
	hub2.Send(subscribe(nid, 1, 3))
	waitFor(t, 5*time.Second, "hub→joiner after reconnect", func() bool { return n.n.Load() == 2 })

	// Accepted-peer death from the hub's side: the joiner closes while the
	// hub stays up, then the hub closes too.
	j.Close()
	hub2.Close()
}

// multicast is a 16-way fan-out through the loopback transport shaped like
// one forwarding-tree step: a fresh publication sent to 16 in-process
// nodes, each copy carrying its own arc, every copy crossing the codec and
// a real TCP socket (16 encodes into the pending batch + batch write +
// arena decode + 16 mailbox injections).
type multicast struct {
	tb    testing.TB
	tr    *Transport
	nodes []*countHandler
	sent  int64
}

const (
	multicastFan = 16
	// multicastBatch multicasts go out between drains, so queue growth
	// never substitutes for the path in the measurement.
	multicastBatch = 64
)

var multicastPub = proto.Publication{
	Key: proto.Key{Bits: 0x9e3779b97f4a7c15, Len: 64}, Origin: 1,
	Payload: "payload-with-some-realistic-length",
}

func newMulticast(tb testing.TB) *multicast {
	tr, err := NewLoopback(Options{Interval: time.Second})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(tr.Close)
	m := &multicast{tb: tb, tr: tr, nodes: make([]*countHandler, multicastFan)}
	for i := range m.nodes {
		m.nodes[i] = &countHandler{}
		tr.AddNode(sim.NodeID(i+1), m.nodes[i])
	}
	return m
}

// send multicasts a publication no earlier multicast carried, each copy
// with one sixteenth of the ring as its arc.
func (m *multicast) send() {
	p := multicastPub
	p.Key.Bits += uint64(m.sent)
	for d := 0; d < multicastFan; d++ {
		arc := proto.Arc{Lo: uint64(d) << 60, Hi: uint64(d+1) << 60}
		m.tr.Send(sim.Message{To: sim.NodeID(d + 1), From: 1, Topic: 1, Body: proto.PublishNew{Pub: p, Arc: arc}})
	}
	m.sent += multicastFan
}

// drain waits until every copy sent so far was delivered; a lost frame
// fails the run.
func (m *multicast) drain() {
	deadline := time.Now().Add(30 * time.Second)
	for {
		var delivered int64
		for _, n := range m.nodes {
			delivered += n.n.Load()
		}
		if lost := m.tr.LostFrames(); lost != 0 {
			m.tb.Fatalf("multicast lost %d frames", lost)
		}
		if delivered == m.sent {
			return
		}
		if time.Now().After(deadline) {
			m.tb.Fatalf("delivered %d of %d", delivered, m.sent)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestNetEgressMulticastAllocBudget pins the whole path's allocations per
// 16-way multicast over 1,024 multicasts after a warm-up batch: committed
// at 32.2 — one boxed body per copy on each side of the socket — budget 37
// (+ 15 %).
func TestNetEgressMulticastAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates; alloc counts are meaningless")
	}
	m := newMulticast(t)
	batch := func() {
		for i := 0; i < multicastBatch; i++ {
			m.send()
		}
		m.drain()
	}
	got := testing.AllocsPerRun(1024/multicastBatch, batch) / multicastBatch
	t.Logf("%.1f allocations per multicast, budget 37", got)
	if got > 37 {
		t.Error("over budget")
	}
}

// BenchmarkNetEgressMulticast profiles the same multicast.
func BenchmarkNetEgressMulticast(b *testing.B) {
	m := newMulticast(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.send()
		if (i+1)%multicastBatch == 0 || i == b.N-1 {
			m.drain()
		}
	}
}
