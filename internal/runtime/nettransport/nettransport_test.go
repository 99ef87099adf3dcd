package nettransport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
	"sspubsub/internal/wire"
)

// echoNode counts deliveries and, when pingTo is set, replies to every
// message with one send back.
type echoNode struct {
	got    atomic.Int64
	pingTo sim.NodeID
}

func (e *echoNode) OnMessage(ctx sim.Context, m sim.Message) {
	e.got.Add(1)
	if e.pingTo != sim.None {
		ctx.Send(e.pingTo, m.Topic, m.Body)
	}
}
func (e *echoNode) OnTimeout(ctx sim.Context) {}

func waitFor(t *testing.T, timeout time.Duration, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestLoopbackDelivery: messages between nodes of one process cross the
// socket and still arrive; the quiesce barrier covers frames in flight.
func TestLoopbackDelivery(t *testing.T) {
	tr, err := NewLoopback(Options{Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	a, b := &echoNode{}, &echoNode{}
	tr.AddNode(1, a)
	tr.AddNode(2, b)
	for i := 0; i < 100; i++ {
		tr.Send(sim.Message{To: 2, From: 1, Topic: 1, Body: proto.Subscribe{V: sim.NodeID(i)}})
	}
	waitFor(t, 5*time.Second, "loopback delivery", func() bool { return b.got.Load() == 100 })
	ok := tr.Quiesce(2*time.Second, func() {
		if got := b.got.Load(); got != 100 {
			t.Errorf("under quiesce: %d delivered", got)
		}
	})
	if !ok {
		t.Fatal("quiesce timed out")
	}
	if g := tr.GarbageFrames(); g != 0 {
		t.Errorf("%d garbage frames on a clean run", g)
	}
}

// TestLoopbackPingPong exercises handler-originated sends (the Redirect
// hook on node goroutines) under load, race-detector friendly.
func TestLoopbackPingPong(t *testing.T) {
	tr, err := NewLoopback(Options{Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	a := &echoNode{pingTo: 2}
	b := &echoNode{}
	tr.AddNode(1, a)
	tr.AddNode(2, b)
	for i := 0; i < 50; i++ {
		tr.Send(sim.Message{To: 1, From: 2, Topic: 1, Body: proto.Subscribe{}})
	}
	waitFor(t, 5*time.Second, "ping-pong", func() bool { return b.got.Load() == 50 })
}

// TestHubJoinerRouting runs a hub and two joiners as separate transports
// over real sockets: hub↔joiner and joiner↔joiner (relayed) traffic.
func TestHubJoinerRouting(t *testing.T) {
	hub, err := NewHub(Options{Listen: "127.0.0.1:0", Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	j1, err := NewJoiner(Options{Hub: hub.Addr(), Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer j1.Close()
	j2, err := NewJoiner(Options{Hub: hub.Addr(), Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()

	if j1.BaseID() == j2.BaseID() || j1.BaseID() == sim.None {
		t.Fatalf("bad block grants: %d and %d", j1.BaseID(), j2.BaseID())
	}

	hubNode := &echoNode{}
	hub.AddNode(1, hubNode)
	n1 := &echoNode{}
	id1 := j1.BaseID()
	j1.AddNode(id1, n1)
	n2 := &echoNode{}
	id2 := j2.BaseID()
	j2.AddNode(id2, n2)

	// Joiner → hub.
	j1.Send(sim.Message{To: 1, From: id1, Topic: 1, Body: proto.Subscribe{V: 7}})
	waitFor(t, 5*time.Second, "joiner→hub", func() bool { return hubNode.got.Load() == 1 })

	// Hub → joiner.
	hub.Send(sim.Message{To: id1, From: 1, Topic: 1, Body: proto.Subscribe{V: 8}})
	waitFor(t, 5*time.Second, "hub→joiner", func() bool { return n1.got.Load() == 1 })

	// Joiner → joiner, relayed through the hub.
	j1.Send(sim.Message{To: id2, From: id1, Topic: 1, Body: proto.Subscribe{V: 9}})
	waitFor(t, 5*time.Second, "joiner→joiner relay", func() bool { return n2.got.Load() == 1 })

	// Unroutable: silently dropped, counted, no crash.
	before := hub.LostFrames()
	hub.Send(sim.Message{To: 99999, From: 1, Topic: 1, Body: proto.Subscribe{}})
	waitFor(t, 5*time.Second, "unroutable counted", func() bool { return hub.LostFrames() > before })
}

// TestGarbageFramesDropped writes raw garbage into the hub's listener:
// the frames must be counted and dropped without wedging the transport.
func TestGarbageFramesDropped(t *testing.T) {
	hub, err := NewHub(Options{Listen: "127.0.0.1:0", Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	hubNode := &echoNode{}
	hub.AddNode(1, hubNode)

	conn, err := net.Dial("tcp", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Three well-delimited garbage frames (unknown tag / bad magic), then a
	// valid one: the reader must survive the garbage and deliver the rest.
	bad1 := []byte{0, 0, 0, 3, 'S', 'R', 99}      // bad version
	bad2 := []byte{0, 0, 0, 4, 'S', 'R', 1, 0xFF} // truncated envelope
	bad3 := []byte{0, 0, 0, 5, 'X', 'Y', 1, 0, 0} // bad magic
	good, err := wire.Marshal(sim.Message{To: 1, From: 5, Topic: 1, Body: wire.Hello{Base: 1, Slots: 3}})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]byte{bad1, bad2, bad3, good} {
		if _, err := conn.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "garbage counted", func() bool { return hub.GarbageFrames() == 3 })
	// The valid frame was a Hello: the hub must still answer with a Welcome.
	m, _, err := wire.ReadFrame(conn, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Body.(wire.Welcome); !ok {
		t.Fatalf("expected Welcome after garbage, got %T", m.Body)
	}
}

// TestRetiredBatchTagIsGarbage: tag 34 was wire.Batch, the first batching
// envelope, retired for Batch2 and reserved forever. A peer that still
// emits it must see its frame counted as garbage — a well-formed Batch of
// one message, byte for byte what the old encoder produced — and keep its
// connection: the next frame on the same socket is served.
func TestRetiredBatchTagIsGarbage(t *testing.T) {
	hub, err := NewHub(Options{Listen: "127.0.0.1:0", Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	hubNode := &echoNode{}
	hub.AddNode(1, hubNode)

	conn, err := net.Dial("tcp", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	old := []byte{0, 0, 0, 12, 'S', 'R', wire.Version,
		0, 0, 0, // envelope: To ⊥, From ⊥, topic 0
		34, 1, // tag 34, one member
		2, 10, 2, 17} // member: To 1, From 5, topic 1, core.JoinTopic
	if _, err := wire.Unmarshal(old); !errors.Is(err, wire.ErrGarbage) {
		t.Fatalf("Unmarshal(tag-34 frame) = %v, want ErrGarbage", err)
	}
	good, err := wire.Marshal(sim.Message{To: 1, From: 5, Topic: 1, Body: wire.Hello{Base: 1, Slots: 3}})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]byte{old, good} {
		if _, err := conn.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "tag-34 frame counted as garbage", func() bool { return hub.GarbageFrames() == 1 })
	m, _, err := wire.ReadFrame(conn, nil, nil)
	if err != nil {
		t.Fatalf("connection did not survive the tag-34 frame: %v", err)
	}
	if _, ok := m.Body.(wire.Welcome); !ok {
		t.Fatalf("expected Welcome after the tag-34 frame, got %T", m.Body)
	}
	if got := hubNode.got.Load(); got != 0 {
		t.Fatalf("a member of the retired envelope was delivered (%d deliveries)", got)
	}
}

// TestJoinerReconnect kills the joiner's first hub and brings up a new hub
// on the same address: the joiner must redial with backoff, re-present its
// block, and traffic must flow again. Link downtime must look like message
// loss, not an error. The hub is down for milliseconds, so the redial
// succeeds within the first backoff steps (50, 100 ms) and the 2 s cap
// never binds: the reconnect tests take 0.02–0.06 s each, as they did when
// they set a 50 or 100 ms cap of their own.
func TestJoinerReconnect(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	hub1, err := NewHub(Options{Listen: addr, Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	j, err := NewJoiner(Options{Hub: addr, Interval: 5 * time.Millisecond})
	if err != nil {
		hub1.Close()
		t.Fatal(err)
	}
	defer j.Close()
	base := j.BaseID()
	nid := base
	n := &echoNode{}
	j.AddNode(nid, n)

	hub1.Close() // link drops; joiner enters backoff

	// Sends while the link is down are lost, not fatal.
	j.Send(sim.Message{To: 1, From: nid, Topic: 1, Body: proto.Subscribe{}})

	hub2, err := NewHub(Options{Listen: addr, Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer hub2.Close()
	hubNode := &echoNode{}
	hub2.AddNode(1, hubNode)

	// After reconnect the joiner re-greets with its old base; the new hub
	// grants it afresh and routing works both ways again.
	var delivered bool
	deadline := time.Now().Add(10 * time.Second)
	for !delivered && time.Now().Before(deadline) {
		j.Send(sim.Message{To: 1, From: nid, Topic: 1, Body: proto.Subscribe{V: 1}})
		time.Sleep(20 * time.Millisecond)
		delivered = hubNode.got.Load() > 0
	}
	if !delivered {
		t.Fatal("joiner never reached the new hub")
	}
	hub2.Send(sim.Message{To: nid, From: 1, Topic: 1, Body: proto.Subscribe{V: 2}})
	waitFor(t, 5*time.Second, "hub2→joiner", func() bool { return n.got.Load() > 0 })
}

// TestWriteCoalescing: batching comes from load. While the writer is held
// inside its first frame, 1,000 sends from four goroutines queue on the
// link; released, it carries them in a frame or two, not a thousand. And an
// idle link needs no timer: a lone send wakes the writer and arrives long
// before the one-second Interval could tick.
func TestWriteCoalescing(t *testing.T) {
	tr, err := NewLoopback(Options{Interval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	n := &echoNode{}
	tr.AddNode(1, n)
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
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				tr.Send(subscribe(1, 2, g*1000+i))
			}
		}(g)
	}
	wg.Wait()
	close(release)
	waitFor(t, 10*time.Second, "coalesced burst", func() bool { return n.got.Load() == 1001 })
	if f := frames.Load(); f > 4 {
		t.Errorf("1,000 sends queued behind one write left in %d frames, want a handful", f)
	}

	start := time.Now()
	tr.Send(subscribe(1, 2, 0))
	waitFor(t, 500*time.Millisecond, "a lone send on an idle link", func() bool { return n.got.Load() == 1002 })
	t.Logf("%d frames for 1,001 messages; lone send delivered in %s", frames.Load()-1, time.Since(start))
}

// TestWriterFramesMatchAppendFrame captures what the writer puts on the
// socket: a lone message leaves as a standalone frame, messages that
// queued behind it as one Batch2, each byte for byte what wire.Marshal
// produces for the equivalent message — so any reader of the format, the
// previous release's included, decodes them.
func TestWriterFramesMatchAppendFrame(t *testing.T) {
	hub, err := NewHub(Options{Listen: "127.0.0.1:0", Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	conn, err := net.Dial("tcp", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello, err := wire.Marshal(sim.Message{Body: wire.Hello{Slots: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(hello); err != nil {
		t.Fatal(err)
	}
	readRaw := func() []byte {
		t.Helper()
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		hdr := make([]byte, 4)
		if _, err := io.ReadFull(conn, hdr); err != nil {
			t.Fatal(err)
		}
		frame := append(hdr, make([]byte, binary.BigEndian.Uint32(hdr))...)
		if _, err := io.ReadFull(conn, frame[4:]); err != nil {
			t.Fatal(err)
		}
		return frame
	}
	welcome, err := wire.Unmarshal(readRaw())
	if err != nil {
		t.Fatal(err)
	}
	base := welcome.Body.(wire.Welcome).Base

	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	hub.SetFrameFault(func() FrameFault {
		once.Do(func() { close(held); <-release })
		return FrameDeliver
	})
	msgs := []sim.Message{
		{To: base, From: 1, Topic: 1, Body: proto.Subscribe{V: 7}},
		{To: base + 1, From: -3, Topic: 2, Body: proto.PublishNew{Pub: proto.Publication{Key: proto.Key{Bits: 5, Len: 8}, Origin: 1, Payload: "p"}}},
		{To: base + 2, From: 1 << 40, Topic: -9, Body: proto.Unsubscribe{V: 2}},
		{To: base + 3, From: 1, Topic: 1, Body: proto.Subscribe{V: 9}},
	}
	hub.Send(msgs[0])
	<-held // the writer is inside frame one; the rest queue behind it
	for _, m := range msgs[1:] {
		hub.Send(m)
	}
	close(release)
	for i, want := range []sim.Message{msgs[0], {Body: wire.Batch2{Msgs: msgs[1:]}}} {
		wantBytes, err := wire.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if got := readRaw(); !bytes.Equal(got, wantBytes) {
			t.Errorf("frame %d:\n got %x\nwant %x", i, got, wantBytes)
		}
	}
}

// TestConnChurnSoak keeps traffic flowing hub→joiner, joiner→hub and
// joiner→joiner for two seconds while the joiners' connections are killed
// every few intervals. Traffic must resume on every path after every
// reconnect, Close must return, and no goroutine may outlive it.
func TestConnChurnSoak(t *testing.T) {
	const interval = 5 * time.Millisecond
	before := runtime.NumGoroutine()
	hub, err := NewHub(Options{Listen: "127.0.0.1:0", Interval: interval})
	if err != nil {
		t.Fatal(err)
	}
	var js [2]*Transport
	var ids [2]sim.NodeID
	var nodes [2]*echoNode
	for i := range js {
		if js[i], err = NewJoiner(Options{Hub: hub.Addr(), Interval: interval}); err != nil {
			t.Fatal(err)
		}
		ids[i], nodes[i] = js[i].BaseID(), &echoNode{}
		js[i].AddNode(ids[i], nodes[i])
	}
	hubNode := &echoNode{}
	hub.AddNode(1, hubNode)

	stop := make(chan struct{})
	var traffic sync.WaitGroup
	traffic.Add(1)
	go func() {
		defer traffic.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			js[0].Send(subscribe(1, ids[0], i))
			js[1].Send(subscribe(ids[0], ids[1], i))
			hub.Send(subscribe(ids[1], 1, i))
			time.Sleep(200 * time.Microsecond)
		}
	}()
	counters := []*atomic.Int64{&hubNode.got, &nodes[0].got, &nodes[1].got}
	kills := 0
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); kills++ {
		closeConn(js[kills%2].links[0])
		var marks [3]int64
		for i, c := range counters {
			marks[i] = c.Load()
		}
		waitFor(t, 10*time.Second, "traffic on every path after a reconnect", func() bool {
			for i, c := range counters {
				if c.Load() <= marks[i] {
					return false
				}
			}
			return true
		})
		time.Sleep(4 * interval)
	}
	close(stop)
	traffic.Wait()

	closed := make(chan struct{})
	go func() {
		js[0].Close()
		js[1].Close()
		hub.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the churn")
	}
	for deadline := time.Now().Add(100 * interval); runtime.NumGoroutine() > before; time.Sleep(interval) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d still running after Close:\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
	}
	t.Logf("%d connection kills; delivered hub %d, joiners %d and %d",
		kills, hubNode.got.Load(), nodes[0].got.Load(), nodes[1].got.Load())
}

// TestLoopbackCrashDropsInFlight: frames addressed to a crashed node are
// dropped on re-injection and the quiesce barrier still settles.
func TestLoopbackCrashDropsInFlight(t *testing.T) {
	tr, err := NewLoopback(Options{Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	a, b := &echoNode{}, &echoNode{}
	tr.AddNode(1, a)
	tr.AddNode(2, b)
	for i := 0; i < 20; i++ {
		tr.Send(sim.Message{To: 2, From: 1, Topic: 1, Body: proto.Subscribe{}})
	}
	tr.Crash(2)
	if !tr.Quiesce(2*time.Second, func() {}) {
		t.Fatal("quiesce did not settle after crash")
	}
	if !tr.Suspects(2) {
		// The embedded runtime's detector grace is 2·Interval.
		time.Sleep(15 * time.Millisecond)
		if !tr.Suspects(2) {
			t.Error("crashed node never suspected")
		}
	}
	if tr.Suspects(1) {
		t.Error("live node suspected")
	}
}

// TestHubRestartBlockReclaim reproduces the two-joiner hub-restart
// scenario: after the hub loses its grant table, each reconnecting joiner
// must get back exactly the base it claims — never a different one (the
// joiner's node IDs are fixed), and never one that captures another
// joiner's block.
func TestHubRestartBlockReclaim(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	hub1, err := NewHub(Options{Listen: addr, Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	mkJoiner := func() *Transport {
		j, err := NewJoiner(Options{Hub: addr, Interval: 5 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	jA, jB := mkJoiner(), mkJoiner()
	defer jA.Close()
	defer jB.Close()
	baseA, baseB := jA.BaseID(), jB.BaseID()
	if baseA == baseB {
		t.Fatalf("grants collide: %d", baseA)
	}

	hub1.Close() // grant table lost
	hub2, err := NewHub(Options{Listen: addr, Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer hub2.Close()
	hubNode := &echoNode{}
	hub2.AddNode(1, hubNode)
	nA, nB := &echoNode{}, &echoNode{}
	jA.AddNode(baseA, nA)
	jB.AddNode(baseB, nB)

	// Both joiners redial in arbitrary order and reclaim their old bases;
	// after that, hub→joiner routing must hit the right process for both.
	waitFor(t, 10*time.Second, "both joiners reachable again", func() bool {
		hub2.Send(sim.Message{To: baseA, From: 1, Topic: 1, Body: proto.Subscribe{V: 1}})
		hub2.Send(sim.Message{To: baseB, From: 1, Topic: 1, Body: proto.Subscribe{V: 2}})
		time.Sleep(10 * time.Millisecond)
		return nA.got.Load() > 0 && nB.got.Load() > 0
	})
	if jA.BaseID() != baseA || jB.BaseID() != baseB {
		t.Errorf("bases changed across hub restart: A %d→%d, B %d→%d",
			baseA, jA.BaseID(), baseB, jB.BaseID())
	}
}
