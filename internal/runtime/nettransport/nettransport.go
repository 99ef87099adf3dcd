// Package nettransport runs the protocol across real TCP connections: a
// sim.Transport whose messages leave the address space as wire frames.
// Local nodes execute on an embedded concurrent runtime
// (internal/runtime/concurrent); the transport intercepts every send with
// the runtime's Redirect hook, routes frames over sockets, and re-enters
// arriving frames with Inject. Protocol code is unchanged — it still only
// sees sim.Context. The driver surface — stepping, Quiesce and Freeze, the
// fault filter, the random source, the message counters — is the embedded
// runtime's, promoted unchanged. Quiesce waits for frames in the socket as
// well as mailboxes and handlers, but only on the loopback role, where every
// frame comes back; on the hub and joiner roles frames crossing to other
// processes are outside any one process's barrier.
//
// Three roles, one implementation:
//
//   - Loopback (NewLoopback): a single process that dials its own
//     listener, so every message — even node-to-node within the process —
//     crosses the codec and a real TCP socket. It dials one link per P (at
//     most maxLoopbackLinks) and sends each message on the link its
//     destination picks, so every node's traffic rides one link in order
//     while the links' readers decode and inject in parallel, rather than
//     one reader waking every node. This is the conformance and
//     benchmarking configuration: same scenario API as the other
//     substrates, plus a working Quiesce barrier that extends over frames
//     in flight on every link.
//   - Hub (NewHub): listens for joiner processes, grants each a block of
//     node IDs, delivers frames addressed to its own nodes and relays
//     joiner-to-joiner traffic (a star topology — the supervisor process
//     is the natural hub).
//   - Joiner (NewJoiner): dials the hub, receives its ID block, and sends
//     every non-local message to the hub for delivery or relay. Dropped
//     links are redialed with exponential backoff; what was queued while
//     the link was down leaves on the next connection, what overflowed or
//     sat in the dead socket is message loss, which the protocol already
//     tolerates (Section 3.3 treats channel contents as corruptible
//     state).
//
// Egress is one hop (conn.go): a send encodes on the sending goroutine
// into the target link's pending batch, and the link's writer puts each
// batch on the socket with one write, parking only when nothing is
// pending. At most 4,096 messages (a constant, queueDepth) are pending
// toward one link; a send beyond that is shed and counted, never blocks a
// protocol handler.
//
// Failure semantics: a garbage frame (wire.ErrGarbage) is counted and
// skipped — the stream stays aligned and nothing crashes, because a
// corrupted frame is exactly the arbitrary state self-stabilization
// absorbs. A framing-level violation (oversize length prefix, I/O error)
// kills the connection; reconnect makes it look like a lossy link.
package nettransport

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sspubsub/internal/runtime/concurrent"
	"sspubsub/internal/sim"
	"sspubsub/internal/wire"
)

// Options configure a networked transport.
type Options struct {
	// Listen is the TCP address to listen on (hub and loopback roles).
	Listen string
	// Hub is the address to dial (joiner role).
	Hub string
	// Interval is the protocol timeout interval of the embedded runtime.
	// Default 10ms.
	Interval time.Duration
	// Seed seeds the embedded runtime's per-node randomness.
	Seed int64
	// Logf, when non-nil, receives connection lifecycle diagnostics.
	Logf func(format string, args ...any)
}

func (o *Options) fill() {
	if o.Interval == 0 {
		o.Interval = 10 * time.Millisecond
	}
}

const (
	// blockSlots is the node-ID block size a joiner requests, and what a
	// hub grants when a Hello asks for nothing sensible.
	blockSlots = 1024
	// handshakeTimeout bounds a joiner's wait for its first Welcome.
	handshakeTimeout = 5 * time.Second
	// minBackoff is the first reconnect delay; it doubles up to maxBackoff.
	minBackoff = 50 * time.Millisecond
	maxBackoff = 2 * time.Second
	// queueDepth bounds the messages pending toward one link. A send to a
	// full link is dropped (message loss, which the protocol tolerates)
	// rather than blocking a protocol handler.
	queueDepth = 4096
	// graceIntervals is how many timeout intervals a peer's link may be
	// down before the failure detector suspects its nodes.
	graceIntervals = 20
	// maxLoopbackLinks caps the loopback role's links (one per P below
	// it), and so the sockets one test transport holds on a large machine.
	maxLoopbackLinks = 4
)

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

type role int

const (
	roleLoopback role = iota
	roleHub
	roleJoiner
)

// firstJoinerBase is the first node ID block a hub grants. Everything
// below it belongs to the hub process (supervisors and hub-local clients).
const firstJoinerBase sim.NodeID = 1 << 12

// Transport is a sim.Transport over TCP. It must be closed. It embeds the
// concurrent runtime its local nodes run on and overrides only what routing
// changes: AddNode, RemoveNode, Crash, Suspects and Close.
type Transport struct {
	*concurrent.Runtime
	opts Options
	role role
	ln   net.Listener

	// inflight counts messages between the Redirect intercept and their
	// local re-injection; only the loopback role maintains it (frames that
	// leave the process never come back, so cross-process quiesce is not a
	// thing). It is the runtime's ExtraPending. Every message is written to
	// the socket whole or counted in lost, and lose releases the hold, so
	// the barrier stays exact across overflow, faults and a dying link.
	inflight atomic.Int64
	garbage  atomic.Int64 // undecodable frames dropped
	lost     atomic.Int64 // messages that will never arrive (see lose)

	// frameFault, when set, is consulted once per outgoing frame on the
	// writer goroutines: it can drop the frame whole or smash its magic
	// bytes so the receiver's decoder sees garbage (the chaos engine's
	// wire-corruption fault).
	frameFault atomic.Pointer[func() FrameFault]

	mu       sync.Mutex
	local    map[sim.NodeID]bool
	blocks   []*block // hub: granted ID blocks, routing table
	accepted []*peer  // every accepted connection, for shutdown
	links    []*peer  // loopback: one dialed link per shard; joiner: the hub link
	base     sim.NodeID
	slots    uint32
	next     sim.NodeID // hub: next block base to grant
	closed   bool
	ready    chan struct{} // joiner: closed once Welcome arrives
	readyMu  sync.Once

	wg sync.WaitGroup
}

// block is one granted node-ID range and the peer link that owns it.
type block struct {
	base sim.NodeID
	n    uint32
	p    *peer
}

func (b *block) contains(id sim.NodeID) bool {
	return id >= b.base && id < b.base+sim.NodeID(b.n)
}

// NewLoopback starts a single-process transport whose every message
// crosses a real TCP socket: it listens on addr (default 127.0.0.1:0) and
// dials itself once per P, up to maxLoopbackLinks.
func NewLoopback(opts Options) (*Transport, error) {
	if opts.Listen == "" {
		opts.Listen = "127.0.0.1:0"
	}
	t, err := newTransport(opts, roleLoopback)
	if err != nil {
		return nil, err
	}
	t.links = make([]*peer, min(runtime.GOMAXPROCS(0), maxLoopbackLinks))
	for i := range t.links {
		t.links[i] = t.newDialPeer(t.ln.Addr().String())
	}
	return t, nil
}

// NewHub starts the hub process: it listens on opts.Listen, hosts its own
// nodes, grants ID blocks to joiners and relays joiner-to-joiner frames.
func NewHub(opts Options) (*Transport, error) {
	if opts.Listen == "" {
		return nil, fmt.Errorf("nettransport: hub requires a listen address")
	}
	return newTransport(opts, roleHub)
}

// NewJoiner dials the hub, performs the Hello/Welcome handshake and
// returns once this process owns a node-ID block (see BaseID). The link
// redials with backoff forever after; only the first handshake is awaited.
func NewJoiner(opts Options) (*Transport, error) {
	if opts.Hub == "" {
		return nil, fmt.Errorf("nettransport: joiner requires a hub address")
	}
	opts.fill()
	t := &Transport{
		opts:  opts,
		role:  roleJoiner,
		local: make(map[sim.NodeID]bool),
		ready: make(chan struct{}),
	}
	t.Runtime = t.newRuntime()
	t.links = []*peer{t.newDialPeer(opts.Hub)}
	select {
	case <-t.ready:
		return t, nil
	case <-time.After(handshakeTimeout):
		t.Close()
		return nil, fmt.Errorf("nettransport: no Welcome from hub %s within %s", opts.Hub, handshakeTimeout)
	}
}

func newTransport(opts Options, r role) (*Transport, error) {
	opts.fill()
	ln, err := net.Listen("tcp", opts.Listen)
	if err != nil {
		return nil, fmt.Errorf("nettransport: listen %s: %w", opts.Listen, err)
	}
	t := &Transport{
		opts:  opts,
		role:  r,
		ln:    ln,
		local: make(map[sim.NodeID]bool),
		next:  firstJoinerBase,
	}
	t.Runtime = t.newRuntime()
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

func (t *Transport) newRuntime() *concurrent.Runtime {
	return concurrent.NewRuntime(concurrent.Options{
		Interval:     t.opts.Interval,
		Seed:         t.opts.Seed,
		Redirect:     t.redirect,
		ExtraPending: t.inflight.Load,
	})
}

// Addr returns the transport's listen address ("" for joiners).
func (t *Transport) Addr() string {
	if t.ln == nil {
		return ""
	}
	return t.ln.Addr().String()
}

// BaseID returns the first node ID of the block granted to this process.
// On the hub and loopback roles it returns sim.None: they allocate their
// IDs below firstJoinerBase themselves.
func (t *Transport) BaseID() sim.NodeID {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.base
}

// Slots returns the size of the granted ID block (joiner role).
func (t *Transport) Slots() uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.slots
}

// FrameFault is the verdict of the wire-level fault hook for one outgoing
// frame.
type FrameFault uint8

const (
	// FrameDeliver writes the frame unchanged.
	FrameDeliver FrameFault = iota
	// FrameDrop sheds the frame before it reaches the socket (counted as
	// lost frames, one per carried message).
	FrameDrop
	// FrameCorrupt flips the frame's magic bytes: the frame crosses the
	// socket but the receiver's decoder rejects it as garbage, exercising
	// the ErrGarbage recovery path end to end. The messages it carried are
	// counted as lost frames at the writer, like FrameDrop's.
	FrameCorrupt
)

// SetFrameFault installs (or clears, with nil) the wire-level fault hook,
// consulted once per outgoing frame on the writer goroutines. It must be
// safe for concurrent use.
func (t *Transport) SetFrameFault(f func() FrameFault) {
	if f == nil {
		t.frameFault.Store(nil)
		return
	}
	t.frameFault.Store(&f)
}

// frameVerdict evaluates the wire-level fault hook for the next frame.
func (t *Transport) frameVerdict() FrameFault {
	if f := t.frameFault.Load(); f != nil {
		return (*f)()
	}
	return FrameDeliver
}

// GarbageFrames returns the number of frames dropped as undecodable.
func (t *Transport) GarbageFrames() int64 { return t.garbage.Load() }

// LostFrames returns the messages this transport accepted and shed: sent
// to a full or retired link or an unroutable target, unencodable or over
// wire.MaxFrame, dropped or corrupted by the frame-fault hook, carried by
// a write that failed, or still pending when their link shut down.
func (t *Transport) LostFrames() int64 { return t.lost.Load() }

// lose records n messages that will never arrive, releasing their
// loopback in-flight holds so the quiesce barrier cannot wedge on them.
func (t *Transport) lose(n int) {
	t.lost.Add(int64(n))
	if t.role == roleLoopback {
		t.inflight.Add(int64(-n))
	}
}

// ---- sim.Transport ----

// AddNode registers a handler on the embedded runtime and records the ID
// as local for routing.
func (t *Transport) AddNode(id sim.NodeID, h sim.Handler) {
	t.mu.Lock()
	t.local[id] = true
	t.mu.Unlock()
	t.Runtime.AddNode(id, h)
}

// RemoveNode deregisters a local node.
func (t *Transport) RemoveNode(id sim.NodeID) {
	t.Runtime.RemoveNode(id)
	t.mu.Lock()
	delete(t.local, id)
	t.mu.Unlock()
}

// Crash fails a local node without warning. Crashing a remote node is not
// supported and is a no-op (each process owns its own failures).
func (t *Transport) Crash(id sim.NodeID) {
	t.mu.Lock()
	isLocal := t.local[id]
	if isLocal {
		delete(t.local, id)
	}
	t.mu.Unlock()
	if isLocal || t.role == roleLoopback {
		t.Runtime.Crash(id)
	}
}

// Suspects implements the failure detector of Section 3.3 across
// processes: local nodes defer to the runtime's crash bookkeeping; nodes
// in a granted block are suspected once their link has been down longer
// than graceIntervals·Interval; unknown IDs are suspected immediately.
func (t *Transport) Suspects(id sim.NodeID) bool {
	if t.role == roleLoopback {
		return t.Runtime.Suspects(id)
	}
	t.mu.Lock()
	isLocal := t.local[id]
	var owner *peer
	for _, b := range t.blocks {
		if b.contains(id) {
			owner = b.p
			break
		}
	}
	t.mu.Unlock()
	if isLocal {
		return t.Runtime.Suspects(id)
	}
	grace := graceIntervals * t.opts.Interval
	if owner != nil {
		return owner.downFor(grace)
	}
	if t.role == roleJoiner {
		// Everything non-local reaches this process through the hub; while
		// the hub link is up we cannot tell remote nodes apart, and only
		// the supervisor consults the detector anyway.
		return t.links[0].downFor(grace)
	}
	return true
}

// Close stops the listener, all peer links (counting what they still held
// pending as loss) and the embedded runtime, and returns once every
// goroutine the transport started has exited.
func (t *Transport) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	peers := append(make([]*peer, 0, len(t.links)+len(t.blocks)+len(t.accepted)), t.links...)
	for _, b := range t.blocks {
		peers = append(peers, b.p)
	}
	peers = append(peers, t.accepted...)
	t.mu.Unlock()
	if t.ln != nil {
		t.ln.Close()
	}
	for _, p := range peers {
		p.shutdown()
	}
	t.Runtime.Close()
	t.wg.Wait()
}

var _ sim.Transport = (*Transport)(nil)

// ---- routing ----

// redirect is the runtime's Redirect hook: it decides, for every send,
// whether the message stays in-process or crosses a socket. Messages
// that cross are queued on their link (peer.send), which owns the rest of
// the accounting.
func (t *Transport) redirect(m sim.Message) bool {
	switch t.role {
	case roleLoopback:
		// Everything crosses the socket, even self-sends: the point of the
		// loopback role is that no message skips the codec. The in-flight
		// hold taken here is released at Inject or at whichever loss point
		// claims the message first.
		t.inflight.Add(1)
		t.linkFor(m.To).send(m)
		return true
	case roleJoiner:
		t.mu.Lock()
		isLocal := t.local[m.To]
		t.mu.Unlock()
		if isLocal {
			return false
		}
		t.linkFor(m.To).send(m)
		return true
	default: // hub
		t.mu.Lock()
		isLocal := t.local[m.To]
		p := t.peerFor(m.To)
		t.mu.Unlock()
		if isLocal {
			return false
		}
		if p == nil {
			t.lose(1)
			return true
		}
		p.send(m)
		return true
	}
}

// linkFor returns the dialed link that carries every message to id: the
// destination picks the shard, so each sender–receiver pair keeps the FIFO
// order of one TCP stream. The links are fixed at construction.
func (t *Transport) linkFor(id sim.NodeID) *peer {
	return t.links[uint64(id)%uint64(len(t.links))]
}

// peerFor returns the link owning id's block. Caller holds t.mu.
func (t *Transport) peerFor(id sim.NodeID) *peer {
	for _, b := range t.blocks {
		if b.contains(id) {
			return b.p
		}
	}
	return nil
}

// dispatch handles one decoded frame arriving on a connection.
func (t *Transport) dispatch(m sim.Message, from *peer) {
	switch body := m.Body.(type) {
	case wire.Hello:
		t.handleHello(body, from)
	case wire.Welcome:
		t.mu.Lock()
		t.base, t.slots = body.Base, body.Slots
		t.mu.Unlock()
		t.readyMu.Do(func() {
			if t.ready != nil {
				close(t.ready)
			}
		})
	default:
		t.deliverOrRelay(m)
	}
}

// deliverOrRelay delivers a data frame to a local node or, on the hub,
// relays it toward the block owning its target.
func (t *Transport) deliverOrRelay(m sim.Message) {
	if t.role == roleLoopback {
		t.Runtime.Inject(m)
		t.inflight.Add(-1)
		return
	}
	t.mu.Lock()
	isLocal := t.local[m.To]
	var relay *peer
	if !isLocal && t.role == roleHub {
		relay = t.peerFor(m.To)
	}
	t.mu.Unlock()
	switch {
	case isLocal:
		t.Runtime.Inject(m)
	case relay != nil:
		relay.send(m)
	default:
		// Target unknown: the node never existed, its process left, or the
		// frame is stale. Message loss, by design.
		t.lose(1)
	}
}

// handleHello grants (or re-attaches) a node-ID block to a dialing peer.
// A reclaim (Base ≠ ⊥) is honored exactly: re-attach when the block
// exists, re-create it at the same range when it does not (the hub may
// have restarted and lost its grants) — never hand out a different base,
// because the joiner's node IDs are fixed at its System's construction
// and a base swap would silently misroute every frame. Only when the
// requested range already overlaps someone else's block does the joiner
// get a fresh one; it is then effectively partitioned, which the failure
// detector turns into ordinary member loss.
func (t *Transport) handleHello(h wire.Hello, from *peer) {
	if t.role != roleHub {
		return // loopback: self-dialed link needs no handshake; ignore
	}
	slots := h.Slots
	if slots == 0 || slots > 1<<16 {
		slots = blockSlots
	}
	t.mu.Lock()
	var granted *block
	if h.Base != sim.None {
		for _, b := range t.blocks {
			if b.base == h.Base {
				granted = b // reconnect: re-attach the old block
				break
			}
		}
		if granted == nil && !t.overlapsLocked(h.Base, slots) {
			// Hub restarted since the original grant: restore the block at
			// exactly the claimed range.
			granted = &block{base: h.Base, n: slots}
			t.blocks = append(t.blocks, granted)
			if end := h.Base + sim.NodeID(slots); t.next < end {
				t.next = end
			}
		}
	}
	if granted == nil {
		granted = &block{base: t.next, n: slots}
		t.next += sim.NodeID(slots)
		t.blocks = append(t.blocks, granted)
	}
	old := granted.p
	granted.p = from
	t.mu.Unlock()
	if old != nil && old != from {
		old.shutdown() // the joiner reconnected; retire the dead link
	}
	t.opts.logf("nettransport: granted block [%d,%d) to %s", granted.base,
		granted.base+sim.NodeID(granted.n), from.describe())
	from.send(sim.Message{Body: wire.Welcome{Base: granted.base, Slots: granted.n}})
}

// overlapsLocked reports whether [base, base+n) intersects any granted
// block. Caller holds t.mu.
func (t *Transport) overlapsLocked(base sim.NodeID, n uint32) bool {
	end := base + sim.NodeID(n)
	for _, b := range t.blocks {
		if base < b.base+sim.NodeID(b.n) && b.base < end {
			return true
		}
	}
	return false
}

// dropAccepted removes a dead accepted peer from the shutdown list.
func (t *Transport) dropAccepted(p *peer) {
	t.mu.Lock()
	for i, q := range t.accepted {
		if q == p {
			t.accepted = append(t.accepted[:i], t.accepted[i+1:]...)
			break
		}
	}
	t.mu.Unlock()
	p.shutdown()
}

// acceptLoop turns incoming connections into peers (hub) or frame sources
// (loopback).
func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.newAcceptedPeer(conn)
	}
}
