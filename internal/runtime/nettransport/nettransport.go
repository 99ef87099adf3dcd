// Package nettransport runs the protocol across real TCP connections: a
// sim.Transport whose messages leave the address space as wire frames.
// Local nodes execute on an embedded concurrent runtime
// (internal/runtime/concurrent); the transport intercepts every send with
// the runtime's Redirect hook, routes frames over sockets, and re-enters
// arriving frames with Inject. Protocol code is unchanged — it still only
// sees sim.Context.
//
// Three roles, one implementation:
//
//   - Loopback (NewLoopback): a single process that dials its own
//     listener, so every message — even node-to-node within the process —
//     crosses the codec and a real TCP socket. This is the conformance
//     and benchmarking configuration: same scenario API as the other
//     substrates, plus a working Quiesce barrier that extends over frames
//     in flight.
//   - Hub (NewHub): listens for joiner processes, grants each a block of
//     node IDs, delivers frames addressed to its own nodes and relays
//     joiner-to-joiner traffic (a star topology — the supervisor process
//     is the natural hub).
//   - Joiner (NewJoiner): dials the hub, receives its ID block, and sends
//     every non-local message to the hub for delivery or relay. Dropped
//     links are redialed with exponential backoff; frames queued or lost
//     while a link is down are message loss, which the protocol already
//     tolerates (Section 3.3 treats channel contents as corruptible
//     state).
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
	// Jitter is the per-tick timeout jitter (see concurrent.Options).
	Jitter float64
	// FlushEvery is the write-coalescing interval: frames queued within
	// one window leave in a single flush. Default 500µs.
	FlushEvery time.Duration
	// Slots is the node-ID block size a joiner requests. Default 1024.
	Slots uint32
	// QueueDepth bounds the frames buffered toward one link (the per-peer
	// egress ring; capacities round up to a power of two). A full ring
	// drops (message loss, which the protocol tolerates) rather than
	// blocking a protocol handler. Default 4096.
	QueueDepth uint32
	// HandshakeTimeout bounds a joiner's wait for its Welcome. Default 5s.
	HandshakeTimeout time.Duration
	// MaxBackoff caps the reconnect backoff. Default 2s.
	MaxBackoff time.Duration
	// DetectorGrace is how long a peer's link may be down before the
	// failure detector suspects its nodes. Default 20·Interval.
	DetectorGrace time.Duration
	// Logf, when non-nil, receives connection lifecycle diagnostics.
	Logf func(format string, args ...any)
}

func (o *Options) fill() {
	if o.Interval == 0 {
		o.Interval = 10 * time.Millisecond
	}
	if o.FlushEvery == 0 {
		o.FlushEvery = 500 * time.Microsecond
	}
	if o.Slots == 0 {
		o.Slots = 1024
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 4096
	}
	if o.HandshakeTimeout == 0 {
		o.HandshakeTimeout = 5 * time.Second
	}
	if o.MaxBackoff == 0 {
		o.MaxBackoff = 2 * time.Second
	}
	if o.DetectorGrace == 0 {
		o.DetectorGrace = 20 * o.Interval
	}
}

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

// Transport is a sim.Transport over TCP. It must be closed.
type Transport struct {
	opts Options
	role role
	rt   *concurrent.Runtime
	ln   net.Listener

	// inflight counts frames between the Redirect intercept and their
	// local re-injection; only the loopback role maintains it (frames that
	// leave the process never come back, so cross-process quiesce is not a
	// thing). It is the runtime's ExtraPending. Known conservative edge:
	// frames sitting unflushed in the write buffer when the loopback
	// connection itself dies are unaccounted losses, leaving inflight
	// permanently raised — Quiesce then reports false rather than lying,
	// and a dying loopback socket means the host is broken anyway.
	inflight atomic.Int64
	garbage  atomic.Int64 // undecodable frames dropped
	lost     atomic.Int64 // frames dropped by dead links / unroutable IDs

	// frameFault, when set, is consulted once per outgoing frame on the
	// writer goroutines: it can drop the frame whole or smash its magic
	// bytes so the receiver's decoder sees garbage (the chaos engine's
	// wire-corruption fault).
	frameFault atomic.Pointer[func() FrameFault]

	// egressCh feeds the encode-once router (see egress.go); egressStop
	// retires it during Close. The slab counters expose the refcounted-
	// slab leak invariant (SlabStats).
	egressCh     chan egressItem
	egressStop   chan struct{}
	slabAcquired atomic.Int64
	slabReleased atomic.Int64

	mu       sync.Mutex
	local    map[sim.NodeID]bool
	blocks   []*block // hub: granted ID blocks, routing table
	accepted []*peer  // every accepted connection, for shutdown
	allPeers []*peer  // every peer ever created, for the Close ring sweep
	up       *peer    // loopback/joiner: the dialed upstream link
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
// dials itself.
func NewLoopback(opts Options) (*Transport, error) {
	if opts.Listen == "" {
		opts.Listen = "127.0.0.1:0"
	}
	t, err := newTransport(opts, roleLoopback)
	if err != nil {
		return nil, err
	}
	t.up = t.newDialPeer(t.ln.Addr().String())
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
	t.rt = t.newRuntime()
	t.startEgress()
	t.up = t.newDialPeer(opts.Hub)
	select {
	case <-t.ready:
		return t, nil
	case <-time.After(opts.HandshakeTimeout):
		t.Close()
		return nil, fmt.Errorf("nettransport: no Welcome from hub %s within %s", opts.Hub, opts.HandshakeTimeout)
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
	t.rt = t.newRuntime()
	t.startEgress()
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

func (t *Transport) newRuntime() *concurrent.Runtime {
	return concurrent.NewRuntime(concurrent.Options{
		Interval:     t.opts.Interval,
		Seed:         t.opts.Seed,
		Jitter:       t.opts.Jitter,
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
	// the ErrGarbage recovery path end to end.
	FrameCorrupt
)

// SetFault installs (or clears, with nil) the message-level fault filter of
// the embedded runtime; see concurrent.Runtime.SetFault.
func (t *Transport) SetFault(f sim.FaultFunc) { t.rt.SetFault(f) }

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

// LostFrames returns frames dropped by dead links or unroutable targets.
func (t *Transport) LostFrames() int64 { return t.lost.Load() }

// ---- sim.Transport ----

// AddNode registers a handler on the embedded runtime and records the ID
// as local for routing.
func (t *Transport) AddNode(id sim.NodeID, h sim.Handler) {
	t.mu.Lock()
	t.local[id] = true
	t.mu.Unlock()
	t.rt.AddNode(id, h)
}

// RemoveNode deregisters a local node.
func (t *Transport) RemoveNode(id sim.NodeID) {
	t.rt.RemoveNode(id)
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
		t.rt.Crash(id)
	}
}

// Send routes a message through the embedded runtime (whose Redirect hook
// brings it back to this transport when it must cross a socket).
func (t *Transport) Send(m sim.Message) { t.rt.Send(m) }

// Suspects implements the failure detector of Section 3.3 across
// processes: local nodes defer to the runtime's crash bookkeeping; nodes
// in a granted block are suspected once their link has been down longer
// than DetectorGrace; unknown IDs are suspected immediately.
func (t *Transport) Suspects(id sim.NodeID) bool {
	if t.role == roleLoopback {
		return t.rt.Suspects(id)
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
	joinerUp := t.up
	t.mu.Unlock()
	if isLocal {
		return t.rt.Suspects(id)
	}
	if owner != nil {
		return owner.downFor(t.opts.DetectorGrace)
	}
	if t.role == roleJoiner {
		// Everything non-local reaches this process through the hub; while
		// the hub link is up we cannot tell remote nodes apart, and only
		// the supervisor consults the detector anyway.
		return joinerUp.downFor(t.opts.DetectorGrace)
	}
	return true
}

// Close stops the listener, all peer links, the egress router and the
// embedded runtime, then sweeps every peer ring: frames stranded between
// the router and a writer are counted loss and their slabs reclaimed, so
// SlabStats balances on a closed transport.
func (t *Transport) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	peers := make([]*peer, 0, len(t.blocks)+len(t.accepted)+1)
	if t.up != nil {
		peers = append(peers, t.up)
	}
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
	// Runtime first (no handler is left to call egressSend), then the
	// router (drains the egress queue as loss and exits), then the
	// barrier: after wg.Wait no goroutine touches any ring.
	t.rt.Close()
	close(t.egressStop)
	t.wg.Wait()
	t.mu.Lock()
	all := t.allPeers
	t.mu.Unlock()
	for _, p := range all {
		p.drainRing()
	}
}

// ---- driver conveniences (Simulation facade parity) ----

// Quiesce freezes the transport for a consistent snapshot: timeouts pause
// and the barrier waits for mailboxes, handlers AND frames in the socket
// to drain. Only meaningful on the loopback role, where every frame comes
// back; on hub/joiner roles frames crossing to other processes are outside
// any one process's barrier.
func (t *Transport) Quiesce(timeout time.Duration, f func()) bool {
	return t.rt.Quiesce(timeout, f)
}

// Freeze and RunRounds implement sim.Stepper through the embedded runtime.
func (t *Transport) Freeze(f func()) bool { return t.rt.Freeze(f) }
func (t *Transport) RunRounds(k int)      { t.rt.RunRounds(k) }

// Delivered returns messages handled by local nodes.
func (t *Transport) Delivered() int64 { return t.rt.Delivered() }

// CountByType returns local sends per message body type name.
func (t *Transport) CountByType(name string) int64 { return t.rt.CountByType(name) }

// SentBy returns messages sent by a local node.
func (t *Transport) SentBy(id sim.NodeID) int64 { return t.rt.SentBy(id) }

// ResetCounters zeroes the local accounting.
func (t *Transport) ResetCounters() { t.rt.ResetCounters() }

// Now returns time in timeout intervals since the transport started.
func (t *Transport) Now() float64 { return t.rt.Now() }

// Runtime exposes the embedded concurrent runtime (fault injectors,
// advanced accounting).
func (t *Transport) Runtime() *concurrent.Runtime { return t.rt }

var _ sim.Transport = (*Transport)(nil)

// ---- routing ----

// redirect is the runtime's Redirect hook: it decides, for every send,
// whether the message stays in-process or crosses a socket. Messages
// that cross hand off to the egress router (encode-once, lock-free
// rings); the router and its loss paths own the rest of the accounting.
func (t *Transport) redirect(m sim.Message) bool {
	switch t.role {
	case roleLoopback:
		// Everything crosses the socket, even self-sends: the point of the
		// loopback role is that no message skips the codec. The in-flight
		// hold taken here is released at Inject or at whichever loss point
		// claims the message first.
		t.inflight.Add(1)
		t.egressSend(m, t.up)
		return true
	case roleJoiner:
		t.mu.Lock()
		isLocal := t.local[m.To]
		up := t.up
		t.mu.Unlock()
		if isLocal {
			return false
		}
		t.egressSend(m, up)
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
			t.lost.Add(1)
			return true
		}
		t.egressSend(m, p)
		return true
	}
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
		t.rt.Inject(m)
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
		t.rt.Inject(m)
	case relay != nil:
		t.egressSend(m, relay)
	default:
		// Target unknown: the node never existed, its process left, or the
		// frame is stale. Message loss, by design.
		t.lost.Add(1)
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
		slots = t.opts.Slots
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
	t.egressSend(sim.Message{Body: wire.Welcome{Base: granted.base, Slots: granted.n}}, from)
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
