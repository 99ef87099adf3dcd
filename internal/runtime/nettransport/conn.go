package nettransport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"time"

	"sspubsub/internal/sim"
	"sspubsub/internal/wire"
)

// peer is one link. Egress is one hop: send encodes on the sending
// goroutine straight into pending, the batch of length-prefixed Batch2
// members awaiting the writer; the writer swaps the batch out, frames it
// and writes it, and parks only when a swap comes back empty — so batching
// comes from load (whatever queued while the previous write was in the
// socket leaves as one frame), not from a timer. Dial-side peers
// (addr != "") redial with exponential backoff when the link drops and
// keep their backlog across the gap; accepted peers live exactly as long
// as their connection. A loopback transport dials one peer per shard and
// accepts each again on its own listener, so every shard has its own
// writer, reader and decode state; a joiner dials one.
type peer struct {
	t    *Transport
	addr string // dial target; "" for accepted connections
	stop chan struct{}
	// wake holds one token while pending is non-empty and the writer may be
	// parked: senders post it on the empty → non-empty transition only.
	wake chan struct{}

	mu       sync.Mutex
	conn     net.Conn
	down     time.Time // zero while the link is up
	body     []byte    // send's scratch: one tagged body
	pending  []byte    // members queued for the writer
	pendingN int       // members in pending, at most queueDepth

	frame []byte // the frame being written; owned by the running writeLoop
}

func (t *Transport) newPeer(addr string) *peer {
	return &peer{t: t, addr: addr, stop: make(chan struct{}), wake: make(chan struct{}, 1)}
}

// newDialPeer starts a link that dials addr and keeps redialing. Dial
// peers exist before the transport is usable, so unlike accepted peers
// they cannot race Close.
func (t *Transport) newDialPeer(addr string) *peer {
	p := t.newPeer(addr)
	p.down = time.Now() // down until the first dial succeeds
	t.wg.Add(1)
	go p.run()
	return p
}

// newAcceptedPeer wraps an accepted connection. The closed-check and the
// registration are one critical section: either this runs before Close
// collects its peer list (so Close shuts this peer down too), or it
// observes closed and refuses.
func (t *Transport) newAcceptedPeer(conn net.Conn) {
	p := t.newPeer("")
	p.conn = conn
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		conn.Close()
		return
	}
	t.accepted = append(t.accepted, p)
	t.wg.Add(1)
	t.mu.Unlock()
	go func() {
		defer t.wg.Done()
		p.pump(conn)
		p.markDown()
		// The peer stays reachable through any block that points at it (so
		// the failure detector can time its absence), but drop it from the
		// accepted list: a reconnecting joiner creates a fresh peer every
		// time, and retaining dead ones would leak. Its shutdown counts what
		// was still pending as loss, and every later send to it likewise.
		t.dropAccepted(p)
	}()
}

// run is the dial-side lifecycle: dial, handshake, pump, redial.
func (p *peer) run() {
	defer p.t.wg.Done()
	backoff := minBackoff
	for !p.stopped() {
		conn, err := net.DialTimeout("tcp", p.addr, 2*time.Second)
		if err != nil {
			p.t.opts.logf("nettransport: dial %s: %v (retry in %s)", p.addr, err, backoff)
			select {
			case <-p.stop:
				return
			case <-time.After(backoff):
			}
			backoff = min(2*backoff, maxBackoff)
			continue
		}
		backoff = minBackoff
		if !p.setConn(conn) {
			// shutdown() ran while we were dialing: the connection it
			// closed was the old one, so close this one and leave before
			// readLoop can block on a healthy socket forever.
			conn.Close()
			return
		}
		if p.t.role == roleJoiner {
			// (Re-)introduce ourselves before any queued data flows: Base ⊥
			// requests a fresh ID block, a previous base reclaims it.
			hello, _ := wire.Marshal(sim.Message{Body: wire.Hello{Base: p.t.BaseID(), Slots: blockSlots}})
			if _, err := conn.Write(hello); err != nil {
				conn.Close()
				continue
			}
		}
		p.markUp()
		p.pump(conn)
		p.markDown()
		p.t.opts.logf("nettransport: link to %s lost; reconnecting", p.addr)
	}
}

func (p *peer) stopped() bool {
	select {
	case <-p.stop:
		return true
	default:
		return false
	}
}

// pump serves one connection — the reader on a goroutine of its own, the
// writer on this one — and returns once both are done and conn is closed.
// Whichever side fails first closes conn, which fails the other.
func (p *peer) pump(conn net.Conn) {
	dead := make(chan struct{})
	go func() {
		p.readLoop(conn)
		conn.Close()
		close(dead)
	}()
	p.writeLoop(conn, dead)
	conn.Close()
	<-dead
}

// readLoop dispatches frames until the connection fails. Garbage frames
// are counted and skipped — the stream stays aligned; only framing-level
// corruption or I/O failure ends the connection. One frame buffer and one
// decode state (its arena) are reused for the whole life of the
// connection, so the steady-state read path allocates only what escapes
// into the runtime: one boxed body per message, plus the arena chunks its
// strings and slices are bumped out of.
func (p *peer) readLoop(conn net.Conn) {
	br := bufio.NewReaderSize(conn, 64<<10)
	var buf []byte
	st := wire.NewDecodeState()
	for {
		m, b, err := wire.ReadFrame(br, buf, st)
		buf = b
		if err != nil {
			if errors.Is(err, wire.ErrGarbage) {
				p.t.garbage.Add(1)
				p.t.opts.logf("nettransport: dropped garbage frame: %v", err)
				st.EndFrame() // a failed decode's scaffolding is reusable too
				continue
			}
			return
		}
		if batch, ok := m.Body.(wire.Batch2); ok {
			for _, im := range batch.Msgs {
				p.t.dispatch(im, p)
			}
		} else {
			p.t.dispatch(m, p)
		}
		// Dispatch injects message values into mailboxes (copies), so the
		// frame's scaffold slices can be rewound for the next frame.
		st.EndFrame()
	}
}

// frameBudget is the soft size cap of one composed Batch2 frame: the
// writer cuts a swapped-out batch so members beyond the budget start a new
// frame. A single member larger than the budget goes out as a frame of its
// own, where only wire.MaxFrame (enforced by the codec) bounds it.
const frameBudget = 256 << 10

// keepBuf caps the capacity a peer's buffers retain between uses: an
// occasional giant body or burst may balloon them transiently, but must
// not pin that memory for the link's lifetime.
const keepBuf = 1 << 20

// send queues m toward the link, on the caller's goroutine: the tagged
// body is encoded into the peer's scratch and appended to the pending
// batch as one member. It never blocks on the socket. A message the link
// cannot take — the peer is shut down, queueDepth members are already
// pending, or the body does not encode — is counted loss.
func (p *peer) send(m sim.Message) {
	p.mu.Lock()
	queued := false
	if p.pendingN < queueDepth && !p.stopped() {
		var err error
		if p.body, err = wire.AppendBody(p.body[:0], m.Body); err == nil {
			p.pending = wire.AppendBatchMember(p.pending, m.To, m.From, m.Topic, p.body)
			p.pendingN++
			queued = true
		}
		if cap(p.body) > keepBuf {
			p.body = nil
		}
	}
	first := queued && p.pendingN == 1
	p.mu.Unlock()
	if !queued {
		p.t.lose(1)
		return
	}
	if first {
		select {
		case p.wake <- struct{}{}:
		default: // a token is already posted
		}
	}
}

// writeLoop moves the pending batch into the connection until the
// connection, the peer or a write fails. Each pass swaps the batch out
// under the lock and writes it without the lock, so senders keep queueing
// into the other buffer meanwhile; a new connection's first pass picks up
// whatever queued while the link was down.
func (p *peer) writeLoop(conn net.Conn, dead <-chan struct{}) {
	var out []byte
	for {
		p.mu.Lock()
		out, p.pending = p.pending, out[:0]
		n := p.pendingN
		p.pendingN = 0
		p.mu.Unlock()
		if n == 0 {
			select {
			case <-p.stop:
				return
			case <-dead:
				return
			case <-p.wake:
			}
			continue
		}
		if !p.writeBatch(conn, out, n) {
			return
		}
		if cap(out) > keepBuf {
			out = nil
		}
		if cap(p.frame) > keepBuf {
			p.frame = nil
		}
	}
}

// writeBatch writes the n members in batch as frames of at most
// frameBudget bytes, one conn.Write each, consulting the frame-fault hook
// once per frame. A lone member leaves as a standalone frame, several as
// one Batch2 — what a reader sees is what wire.AppendFrame would have
// produced. It reports false on an I/O failure, after counting the failed
// frame's messages and the unwritten rest of the batch as loss: every
// member ends in exactly one of written or lost, so loopback in-flight
// holds cannot leak.
func (p *peer) writeBatch(conn net.Conn, batch []byte, n int) bool {
	for len(batch) > 0 {
		// Cut the longest run of whole members within the budget (at
		// least one).
		end, k := 0, 0
		for end < len(batch) {
			size, w := binary.Uvarint(batch[end:])
			next := end + w + int(size)
			if k > 0 && next > frameBudget {
				break
			}
			end, k = next, k+1
		}
		if k == 1 {
			// A member after its length prefix is envelope + tagged body:
			// exactly a standalone frame's payload after the header.
			_, w := binary.Uvarint(batch)
			p.frame = append(wire.BeginFrame(p.frame[:0]), batch[w:end]...)
		} else {
			p.frame = append(wire.BeginBatchFrame(p.frame[:0], k), batch[:end]...)
		}
		batch, n = batch[end:], n-k
		frame, err := wire.FinishFrame(p.frame, 0)
		if err != nil {
			p.t.lose(k) // over wire.MaxFrame: only this frame is bad
			continue
		}
		verdict := p.t.frameVerdict()
		if verdict == FrameCorrupt {
			// Flipping the magic, not arbitrary bytes, guarantees the frame
			// cannot decode into a different valid message: the receiver
			// counts it as garbage and skips it.
			frame[4] ^= 0xFF
			frame[5] ^= 0xFF
		}
		if verdict != FrameDeliver {
			p.t.lose(k) // shed or corrupted: these messages will never arrive
			if verdict == FrameDrop {
				continue
			}
		}
		if _, err := conn.Write(frame); err != nil {
			// A failed Write left at most a truncated frame behind, which the
			// reader cannot dispatch: nothing of it was delivered.
			if verdict == FrameDeliver {
				p.t.lose(k)
			}
			p.t.lose(n)
			return false
		}
	}
	return true
}

// setConn installs the current connection. It reports false — without
// installing — when the peer has been shut down, so a dial racing
// shutdown cannot resurrect the link.
func (p *peer) setConn(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped() {
		return false
	}
	p.conn = c
	return true
}

func (p *peer) markUp() {
	p.mu.Lock()
	p.down = time.Time{}
	p.mu.Unlock()
}

func (p *peer) markDown() {
	p.mu.Lock()
	if p.down.IsZero() {
		p.down = time.Now()
	}
	p.mu.Unlock()
}

// downFor reports whether the link has been down for at least grace.
func (p *peer) downFor(grace time.Duration) bool {
	if p == nil {
		return true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return !p.down.IsZero() && time.Since(p.down) >= grace
}

// shutdown permanently stops the peer: it closes the connection and counts
// what is still pending as loss. stop closes under the lock send checks it
// under, so no member can be queued behind this sweep.
func (p *peer) shutdown() {
	p.mu.Lock()
	if !p.stopped() {
		close(p.stop)
	}
	c, n := p.conn, p.pendingN
	p.pending, p.pendingN = nil, 0
	p.mu.Unlock()
	p.t.lose(n)
	if c != nil {
		c.Close()
	}
}

func (p *peer) describe() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn != nil {
		return p.conn.RemoteAddr().String()
	}
	return p.addr
}
