package nettransport

import (
	"errors"
	"net"
	"sync"
	"time"

	"bufio"

	"sspubsub/internal/ring"
	"sspubsub/internal/sim"
	"sspubsub/internal/wire"
)

// peer is one link: a lock-free SPSC ring of pre-encoded frames fed by
// the egress router, a writer that drains the ring into coalesced Batch2
// frames, and a reader that dispatches arriving frames. Dial-side peers
// (addr != "") redial with exponential backoff when the link drops;
// accepted peers live exactly as long as their connection.
//
// Ring roles: the egress router is the only producer for every peer; the
// current writeLoop goroutine is the only consumer. The consumer role
// migrates across reconnects — run() provably waits for the previous
// writeLoop to exit before starting the next — and ends at the Close-time
// sweep, which drains survivors only after wg.Wait has retired every
// goroutine.
type peer struct {
	t    *Transport
	addr string // dial target; "" for accepted connections
	rb   *ring.SPSC[outFrame]
	stop chan struct{}
	once sync.Once

	mu   sync.Mutex
	conn net.Conn
	down time.Time // zero while the link is up
}

func (t *Transport) newPeer(addr string) *peer {
	return &peer{
		t:    t,
		addr: addr,
		rb:   ring.New[outFrame](int(t.opts.QueueDepth)),
		stop: make(chan struct{}),
	}
}

// newDialPeer starts a link that dials addr and keeps redialing. Dial
// peers exist before the transport is usable, so unlike accepted peers
// they cannot race Close.
func (t *Transport) newDialPeer(addr string) *peer {
	p := t.newPeer(addr)
	p.down = time.Now() // down until the first dial succeeds
	t.mu.Lock()
	t.allPeers = append(t.allPeers, p)
	t.mu.Unlock()
	t.wg.Add(1)
	go p.run()
	return p
}

// newAcceptedPeer wraps an accepted connection. The closed-check and the
// registration are one critical section: either this runs before Close
// collects its peer list (so Close shuts this peer down too), or it
// observes closed and refuses.
func (t *Transport) newAcceptedPeer(conn net.Conn) *peer {
	p := t.newPeer("")
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		conn.Close()
		return nil
	}
	p.conn = conn
	t.allPeers = append(t.allPeers, p)
	t.accepted = append(t.accepted, p)
	t.wg.Add(2)
	t.mu.Unlock()
	dead := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer t.wg.Done()
		defer close(writerDone)
		p.writeLoop(conn, dead)
	}()
	go func() {
		defer t.wg.Done()
		p.readLoop(conn)
		close(dead)
		conn.Close()
		<-writerDone
		p.markDown()
		// The peer stays reachable through any block that points at it (so
		// the failure detector can time its absence), but drop it from the
		// accepted list: a reconnecting joiner creates a fresh peer every
		// time, and retaining dead ones would leak. Frames the router still
		// routes here are stranded in the ring until the Close-time sweep
		// counts them as loss — the same fate they had unread in the old
		// channel, now with the slabs reclaimed.
		t.dropAccepted(p)
	}()
	return p
}

// run is the dial-side lifecycle: dial, handshake, pump, redial.
func (p *peer) run() {
	defer p.t.wg.Done()
	backoff := 50 * time.Millisecond
	for {
		select {
		case <-p.stop:
			return
		default:
		}
		conn, err := net.DialTimeout("tcp", p.addr, 2*time.Second)
		if err != nil {
			p.t.opts.logf("nettransport: dial %s: %v (retry in %s)", p.addr, err, backoff)
			select {
			case <-p.stop:
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > p.t.opts.MaxBackoff {
				backoff = p.t.opts.MaxBackoff
			}
			continue
		}
		backoff = 50 * time.Millisecond
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
			hello := wire.Hello{Base: p.t.BaseID(), Slots: p.t.opts.Slots}
			if err := wire.WriteFrame(conn, sim.Message{Body: hello}); err != nil {
				conn.Close()
				continue
			}
		}
		p.markUp()
		dead := make(chan struct{})
		writerDone := make(chan struct{})
		p.t.wg.Add(1)
		go func() {
			defer p.t.wg.Done()
			defer close(writerDone)
			p.writeLoop(conn, dead)
		}()
		p.readLoop(conn)
		conn.Close()
		close(dead)
		// The ring is single-consumer: the next connection's writeLoop may
		// not start until this one has provably exited.
		<-writerDone
		p.markDown()
		p.t.opts.logf("nettransport: link to %s lost; reconnecting", p.addr)
	}
}

// readLoop dispatches frames until the connection fails. Garbage frames
// are counted and skipped — the stream stays aligned; only framing-level
// corruption or I/O failure ends the connection. One frame buffer and one
// decode state (arena + body intern cache) are reused for the whole life
// of the connection, so the steady-state read path allocates only what
// escapes into the runtime — and for a fan-out of one shareable body,
// that is a single boxed value served from the cache.
func (p *peer) readLoop(conn net.Conn) {
	br := bufio.NewReaderSize(conn, 64<<10)
	var buf []byte
	st := wire.NewDecodeState()
	for {
		m, b, err := wire.ReadFrameBufState(br, buf, st)
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

// maxBatch bounds the frames drained from the ring per write pass, and
// with it the members per Batch2 frame. 64 keeps a typical batch far
// below wire.MaxFrame while amortizing the frame header and the
// dispatch bookkeeping across a whole coalescing window.
const maxBatch = 64

// frameBudget is the soft size cap of one composed Batch2 frame. Chunks
// are cut so members beyond the budget start a new frame; a single
// member larger than the budget goes out as a standalone frame, where
// only wire.MaxFrame (enforced by the codec) bounds it.
const frameBudget = 256 << 10

// writeLoop drains the peer's ring into the connection: each PopN burst
// is composed into standalone frames or Batch2 frames (size-budgeted),
// stamping the router's pre-encoded slabs under per-destination
// envelopes — no message is re-encoded here. Slab references are dropped
// once their bytes have left for the socket (or the frame is shed), and
// the scratch buffer is reused across the connection's lifetime, so the
// steady-state write path performs no allocations.
func (p *peer) writeLoop(conn net.Conn, dead chan struct{}) {
	bw := bufio.NewWriterSize(conn, 64<<10)
	flush := time.NewTicker(p.t.opts.FlushEvery)
	defer flush.Stop()
	dirty := false
	scratch := make([]byte, 0, 4096)
	frames := make([]outFrame, maxBatch)

	// keepScratch caps the frame buffer capacity retained across flushes:
	// an occasional giant frame may balloon scratch transiently, but must
	// not pin that memory for the connection's lifetime.
	const keepScratch = 1 << 20

	// writeChunk composes fs into one wire frame and writes it through the
	// fault hook. It reports false only on an I/O failure; oversize and
	// fault-shed frames are counted loss and the stream continues. Every
	// message in fs ends in exactly one of delivered-to-bw or frameLost,
	// so loopback in-flight holds cannot leak.
	writeChunk := func(fs []outFrame) bool {
		var err error
		if len(fs) == 1 {
			f := fs[0]
			scratch, err = wire.AppendFrameRaw(scratch[:0], f.to, f.from, f.topic, f.s.b)
		} else {
			scratch = wire.BeginBatchFrame(scratch[:0], len(fs))
			for _, f := range fs {
				scratch = wire.AppendBatchMember(scratch, f.to, f.from, f.topic, f.s.b)
			}
			scratch, err = wire.FinishFrame(scratch, 0)
		}
		if err != nil {
			// Oversize: only this chunk is bad; shed it as counted loss.
			for range fs {
				p.frameLost()
			}
			return true
		}
		write, corrupted := p.applyFrameFault(scratch, len(fs))
		if !write {
			return true // frame shed by the fault hook
		}
		if _, err := bw.Write(scratch); err != nil {
			if corrupted {
				p.t.lost.Add(int64(len(fs))) // holds already released by the corrupt path
			} else {
				for range fs {
					p.frameLost()
				}
			}
			return false // I/O failure: let the reader's error path reconnect
		}
		dirty = true
		return true
	}

	// release drops the slab references of fs and clears the entries.
	release := func(fs []outFrame) {
		for i := range fs {
			fs[i].s.unref(p.t)
			fs[i] = outFrame{}
		}
	}

	// emit writes one PopN burst as size-budgeted chunks. On I/O failure
	// the unwritten tail is counted loss (it was dequeued and will never
	// be written); all slab references are dropped in every path.
	emit := func(fs []outFrame) bool {
		i := 0
		for i < len(fs) {
			n := 1
			size := wire.BatchMemberSize(fs[i].to, fs[i].from, fs[i].topic, len(fs[i].s.b))
			for i+n < len(fs) {
				f := fs[i+n]
				next := wire.BatchMemberSize(f.to, f.from, f.topic, len(f.s.b))
				if size+next > frameBudget {
					break
				}
				size += next
				n++
			}
			ok := writeChunk(fs[i : i+n]) // accounts its own messages in all paths
			release(fs[i : i+n])
			i += n
			if !ok {
				for range fs[i:] {
					p.frameLost()
				}
				release(fs[i:])
				return false
			}
		}
		return true
	}

	for {
		if n := p.rb.PopN(frames); n > 0 {
			if !emit(frames[:n]) {
				conn.Close()
				return
			}
			if cap(scratch) > keepScratch {
				scratch = make([]byte, 0, 4096)
			}
			continue
		}
		// Ring empty (wake flag armed by PopN): sleep until the router
		// pushes, the flush window closes, or the connection dies.
		select {
		case <-p.stop:
			bw.Flush()
			return
		case <-dead:
			return
		case <-p.rb.Wake():
		case <-flush.C:
			if dirty {
				if bw.Flush() != nil {
					conn.Close()
					return
				}
				dirty = false
			}
		}
	}
}

// applyFrameFault runs the wire-level fault hook for an encoded frame
// carrying n messages. write reports whether the frame may be written
// (false for FrameDrop, accounted as n lost frames). FrameCorrupt flips
// the magic bytes in place — the receiver will count the frame as garbage
// and skip it, so the loopback in-flight holds are released here (the
// messages will never re-enter through Inject) and corrupted is returned
// true: a subsequent I/O failure on the same frame must NOT run the
// frameLost accounting again, or the holds would be double-released and
// the quiesce barrier would open early. Flipping the magic, not arbitrary
// bytes, guarantees the corrupted frame cannot decode into a different
// valid message, which would likewise double-release the holds.
func (p *peer) applyFrameFault(frame []byte, n int) (write, corrupted bool) {
	switch p.t.frameVerdict() {
	case FrameDrop:
		for i := 0; i < n; i++ {
			p.frameLost()
		}
		return false, false
	case FrameCorrupt:
		frame[4] ^= 0xFF
		frame[5] ^= 0xFF
		if p.t.role == roleLoopback {
			p.t.inflight.Add(int64(-n))
		}
		return true, true
	}
	return true, false
}

// frameLost records one frame that will never arrive, releasing its
// loopback in-flight hold so the quiesce barrier cannot wedge on it.
func (p *peer) frameLost() {
	p.t.lost.Add(1)
	if p.t.role == roleLoopback {
		p.t.inflight.Add(-1)
	}
}

// push appends a frame to the peer's ring (router only — the ring is
// single-producer), refusing when the peer is shut down or the ring is
// full; the caller owns the loss accounting and the slab reference.
func (p *peer) push(f outFrame) bool {
	select {
	case <-p.stop:
		return false
	default:
	}
	return p.rb.Push(f)
}

// drainRing empties the ring as counted loss, reclaiming the slab
// references. Only the Close path calls it, after wg.Wait has retired
// the router and every writer — the ring has no other producer or
// consumer left, so the sweep is race-free and final.
func (p *peer) drainRing() {
	for {
		f, ok := p.rb.Pop()
		if !ok {
			return
		}
		f.s.unref(p.t)
		p.frameLost()
	}
}

// setConn installs the current connection. It reports false — without
// installing — when the peer has been shut down, so a dial racing
// shutdown cannot resurrect the link.
func (p *peer) setConn(c net.Conn) bool {
	select {
	case <-p.stop:
		return false
	default:
	}
	p.mu.Lock()
	p.conn = c
	p.mu.Unlock()
	// Re-check: shutdown may have read the old conn just before we
	// installed this one.
	select {
	case <-p.stop:
		return false
	default:
		return true
	}
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

// shutdown permanently stops the peer and closes its connection.
func (p *peer) shutdown() {
	p.once.Do(func() { close(p.stop) })
	p.mu.Lock()
	c := p.conn
	p.mu.Unlock()
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
