package main

import (
	"math/rand"
	"sync"
	"time"

	"sspubsub/bench/load"
	"sspubsub/internal/core"
	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
)

// listenerAdder is the pool seam of the engines that host virtual
// subscribers (scale.Substrate's extra method).
type listenerAdder interface {
	AddListener(id, owner sim.NodeID)
}

// span kinds in the span file.
const (
	kindHandler = "handler" // one OnMessage, start to return
	kindSend    = "send"    // one Send call, child of the handler that made it
	kindTransit = "transit" // a send's end at A to the matching handler's start at B
	kindDeliver = "deliver" // the application delivery inside a handler (zero length)
)

// span is one traced interval of a sampled operation. Spans of one
// publication share its sequence number as Trace.
type span struct {
	Trace int64  `json:"trace"` // publication seq, or -(node ID) for a join command
	Kind  string `json:"kind"`
	Node  int64  `json:"node"` // where it ran (transit: the receiver)
	From  int64  `json:"from"` // handler/transit: the message's sender; send: the sender itself
	To    int64  `json:"to"`
	Type  string `json:"type,omitempty"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// hrec is the compact record kept for every handler invocation.
type hrec struct {
	typ    int32 // index into nodeLog.types
	sends  int32
	durNs  int64
	sendNs int64 // time inside child sends; self = durNs - sendNs
}

// nodeLog collects one node's records. Only the goroutine executing the
// node's handler touches it (psim: the node's lane worker, with barriers
// between windows), so nothing here is locked. Listeners share their pool's
// log.
type nodeLog struct {
	sup      bool
	types    []string
	typeIdx  map[string]int32
	handlers []hrec
	sendDur  []int32 // ns per Send call from a handler
	spans    []span  // full spans of sampled operations
	bodies   []sim.Message
	seen     int      // sends seen, for the 1-in-bodyEvery body sample
	origins  []origin // flood copies received, in arrival order
	senders  []origin // the first senderCap messages' senders, numbered in arrival order

	// cur is the handler currently executing (psim pools send through the
	// transport, not the context, so Send needs to find it).
	cur *hrec
}

// origin is one arrival for the ordering replay: who published and the
// publisher's own sequence number.
type origin struct {
	node sim.NodeID
	seq  uint64
}

const (
	bodyEvery = 8    // keep one sent body in bodyEvery for the codec replay
	bodyCap   = 2048 // per node
	senderCap = 4096 // per node
)

// tracer is the sim.Transport decorator of the traced run. With on == false
// it registers handlers unwrapped: the untraced pass that trace_overhead_pct
// is measured against runs the identical harness.
type tracer struct {
	inner sim.Transport
	on    bool
	clock func() int64
	// stride samples publications: full spans are kept for seq%stride == 0.
	stride int
	// poolSends is set on psim: pools send through the transport from inside
	// handlers, so a transport-level Send while the sender's handler runs is
	// that handler's child. On the live runtimes only the driver calls Send.
	poolSends bool

	mu   sync.Mutex
	logs map[sim.NodeID]*nodeLog
	sups map[sim.NodeID]bool
	// driver holds the spans of driver sends (Publish, Join commands).
	driver nodeLog
}

func newTracer(inner sim.Transport, on bool, clock func() int64, stride int) *tracer {
	return &tracer{inner: inner, on: on, clock: clock, stride: stride,
		logs: make(map[sim.NodeID]*nodeLog), sups: make(map[sim.NodeID]bool)}
}

func (t *tracer) logOf(id sim.NodeID) *nodeLog {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.logs[id]
}

// traceKey names the sampled operation a message belongs to: publications
// are traced by their generator sequence number (one in stride), join
// commands by the joining node (negated, so the two cannot collide).
func (t *tracer) traceKey(m sim.Message) (trace int64, ok bool) {
	payload := ""
	switch b := m.Body.(type) {
	case proto.PublishNew:
		payload = b.Pub.Payload
	case core.PublishCmd:
		payload = b.Payload
	case core.JoinTopic:
		return -int64(m.To), true
	default:
		return 0, false
	}
	seq, ok := load.Seq(payload)
	return int64(seq), ok && seq%t.stride == 0
}

func (t *tracer) AddNode(id sim.NodeID, h sim.Handler) {
	if !t.on {
		t.inner.AddNode(id, h)
		return
	}
	t.mu.Lock()
	l := t.logs[id]
	if l == nil { // a restart keeps the node's log
		l = &nodeLog{sup: t.sups[id], typeIdx: make(map[string]int32)}
		t.logs[id] = l
	}
	t.mu.Unlock()
	t.inner.AddNode(id, newTracedHandler(t, h, l))
}

// MarkSupervisor tags id's spans as the supervisor layer's. Call it before
// AddNode.
func (t *tracer) MarkSupervisor(id sim.NodeID) { t.sups[id] = true }

func (t *tracer) AddListener(id, owner sim.NodeID) {
	if t.on {
		t.mu.Lock()
		t.logs[id] = t.logs[owner]
		t.mu.Unlock()
	}
	t.inner.(listenerAdder).AddListener(id, owner)
}

func (t *tracer) RemoveNode(id sim.NodeID)    { t.inner.RemoveNode(id) }
func (t *tracer) Crash(id sim.NodeID)         { t.inner.Crash(id) }
func (t *tracer) Close()                      { t.inner.Close() }
func (t *tracer) Suspects(id sim.NodeID) bool { return t.inner.Suspects(id) }

// Send is the transport-level send: the driver's commands on every
// substrate, and on psim also every send a pool makes from inside a handler.
func (t *tracer) Send(m sim.Message) {
	if !t.on {
		t.inner.Send(m)
		return
	}
	start := t.clock()
	t.inner.Send(m)
	end := t.clock()
	if t.poolSends {
		// Registration only changes at barriers, so the unlocked map read is
		// safe from lane workers.
		if l := t.logs[m.From]; l != nil && l.cur != nil {
			l.sent(t, m, start, end)
			return
		}
	}
	if trace, ok := t.traceKey(m); ok {
		t.driver.spans = append(t.driver.spans, sendSpan(trace, m, start, end))
	}
}

func sendSpan(trace int64, m sim.Message, start, end int64) span {
	return span{Trace: trace, Kind: kindSend, Node: int64(m.From), From: int64(m.From), To: int64(m.To),
		Type: sim.TypeName(m.Body), Start: start, End: end}
}

// sent records one child send of the executing handler.
func (l *nodeLog) sent(t *tracer, m sim.Message, start, end int64) {
	l.cur.sends++
	l.cur.sendNs += end - start
	l.sendDur = append(l.sendDur, int32(end-start))
	if l.seen++; l.seen%bodyEvery == 0 && len(l.bodies) < bodyCap {
		l.bodies = append(l.bodies, m)
	}
	if trace, ok := t.traceKey(m); ok {
		l.spans = append(l.spans, sendSpan(trace, m, start, end))
	}
}

func (l *nodeLog) typeOf(name string) int32 {
	i, ok := l.typeIdx[name]
	if !ok {
		i = int32(len(l.types))
		l.types = append(l.types, name)
		l.typeIdx[name] = i
	}
	return i
}

// tracedHandler wraps one registered handler and the context handed to it.
type tracedHandler struct {
	t   *tracer
	h   sim.Handler
	log *nodeLog
	ctx tracedCtx
}

func newTracedHandler(t *tracer, h sim.Handler, l *nodeLog) *tracedHandler {
	w := &tracedHandler{t: t, h: h, log: l}
	w.ctx.w = w
	return w
}

// begin opens the record of one handler invocation and returns its start.
func (w *tracedHandler) begin(ctx sim.Context, typ string) int64 {
	l := w.log
	l.handlers = append(l.handlers, hrec{typ: l.typeOf(typ)})
	l.cur = &l.handlers[len(l.handlers)-1]
	w.ctx.inner = ctx
	return w.t.clock()
}

func (w *tracedHandler) end(start int64) int64 {
	end := w.t.clock()
	w.log.cur.durNs = end - start
	w.log.cur = nil
	w.ctx.inner = nil
	return end
}

func (w *tracedHandler) OnMessage(ctx sim.Context, m sim.Message) {
	typ := sim.TypeName(m.Body)
	start := w.begin(ctx, typ)
	w.h.OnMessage(&w.ctx, m)
	end := w.end(start)
	if b, ok := m.Body.(proto.PublishNew); ok {
		if seq, ok := load.Seq(b.Pub.Payload); ok {
			w.log.origins = append(w.log.origins, origin{node: b.Pub.Origin, seq: uint64(seq)})
		}
	} else if n := len(w.log.senders); n < senderCap {
		w.log.senders = append(w.log.senders, origin{node: m.From, seq: uint64(n)})
	}
	if trace, ok := w.t.traceKey(m); ok {
		w.log.spans = append(w.log.spans, span{Trace: trace, Kind: kindHandler,
			Node: int64(m.To), From: int64(m.From), To: int64(m.To), Type: typ, Start: start, End: end})
	}
}

func (w *tracedHandler) OnTimeout(ctx sim.Context) {
	start := w.begin(ctx, "timeout")
	w.h.OnTimeout(&w.ctx)
	w.end(start)
}

// tracedCtx is the sim.Context a wrapped handler sees; one per node, reused
// across invocations (handlers must not retain a Context).
type tracedCtx struct {
	inner sim.Context
	w     *tracedHandler
}

func (c *tracedCtx) Self() sim.NodeID { return c.inner.Self() }
func (c *tracedCtx) Rand() *rand.Rand { return c.inner.Rand() }
func (c *tracedCtx) Now() float64     { return c.inner.Now() }
func (c *tracedCtx) Send(to sim.NodeID, topic sim.Topic, body any) {
	t := c.w.t
	start := t.clock()
	c.inner.Send(to, topic, body)
	end := t.clock()
	c.w.log.sent(t, sim.Message{To: to, From: c.inner.Self(), Topic: topic, Body: body}, start, end)
}

// delivered stamps an application delivery of a sampled publication; it is
// called from the recorder's hook, on the delivering node's goroutine.
func (t *tracer) delivered(node int64, seq int, at int64) {
	if !t.on || seq%t.stride != 0 {
		return
	}
	if l := t.logOf(sim.NodeID(node)); l != nil {
		l.spans = append(l.spans, span{Trace: int64(seq), Kind: kindDeliver, Node: node, From: node, To: node, Start: at, End: at})
	}
}

// sinceClock returns a clock counting nanoseconds from base.
func sinceClock(base time.Time) func() int64 {
	return func() int64 { return int64(time.Since(base)) }
}
