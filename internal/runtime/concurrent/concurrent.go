// Package concurrent is the production execution substrate: a live,
// goroutine-per-node runtime implementing sim.Transport. Compared to the
// deterministic engine in internal/psim it adds
//
//   - buffered mailbox channels with a loss-free overflow queue (the
//     paper's unbounded channels, but with a fast path that avoids a
//     mutex+slice round trip for the common case),
//   - real-time Timeout ticks with per-tick jitter, so node phases drift
//     like they do on real hardware instead of staying locked,
//   - a crash/restart fault injector (Injector) for churn testing: a
//     restarted node comes back with whatever state it had, which is
//     exactly the "arbitrary initial state" the protocol self-stabilizes
//     from,
//   - a graceful drain/quiesce barrier (Quiesce) that freezes the whole
//     system so convergence predicates can read a consistent cross-node
//     snapshot, then resumes.
//
// Protocol nodes implement sim.Handler against sim.Context and run here
// unchanged.
package concurrent

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sspubsub/internal/sim"
)

// Options configure a concurrent runtime.
type Options struct {
	// Interval is the real-time length of one timeout interval.
	// Default 10ms.
	Interval time.Duration
	// Jitter perturbs every tick by ±Jitter·Interval, drawn uniformly per
	// tick from the node's own random source. Must be in [0, 1).
	// Default 0.2.
	Jitter float64
	// Seed derives the per-node random sources. Live runs are not
	// deterministic (goroutine interleaving), but seeding keeps protocol
	// coin flips reproducible in aggregate.
	Seed int64
	// MailboxDepth is the capacity of each node's buffered mailbox channel;
	// traffic beyond it spills into an unbounded overflow queue, so no
	// message is ever lost. Default 256.
	MailboxDepth int
	// DetectorGrace is how long after a crash the failure detector keeps
	// answering "alive", modelling the eventually-correct detector of
	// Section 3.3. Default 2·Interval.
	DetectorGrace time.Duration
	// Redirect, when non-nil, is consulted on every Send after the
	// accounting step. Returning true means an external carrier (a network
	// transport) has taken the message and will re-enter it through Inject
	// once it arrives; returning false delivers locally as usual.
	Redirect func(m sim.Message) bool
	// ExtraPending, when non-nil, reports in-flight work held outside the
	// runtime (frames queued in a socket writer or sitting in the kernel).
	// Quiesce only declares the system drained once it returns zero.
	ExtraPending func() int64
}

// Runtime executes sim.Handlers live, one goroutine per node. It implements
// sim.Transport and sim.Detector.
type Runtime struct {
	opts  Options
	start time.Time

	mu      sync.RWMutex
	nodes   map[sim.NodeID]*node
	crashed map[sim.NodeID]time.Time
	seedC   int64
	closed  bool

	// pending counts messages enqueued but not yet fully handled; busy
	// counts handlers currently executing. paused suppresses Timeout
	// actions. Together they implement the quiesce barrier.
	pending   atomic.Int64
	busy      atomic.Int64
	paused    atomic.Bool
	quiesce   sync.Mutex  // serializes Quiesce callers
	inQuiesce atomic.Bool // true while a quiesce callback runs

	delivered atomic.Int64
	dropped   atomic.Int64
	// fault is the transport-layer fault filter (sim.FaultFunc); it is read
	// on every Send from arbitrary goroutines, hence the atomic holder.
	fault atomic.Pointer[sim.FaultFunc]
	// delayed counts messages held back by FaultDelay timers; Quiesce must
	// wait them out, exactly like frames an external carrier still holds.
	delayed atomic.Int64
	// delaySeq spreads FaultDelay hold times so two delayed messages from
	// the same burst come back in a different order than they left.
	delaySeq atomic.Int64
	// injects counts every mailbox entry attempt. Quiesce requires it to be
	// stable across a drain check: a carried frame can hop from ExtraPending
	// into pending between two counter reads, and the hop is only visible as
	// an inject.
	injects atomic.Int64

	acctMu sync.Mutex
	byType map[string]int64
	sentBy map[sim.NodeID]int64
	// recvBy counters are per-node atomics so the delivery hot path never
	// takes acctMu; the pointers are stable across Restart and survive
	// node removal so ReceivedBy stays queryable.
	recvBy map[sim.NodeID]*atomic.Int64

	wg sync.WaitGroup
}

type node struct {
	id sim.NodeID
	h  sim.Handler
	// owner is non-⊥ for listeners (AddListener): messages addressed to
	// this ID are routed into the owner's mailbox and handled by the
	// owner's handler on the owner's goroutine. Listeners have no
	// goroutine, mailbox, rng or stop channel of their own.
	owner sim.NodeID
	rng   *rand.Rand // used only from the node's own goroutine
	mbox  *mailbox
	recv  *atomic.Int64
	stop  chan struct{}
	rt    *Runtime
}

// NewRuntime creates a concurrent runtime with no nodes.
func NewRuntime(opts Options) *Runtime {
	if opts.Interval == 0 {
		opts.Interval = 10 * time.Millisecond
	}
	if opts.Jitter == 0 {
		opts.Jitter = 0.2
	}
	if opts.Jitter < 0 || opts.Jitter >= 1 {
		panic("concurrent: Jitter must be in [0, 1)")
	}
	if opts.MailboxDepth == 0 {
		opts.MailboxDepth = 256
	}
	if opts.DetectorGrace == 0 {
		opts.DetectorGrace = 2 * opts.Interval
	}
	return &Runtime{
		opts:    opts,
		start:   time.Now(),
		nodes:   make(map[sim.NodeID]*node),
		crashed: make(map[sim.NodeID]time.Time),
		seedC:   opts.Seed,
		byType:  make(map[string]int64),
		sentBy:  make(map[sim.NodeID]int64),
		recvBy:  make(map[sim.NodeID]*atomic.Int64),
	}
}

// AddNode registers a handler and starts its goroutine. Re-adding the ID of
// a crashed node is a restart: the detector stops suspecting it.
func (r *Runtime) AddNode(id sim.NodeID, h sim.Handler) {
	if id == sim.None {
		panic("concurrent: cannot add node with ID 0")
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	if _, dup := r.nodes[id]; dup {
		r.mu.Unlock()
		panic(fmt.Sprintf("concurrent: duplicate node %d", id))
	}
	r.seedC++
	n := &node{
		id:   id,
		h:    h,
		rng:  rand.New(rand.NewSource(r.seedC*0x9e3779b9 + int64(id))),
		mbox: newMailbox(r.opts.MailboxDepth),
		recv: r.recvCounter(id),
		stop: make(chan struct{}),
		rt:   r,
	}
	r.nodes[id] = n
	delete(r.crashed, id)
	r.mu.Unlock()

	r.wg.Add(1)
	go n.loop()
}

// AddListener registers id as a virtual alias of an existing owner node:
// messages addressed to id land in the owner's mailbox and are handled by
// the owner's handler on the owner's goroutine (Message.To still names id,
// so the owner can demultiplex). A listener costs one map entry — no
// goroutine, mailbox or timer — which is what lets one pool node host
// thousands of virtual subscribers. The owner is resolved per message, so
// traffic to a listener whose owner crashed is dropped, exactly like the
// deterministic engine's semantics.
func (r *Runtime) AddListener(id, owner sim.NodeID) {
	if id == sim.None {
		panic("concurrent: cannot add listener with ID 0")
	}
	if owner == sim.None {
		panic("concurrent: listener needs a non-⊥ owner")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	if _, dup := r.nodes[id]; dup {
		panic(fmt.Sprintf("concurrent: duplicate node %d", id))
	}
	r.nodes[id] = &node{id: id, owner: owner, recv: r.recvCounter(id), rt: r}
	delete(r.crashed, id)
}

// Restart is AddNode for a previously crashed node, typically with the
// Handler it crashed with — its stale state is an arbitrary initial state
// for the self-stabilization machinery to repair.
func (r *Runtime) Restart(id sim.NodeID, h sim.Handler) { r.AddNode(id, h) }

// RemoveNode gracefully deregisters a node: its goroutine stops and queued
// messages are discarded.
func (r *Runtime) RemoveNode(id sim.NodeID) { r.stopNode(id, false) }

// Crash fails a node without warning (Section 3.3). Unlike RemoveNode, the
// failure detector only starts suspecting it after DetectorGrace.
func (r *Runtime) Crash(id sim.NodeID) { r.stopNode(id, true) }

func (r *Runtime) stopNode(id sim.NodeID, crash bool) {
	r.mu.Lock()
	n, ok := r.nodes[id]
	if ok {
		delete(r.nodes, id)
		if crash {
			r.crashed[id] = time.Now()
		}
	}
	r.mu.Unlock()
	if ok && n.stop != nil { // listeners own no goroutine or mailbox
		close(n.stop)
		n.discard()
	}
}

// Crashed reports whether the node has crashed (and not been restarted).
func (r *Runtime) Crashed(id sim.NodeID) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.crashed[id]
	return ok
}

// Suspects implements sim.Detector: live nodes are never suspected,
// crashed nodes are suspected once DetectorGrace has elapsed, and unknown
// or removed nodes are suspected immediately.
func (r *Runtime) Suspects(id sim.NodeID) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if _, live := r.nodes[id]; live {
		return false
	}
	if t, ok := r.crashed[id]; ok {
		return time.Since(t) >= r.opts.DetectorGrace
	}
	return true
}

// Send routes a message to the target's mailbox. Sends to ⊥, crashed or
// unknown nodes are dropped, mirroring the paper's failure semantics.
func (r *Runtime) Send(m sim.Message) {
	if m.To == sim.None {
		r.dropped.Add(1)
		return
	}
	// Count every non-⊥ send — including ones that end up dropped — so the
	// per-sender and per-type accounting means the same thing it does on
	// the deterministic engine (which also counts at send time and
	// drops at delivery).
	r.acctMu.Lock()
	r.byType[sim.TypeName(m.Body)]++
	r.sentBy[m.From]++
	r.acctMu.Unlock()
	copies := 1
	if fp := r.fault.Load(); fp != nil {
		switch (*fp)(m) {
		case sim.FaultDrop:
			r.dropped.Add(1)
			return
		case sim.FaultDup:
			copies = 2
		case sim.FaultDelay:
			// Hold the message for 1–4 intervals, so traffic sent after it
			// arrives first. On expiry the message re-enters through the
			// normal routing (Redirect first, so a delayed message bound
			// for a remote peer still crosses the socket late instead of
			// being lost) but skips the fault filter — a filter returning
			// FaultDelay unconditionally must not defer forever. The
			// delayed counter keeps the held message visible to Quiesce;
			// re-entry raises pending/inflight before the counter drops, so
			// the token is never invisible.
			hold := r.opts.Interval * time.Duration(1+r.delaySeq.Add(1)%4)
			r.delayed.Add(1)
			time.AfterFunc(hold, func() {
				if r.opts.Redirect == nil || !r.opts.Redirect(m) {
					r.Inject(m)
				}
				r.delayed.Add(-1)
			})
			return
		}
	}
	for i := 0; i < copies; i++ {
		if r.opts.Redirect != nil && r.opts.Redirect(m) {
			continue
		}
		r.Inject(m)
	}
}

// SetFault installs (or clears, with nil) the transport-layer fault filter
// consulted on every Send after the accounting step. The filter runs on the
// sending goroutine and must be safe for concurrent use.
func (r *Runtime) SetFault(f sim.FaultFunc) {
	if f == nil {
		r.fault.Store(nil)
		return
	}
	r.fault.Store(&f)
}

// Inject delivers a message to a local mailbox, bypassing the Redirect
// hook and the send-side accounting: it is the re-entry point for messages
// a network transport carried over a socket (Send already counted them on
// the sending side). Messages to ⊥, crashed or unknown nodes are dropped.
func (r *Runtime) Inject(m sim.Message) {
	r.injects.Add(1)
	if m.To == sim.None {
		r.dropped.Add(1)
		return
	}
	r.mu.RLock()
	n, ok := r.nodes[m.To]
	if ok && n.owner != sim.None {
		// Listener: hand the message to the owning pool's mailbox. A missing
		// owner means the pool crashed, failing its listeners with it.
		n, ok = r.nodes[n.owner]
	}
	r.mu.RUnlock()
	if !ok {
		r.dropped.Add(1)
		return
	}
	// Raise pending before enqueueing so Quiesce can never observe the
	// message's gap between visibility and accounting.
	r.pending.Add(1)
	if !n.mbox.push(m) {
		r.pending.Add(-1)
		r.dropped.Add(1)
	}
}

// Close stops all node goroutines and waits for them to exit. Idempotent.
func (r *Runtime) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	nodes := make([]*node, 0, len(r.nodes))
	for _, n := range r.nodes {
		nodes = append(nodes, n)
	}
	r.nodes = make(map[sim.NodeID]*node)
	r.mu.Unlock()
	for _, n := range nodes {
		if n.stop != nil {
			close(n.stop)
			n.discard()
		}
	}
	r.wg.Wait()
}

// Quiesce freezes the system for a consistent cross-node snapshot: it
// suspends every node's Timeout action, waits until all mailboxes have
// drained and no handler is executing, runs f against the frozen system,
// then resumes. It returns false — without running f — if the system does
// not drain within timeout. The caller must not Send while f runs.
//
// A Quiesce issued from inside a quiesce callback (a convergence predicate
// composed of other quiescing predicates) runs f directly: the system is
// already frozen. Quiesce must only be called from one driver goroutine at
// a time plus its nested callbacks.
func (r *Runtime) Quiesce(timeout time.Duration, f func()) bool {
	if r.inQuiesce.Load() {
		f()
		return true
	}
	r.quiesce.Lock()
	defer r.quiesce.Unlock()
	r.paused.Store(true)
	defer r.paused.Store(false)
	deadline := time.Now().Add(timeout)
	for {
		// Order matters: busy is read before pending. A running message
		// handler keeps pending ≥ 1 until it returns, and once paused is
		// set no new Timeout handler can start, so busy == 0 followed by
		// pending == 0 implies the system is fully drained. ExtraPending
		// extends the barrier over messages an external carrier still
		// holds. A frame's only way from the carrier back into pending is
		// an Inject, so requiring the inject counter to be identical
		// before and after the three reads rules out a frame hopping
		// between counters mid-check: with no inject in the window, a
		// token observed absent from pending cannot reappear there, and
		// new tokens would need a running handler (busy/pending ≥ 1).
		// delayed plays the same role as ExtraPending for FaultDelay
		// holds: the timer callback Injects (raising pending) before it
		// decrements delayed, so a held message is never invisible to
		// this check.
		t0 := r.injects.Load()
		if r.busy.Load() == 0 && r.pending.Load() == 0 &&
			r.delayed.Load() == 0 &&
			(r.opts.ExtraPending == nil || r.opts.ExtraPending() == 0) &&
			r.injects.Load() == t0 {
			r.inQuiesce.Store(true)
			f()
			r.inQuiesce.Store(false)
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// Freeze implements sim.Stepper: f runs under the quiesce barrier, with
// 100 intervals for the system to drain.
func (r *Runtime) Freeze(f func()) bool { return r.Quiesce(100*r.opts.Interval, f) }

// RunRounds implements sim.Stepper: a round is one wall-clock interval.
func (r *Runtime) RunRounds(k int) { time.Sleep(time.Duration(k) * r.opts.Interval) }

var _ sim.Stepper = (*Runtime)(nil)

// Delivered returns the total number of messages handled by nodes.
func (r *Runtime) Delivered() int64 { return r.delivered.Load() }

// Dropped returns messages dropped (sent to ⊥, crashed, removed or unknown
// nodes, or discarded when their target stopped).
func (r *Runtime) Dropped() int64 { return r.dropped.Load() }

// CountByType returns the number of sends per message body type name.
func (r *Runtime) CountByType(typeName string) int64 {
	r.acctMu.Lock()
	defer r.acctMu.Unlock()
	return r.byType[typeName]
}

// SentBy returns the number of messages node id has sent so far.
func (r *Runtime) SentBy(id sim.NodeID) int64 {
	r.acctMu.Lock()
	defer r.acctMu.Unlock()
	return r.sentBy[id]
}

// recvCounter returns the stable per-node receive counter, creating it on
// first use.
func (r *Runtime) recvCounter(id sim.NodeID) *atomic.Int64 {
	r.acctMu.Lock()
	defer r.acctMu.Unlock()
	c, ok := r.recvBy[id]
	if !ok {
		c = new(atomic.Int64)
		r.recvBy[id] = c
	}
	return c
}

// ReceivedBy returns the number of messages delivered to node id so far.
func (r *Runtime) ReceivedBy(id sim.NodeID) int64 {
	r.acctMu.Lock()
	defer r.acctMu.Unlock()
	if c, ok := r.recvBy[id]; ok {
		return c.Load()
	}
	return 0
}

// ResetCounters zeroes the message accounting.
func (r *Runtime) ResetCounters() {
	r.acctMu.Lock()
	r.byType = make(map[string]int64)
	r.sentBy = make(map[sim.NodeID]int64)
	// Zero in place: live nodes hold pointers to these counters.
	for _, c := range r.recvBy {
		c.Store(0)
	}
	r.acctMu.Unlock()
	r.delivered.Store(0)
	r.dropped.Store(0)
}

// Now returns wall-clock time since the runtime started, in timeout
// intervals.
func (r *Runtime) Now() float64 {
	return float64(time.Since(r.start)) / float64(r.opts.Interval)
}

// Interval returns the configured timeout interval.
func (r *Runtime) Interval() time.Duration { return r.opts.Interval }

// NodeIDs returns the IDs of all live registered nodes, sorted.
func (r *Runtime) NodeIDs() []sim.NodeID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]sim.NodeID, 0, len(r.nodes))
	for id := range r.nodes {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Handler returns the handler registered under id, or nil. For a listener
// it resolves the owning pool's handler.
func (r *Runtime) Handler(id sim.NodeID) sim.Handler {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n, ok := r.nodes[id]
	if !ok {
		return nil
	}
	if n.owner != sim.None {
		if o, up := r.nodes[n.owner]; up {
			return o.h
		}
		return nil
	}
	return n.h
}

var _ sim.Transport = (*Runtime)(nil)

// loop is the node goroutine: it interleaves jittered Timeout ticks with
// mailbox deliveries until stopped.
func (n *node) loop() {
	defer n.rt.wg.Done()
	interval := n.rt.opts.Interval
	// Random phase spreads node timeouts across the interval.
	timer := time.NewTimer(time.Duration(n.rng.Int63n(int64(interval))))
	defer timer.Stop()
	ctx := &nodeCtx{n: n}
	for {
		select {
		case <-n.stop:
			return
		case m := <-n.mbox.ch:
			n.deliver(ctx, m)
			n.drainOverflow(ctx)
		case <-timer.C:
			// A crash may have raced the timer: never run a spontaneous
			// action after Crash() returned (Section 3.3, "stops executing
			// actions"). deliver makes the same check per message.
			select {
			case <-n.stop:
				return
			default:
			}
			// Overflow can only be non-empty while the channel is (or was
			// momentarily) full, but drain it here too so a tick never
			// races a spilled message.
			n.drainOverflow(ctx)
			// busy is raised before paused is checked; with sequentially
			// consistent atomics this closes the window in which Quiesce
			// could observe an idle system while a tick slips through.
			n.rt.busy.Add(1)
			if !n.rt.paused.Load() {
				n.h.OnTimeout(ctx)
			}
			n.rt.busy.Add(-1)
			timer.Reset(n.nextTick(interval))
		}
	}
}

// nextTick draws the next tick delay: Interval perturbed by ±Jitter.
func (n *node) nextTick(interval time.Duration) time.Duration {
	j := n.rt.opts.Jitter
	scale := 1 + j*(2*n.rng.Float64()-1)
	return time.Duration(float64(interval) * scale)
}

// drainOverflow delivers the messages that were spilled at the moment the
// drain starts. Bounding the drain by the observed length (rather than
// popping until empty) keeps a sustained overload from starving the
// channel tier and the Timeout action, matching the snapshot semantics of
// the slice-based queue this replaced.
func (n *node) drainOverflow(ctx *nodeCtx) {
	for left := n.mbox.overflowLen(); left > 0; left-- {
		om, ok := n.mbox.popOverflow()
		if !ok {
			return
		}
		n.deliver(ctx, om)
	}
}

func (n *node) deliver(ctx *nodeCtx, m sim.Message) {
	select {
	case <-n.stop:
		// Crashed between enqueue and handling: the message vanishes.
		n.rt.pending.Add(-1)
		n.rt.dropped.Add(1)
		return
	default:
	}
	n.rt.busy.Add(1)
	n.h.OnMessage(ctx, m)
	n.rt.busy.Add(-1)
	n.rt.delivered.Add(1)
	n.recv.Add(1)
	n.rt.pending.Add(-1)
}

// discard empties the mailbox of a stopped node, keeping the pending
// counter exact. It races benignly with the node goroutine's final pops:
// every message is taken by exactly one side.
func (n *node) discard() {
	dropped := n.mbox.close()
	for {
		select {
		case <-n.mbox.ch:
			dropped++
		default:
			n.rt.pending.Add(int64(-dropped))
			n.rt.dropped.Add(int64(dropped))
			return
		}
	}
}

// nodeCtx implements sim.Context for a node; it is only used from the
// node's own goroutine.
type nodeCtx struct {
	n *node
}

func (c *nodeCtx) Self() sim.NodeID { return c.n.id }
func (c *nodeCtx) Send(to sim.NodeID, topic sim.Topic, body any) {
	c.n.rt.Send(sim.Message{To: to, From: c.n.id, Topic: topic, Body: body})
}
func (c *nodeCtx) Rand() *rand.Rand { return c.n.rng }
func (c *nodeCtx) Now() float64     { return c.n.rt.Now() }
