// Package concurrent is the production execution substrate: a live,
// goroutine-per-node runtime implementing sim.Transport. Compared to the
// deterministic engine in internal/psim it adds
//
//   - loss-free mailboxes (the paper's unbounded channels): senders append
//     to a node's pending batch under its lock, and the node goroutine
//     swaps the whole batch out and delivers it in order,
//   - real-time Timeout ticks with ±20 % per-tick jitter, so node phases
//     drift like they do on real hardware instead of staying locked; a
//     tick that falls due mid-batch runs between two deliveries, so a
//     mailbox that never empties cannot starve it,
//   - crash and restart: a node re-added under a crashed ID comes back
//     with whatever state its handler held, which is exactly the
//     "arbitrary initial state" the protocol self-stabilizes from,
//   - a graceful drain/quiesce barrier (Quiesce) that freezes the whole
//     system so convergence predicates can read a consistent cross-node
//     snapshot, then resumes,
//   - send accounting with no runtime-wide lock on the send path: every
//     node counts its own sends in a tally on its own struct, and only
//     senders that are not live nodes share the runtime's "off" tally.
//
// Protocol nodes implement sim.Handler against sim.Context and run here
// unchanged.
package concurrent

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"sspubsub/internal/sim"
)

// jitter perturbs every tick by ±jitter·Interval, drawn uniformly per tick
// from the node's own random source.
const jitter = 0.2

// graceIntervals is how many intervals after a crash the failure detector
// keeps answering "alive", modelling the eventually-correct detector of
// Section 3.3.
const graceIntervals = 2

// Options configure a concurrent runtime.
type Options struct {
	// Interval is the real-time length of one timeout interval.
	// Default 10ms.
	Interval time.Duration
	// Seed derives the per-node random sources. Live runs are not
	// deterministic (goroutine interleaving), but seeding keeps protocol
	// coin flips reproducible in aggregate.
	Seed int64
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
//
// Every non-⊥ send is counted by sender and by body type. A live node
// counts into its own tally, whose lock only its goroutine takes on the
// hot path (the driver takes it for external sends under that ID and for
// reads). Everything else counts into the off tally under acctMu: external
// sends from IDs that are not live nodes, the tallies of stopped nodes
// (folded in when they stop), and sends a handler makes after Crash
// returned — stopping a node marks its tally gone, and a gone tally
// forwards to the off tally. Readers hold mu, so no tally is folded while
// they sum, and counts stay exact across crash and restart.
type Runtime struct {
	// opts, start and fault are read from every node goroutine (every send
	// reads opts and fault) and written only at construction or by
	// SetFault, so they fill the struct's first 64 bytes by themselves:
	// the struct is 256 bytes, allocated from the 256-byte size class, so
	// that is one cache line, and no counter write below invalidates it.
	opts  Options
	start time.Time
	// fault is the transport-layer fault filter (sim.FaultFunc); it is read
	// on every Send from arbitrary goroutines, hence the atomic holder.
	fault atomic.Pointer[sim.FaultFunc]
	// rng is the driver's random source (Rand), apart from every node's.
	rng *rand.Rand

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

	acctMu  sync.Mutex
	offType sim.TypeTally
	offSent map[sim.NodeID]int64

	wg sync.WaitGroup
}

type node struct {
	id   sim.NodeID
	h    sim.Handler
	rng  *rand.Rand // used only from the node's own goroutine
	mbox *mailbox
	stop chan struct{}
	rt   *Runtime
	acct tally
}

// tally is one node's send accounting.
type tally struct {
	mu    sync.Mutex
	gone  bool // folded into the off tally; later sends count there
	sent  int64
	types sim.TypeTally
}

// NewRuntime creates a concurrent runtime with no nodes.
func NewRuntime(opts Options) *Runtime {
	if opts.Interval == 0 {
		opts.Interval = 10 * time.Millisecond
	}
	return &Runtime{
		opts:    opts,
		start:   time.Now(),
		nodes:   make(map[sim.NodeID]*node),
		crashed: make(map[sim.NodeID]time.Time),
		seedC:   opts.Seed,
		rng:     rand.New(rand.NewSource(int64(sim.SplitMix64(uint64(opts.Seed))))),
		offSent: make(map[sim.NodeID]int64),
	}
}

// AddNode registers a handler and starts its goroutine. Re-adding the ID of
// a crashed node is a restart, typically with the handler it crashed with —
// its stale state is an arbitrary initial state for the self-stabilization
// machinery to repair — and the detector stops suspecting it.
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
		mbox: newMailbox(),
		stop: make(chan struct{}),
		rt:   r,
	}
	r.nodes[id] = n
	delete(r.crashed, id)
	r.mu.Unlock()

	r.wg.Add(1)
	go n.loop()
}

// RemoveNode gracefully deregisters a node: its goroutine stops and queued
// messages are discarded.
func (r *Runtime) RemoveNode(id sim.NodeID) { r.stopNode(id, false) }

// Crash fails a node without warning (Section 3.3). Unlike RemoveNode, the
// failure detector only starts suspecting it after two intervals.
func (r *Runtime) Crash(id sim.NodeID) { r.stopNode(id, true) }

func (r *Runtime) stopNode(id sim.NodeID, crash bool) {
	r.mu.Lock()
	n, ok := r.nodes[id]
	if ok {
		delete(r.nodes, id)
		if crash {
			r.crashed[id] = time.Now()
		}
		r.retire(n)
	}
	r.mu.Unlock()
	if ok {
		close(n.stop)
		n.discard()
	}
}

// retire folds a stopped node's tally into the off tally and marks it gone,
// so sends its handler still makes count there. The caller holds mu.
func (r *Runtime) retire(n *node) {
	n.acct.mu.Lock()
	n.acct.gone = true
	r.acctMu.Lock()
	r.offSent[n.id] += n.acct.sent
	r.offType.Merge(&n.acct.types)
	r.acctMu.Unlock()
	n.acct.mu.Unlock()
}

// Crashed reports whether the node has crashed (and not been restarted).
func (r *Runtime) Crashed(id sim.NodeID) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.crashed[id]
	return ok
}

// Suspects implements sim.Detector: live nodes are never suspected,
// crashed nodes are suspected once two intervals have elapsed, and unknown
// or removed nodes are suspected immediately.
func (r *Runtime) Suspects(id sim.NodeID) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if _, live := r.nodes[id]; live {
		return false
	}
	if t, ok := r.crashed[id]; ok {
		return time.Since(t) >= graceIntervals*r.opts.Interval
	}
	return true
}

// Send routes a message to the target's mailbox. Sends to ⊥, crashed or
// unknown nodes are dropped, mirroring the paper's failure semantics. This
// is the driver's entry point; it counts under m.From's tally when that is a
// live node.
func (r *Runtime) Send(m sim.Message) {
	r.mu.RLock()
	n := r.nodes[m.From]
	r.mu.RUnlock()
	r.send(n, m)
}

// send routes m, counting it under from's tally (nil: the off tally).
func (r *Runtime) send(from *node, m sim.Message) {
	if m.To == sim.None {
		r.dropped.Add(1)
		return
	}
	// Count every non-⊥ send — including ones that end up dropped — so the
	// per-sender and per-type accounting means the same thing it does on
	// the deterministic engine (which also counts at send time and
	// drops at delivery).
	r.count(from, m)
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

// count adds m to from's tally, or to the off tally when from is nil or
// gone.
func (r *Runtime) count(from *node, m sim.Message) {
	if from != nil {
		a := &from.acct
		a.mu.Lock()
		if !a.gone {
			a.sent++
			a.types.Add(m.Body)
			a.mu.Unlock()
			return
		}
		a.mu.Unlock()
	}
	r.acctMu.Lock()
	r.offSent[m.From]++
	r.offType.Add(m.Body)
	r.acctMu.Unlock()
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
		r.retire(n)
		nodes = append(nodes, n)
	}
	r.nodes = make(map[sim.NodeID]*node)
	r.mu.Unlock()
	for _, n := range nodes {
		close(n.stop)
		n.discard()
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

// CountByType returns the number of sends per message body type name: the
// off tally plus every live node's.
func (r *Runtime) CountByType(typeName string) int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	r.acctMu.Lock()
	c := r.offType.Count(typeName)
	r.acctMu.Unlock()
	for _, n := range r.nodes {
		n.acct.mu.Lock()
		c += n.acct.types.Count(typeName)
		n.acct.mu.Unlock()
	}
	return c
}

// SentBy returns the number of messages node id has sent so far,
// including sends of its earlier incarnations.
func (r *Runtime) SentBy(id sim.NodeID) int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	r.acctMu.Lock()
	c := r.offSent[id]
	r.acctMu.Unlock()
	if n, ok := r.nodes[id]; ok {
		n.acct.mu.Lock()
		c += n.acct.sent
		n.acct.mu.Unlock()
	}
	return c
}

// ResetCounters zeroes the message accounting: the off tally, every live
// node's tally, and the delivered and dropped counts.
func (r *Runtime) ResetCounters() {
	r.mu.RLock()
	r.acctMu.Lock()
	r.offType.Reset()
	clear(r.offSent)
	r.acctMu.Unlock()
	for _, n := range r.nodes {
		n.acct.mu.Lock()
		n.acct.sent = 0
		n.acct.types.Reset()
		n.acct.mu.Unlock()
	}
	r.mu.RUnlock()
	r.delivered.Store(0)
	r.dropped.Store(0)
}

// Rand returns the driver's random source, for workload generation and the
// corruption injectors: seeded from Options.Seed, separate from the
// per-node sources, and, like every driver method, for one goroutine only.
func (r *Runtime) Rand() *rand.Rand { return r.rng }

// Now returns wall-clock time since the runtime started, in timeout
// intervals.
func (r *Runtime) Now() float64 {
	return float64(time.Since(r.start)) / float64(r.opts.Interval)
}

var _ sim.Transport = (*Runtime)(nil)

// loop is the node goroutine: it interleaves jittered Timeout ticks with
// mailbox deliveries until stopped.
func (n *node) loop() {
	defer n.rt.wg.Done()
	// Random phase spreads node timeouts across the interval.
	phase := time.Duration(n.rng.Int63n(int64(n.rt.opts.Interval)))
	due := time.Now().Add(phase)
	timer := time.NewTimer(phase)
	defer timer.Stop()
	ctx := &nodeCtx{n: n}
	var batch []sim.Message
	for {
		select {
		case <-n.stop:
			return
		case <-n.mbox.wake:
			// Swap until a swap comes back empty: what queued while one
			// batch was being delivered leaves with the next.
			for batch = n.mbox.swap(batch); len(batch) > 0; batch = n.mbox.swap(batch) {
				for i := range batch {
					n.deliver(ctx, batch[i])
					// Under sustained load every batch is larger than the
					// last, so a tick checked only between batches starves.
					select {
					case <-timer.C:
						n.tick(ctx, timer, &due)
					default:
					}
				}
			}
		case <-timer.C:
			n.tick(ctx, timer, &due)
		}
	}
}

// tick runs the Timeout action and re-arms the timer with the next jittered
// delay, counted from the tick's due time rather than from when it ran, so
// lateness does not pile up; a tick more than one interval late skips the
// ticks it missed, keeping its phase, instead of running them in a burst.
// A crash may have raced the timer: no spontaneous action runs after
// Crash() returned (Section 3.3, "stops executing actions"); deliver makes
// the same check per message.
func (n *node) tick(ctx *nodeCtx, timer *time.Timer, due *time.Time) {
	select {
	case <-n.stop:
		return
	default:
	}
	// busy is raised before paused is checked; with sequentially
	// consistent atomics this closes the window in which Quiesce could
	// observe an idle system while a tick slips through.
	n.rt.busy.Add(1)
	if !n.rt.paused.Load() {
		n.h.OnTimeout(ctx)
	}
	n.rt.busy.Add(-1)
	scale := 1 + jitter*(2*n.rng.Float64()-1)
	iv, now := n.rt.opts.Interval, time.Now()
	late := now.Sub(*due) > iv
	*due = due.Add(time.Duration(float64(iv) * scale))
	if behind := now.Sub(*due); late && behind >= 0 {
		*due = due.Add((behind/iv + 1) * iv) // the first tick still ahead, in phase
	}
	timer.Reset(due.Sub(now))
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
	n.rt.pending.Add(-1)
}

// discard empties the mailbox of a stopped node, keeping the pending
// counter exact. A batch the node goroutine already swapped out is dropped
// there, message by message, so every message is counted by exactly one
// side.
func (n *node) discard() {
	k := int64(n.mbox.close())
	n.rt.pending.Add(-k)
	n.rt.dropped.Add(k)
}

// nodeCtx implements sim.Context for a node; it is only used from the
// node's own goroutine.
type nodeCtx struct {
	n *node
}

func (c *nodeCtx) Self() sim.NodeID { return c.n.id }
func (c *nodeCtx) Send(to sim.NodeID, topic sim.Topic, body any) {
	c.n.rt.send(c.n, sim.Message{To: to, From: c.n.id, Topic: topic, Body: body})
}
func (c *nodeCtx) Rand() *rand.Rand { return c.n.rng }
func (c *nodeCtx) Now() float64     { return c.n.rt.Now() }
