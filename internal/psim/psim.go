package psim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"sspubsub/internal/sim"
)

// A message's delay is drawn from [minDelay, maxDelay) timeout intervals;
// minDelay is the lookahead (see the package doc). Typed, so
// maxDelay-minDelay rounds as a float64 subtraction: untyped, it would
// fold exactly and move every drawn delay by one ulp. A crashed node is
// suspected from the first window boundary detectorGrace after its crash.
// Nodes are partitioned into numLanes deterministic shards by hash of
// NodeID; the lane count is part of the schedule, so it is a constant.
const (
	minDelay      float64 = 0.05
	maxDelay      float64 = 0.95
	detectorGrace float64 = 2
	numLanes              = 16
)

// Options configure a parallel deterministic simulation.
//
// The schedule identity is the Seed: two runs with equal seeds
// execute bit-identical event sequences — same deliveries, same timeouts,
// same random draws — regardless of Workers. Workers only chooses how many
// OS threads execute the schedule; it may change wall-clock time and
// nothing else.
type Options struct {
	// Seed drives all randomness. Each lane derives its own stream from
	// (Seed, lane), so the sequence a handler observes depends only on the
	// schedule identity, never on physical parallelism.
	Seed int64
	// Workers is the number of goroutines executing lanes inside each
	// lookahead window. It is NOT part of the schedule identity: any value
	// produces bit-identical results. Workers == 1 executes the whole
	// schedule serially on the calling goroutine (no goroutines are
	// spawned — the serial engine). Default min(GOMAXPROCS, 16), 16 being
	// the lane count; clamped to [1, 16].
	Workers int
}

// Engine is a conservative parallel discrete-event executor for
// sim.Handlers: the repository's one deterministic engine. It implements
// sim.Transport and sim.Stepper (and the scale harness' listener seam); the
// package documentation describes its model, its determinism contract and
// which operations are barrier operations.
//
// Registered nodes live in a node table indexed by NodeID (the package
// documentation's "Node table"). AddNode and AddListener panic on an ID
// outside [1, maxNodeID), so every registered node is in the table; a
// message to an unregistered ID, however large, is dropped and counted at
// delivery.
type Engine struct {
	opts    Options
	lanes   []*lane
	nodes   []pnode // the node table: nodes[id] is registered under id if its gen is not 0
	regs    uint32  // registrations so far: the generation the last one got
	crashed map[sim.NodeID]float64
	now     float64       // barrier time: start of the executing window
	target  float64       // the RunUntil target of the executing window
	floor   int64         // lowest cell to file into: the next window's inside a window
	fault   sim.FaultFunc // SetFault's filter, shared by every lane

	// The cross-lane handoff (see the package documentation's "Model"): a
	// window's sends across lanes go to the outboxes of parity wpar; the
	// barrier flips it, and the sends become the inbound set, which each
	// destination lane files at the start of its next window slice. inMin,
	// inMask (a bit per destination lane) and inN summarise the inbound
	// set for window selection; inFloor is its sending window's floor.
	wpar    int
	inMin   float64
	inMask  uint32
	inN     int
	inFloor int64

	// extRNG is the driver's stream: harness injections whose From is not a
	// registered node draw their delays from it, and Rand hands it to
	// workload generators and corruption helpers, so driver-side randomness
	// cannot perturb any lane's sequence.
	extRNG *rand.Rand
	extSeq int64

	// sentOff counts the sends of IDs that are not registered: departed
	// nodes fold their counters into it, external injections count here.
	sentOff map[sim.NodeID]int64

	running   atomic.Bool // true while a window executes: guards the barrier-only API
	highWater int         // most events queued at any window barrier

	// The lanes with events in the executing window, and the helper
	// goroutines (started on the first window with two busy lanes when
	// Workers > 1) that take them from one queue with the driver. The
	// window barrier is described at runBusy.
	busy    []*lane
	claim   atomic.Int32
	pending atomic.Int32 // helpers still working in the executing window
	helpers []*waiter    // one per helper goroutine: raised to run a window or to exit
	driver  waiter       // raised by the helper that finishes a window last
	spin    bool         // a core for every worker: waiters spin before they park
	exited  sync.WaitGroup
	closed  bool
}

// spinBudget is how long a waiter at the window barrier spins before it
// parks. It covers the driver's serial work between two windows (folding
// the lanes' outbound summaries, choosing the next cell, a solo lane's
// window) and a round barrier's predicate: at n = 2,048 in pools of 32
// more than 99 % of the barrier's waits end inside it, so a helper parks
// mostly when the engine goes idle between Run* calls.
const spinBudget = 200 * time.Microsecond

// waiter is one side of the window barrier waiting for the other to raise
// it. A parked waiter sleeps on a one-token channel; raise sends the token
// only after taking the parked flag back, and a waiter that finds itself
// raised while parking takes the flag back itself, so a token is never
// lost and never left over.
type waiter struct {
	up     atomic.Bool
	parked atomic.Bool
	token  chan struct{}
}

// wait returns once the waiter has been raised, and lowers it again. With
// spin it polls for up to spinBudget first.
func (w *waiter) wait(spin bool) {
	if spin {
		for i, t0 := 0, time.Now(); !w.up.Load(); i++ {
			if i%64 == 63 && time.Since(t0) > spinBudget {
				break
			}
		}
	}
	for !w.up.Load() {
		w.parked.Store(true)
		if w.up.Load() && w.parked.CompareAndSwap(true, false) {
			break
		}
		<-w.token // a raise took the flag: its token is on the way
	}
	w.up.Store(false)
}

// raise wakes the waiter, spinning or parked.
func (w *waiter) raise() {
	w.up.Store(true)
	if w.parked.Load() && w.parked.CompareAndSwap(true, false) {
		w.token <- struct{}{}
	}
}

// pnode is a node table entry. gen is its registration's generation, 0
// while no node is registered under the entry's ID; a timeout carries the
// generation its chain was started under, so the chain of an earlier
// incarnation ends at its next timeout.
type pnode struct {
	h    sim.Handler
	own  sim.NodeID // listeners only: the owner pool node's ID
	next float64    // next timeout (full nodes only)
	sent int64      // sends while registered (SentBy)
	gen  uint32
	lane int16 // executing lane (a listener's is its owner's)
}

const (
	evDeliver uint8 = iota
	evTimeout
)

// extLane is the srcLane stamp of events injected from outside any lane
// (harness sends with an unregistered From). It orders such events
// before every lane's at equal times; any fixed rule would do.
const extLane int16 = -1

// pevent is a queued event: a delivery of msg, or a timeout of the node
// msg.To whose chain runs under generation gen. 64 bytes, one cache line.
type pevent struct {
	t       float64
	srcSeq  int64
	srcLane int16
	kind    uint8
	gen     uint32
	msg     sim.Message
}

// ekey is an event's order key and its index in its bucket: what a window
// sorts, so a sort step moves 24 bytes instead of a whole event.
type ekey struct {
	t       float64
	srcSeq  int64
	srcLane int16
	slot    int32
}

// before totally orders events: by time, then by origin lane, then by the
// origin's per-lane sequence number. All three components are fixed when
// the event is created by its (deterministically scheduled) origin, so the
// order is independent of which worker executes what — and, being total,
// any correct sort gives one sequence.
func (k ekey) before(o ekey) bool {
	if k.t != o.t {
		return k.t < o.t
	}
	if k.srcLane != o.srcLane {
		return k.srcLane < o.srcLane
	}
	return k.srcSeq < o.srcSeq
}

// sortKeys sorts ks by before: quicksort around the middle key, recursing
// into the smaller side, then insertion sort for short runs. Written out so
// that before inlines.
func sortKeys(ks []ekey) {
	for len(ks) > 12 {
		m := len(ks) / 2
		ks[0], ks[m] = ks[m], ks[0]
		p, j := ks[0], 0
		for i := 1; i < len(ks); i++ {
			if ks[i].before(p) {
				j++
				ks[i], ks[j] = ks[j], ks[i]
			}
		}
		ks[0], ks[j] = ks[j], ks[0]
		if j < len(ks)-j {
			sortKeys(ks[:j])
			ks = ks[j+1:]
		} else {
			sortKeys(ks[j+1:])
			ks = ks[:j]
		}
	}
	for i := 1; i < len(ks); i++ {
		k, j := ks[i], i
		for ; j > 0 && k.before(ks[j-1]); j-- {
			ks[j] = ks[j-1]
		}
		ks[j] = k
	}
}

// bucket holds one W-grid cell's events of a lane, in filing order, and
// the earliest of their times (which chooses the window's start).
type bucket struct {
	ev   []pevent
	minT float64
}

// lane is one deterministic shard: a calendar (see the package
// documentation), a random stream, per-destination outboxes and the
// accounting for the nodes it executes. All lane state is touched only by
// the single worker executing the lane's window slice (or by the driver at
// a barrier), so none of it is locked; the one exception is the inbound
// parity of its outboxes, whose entry for lane d only lane d's window
// touches (Engine.handoff). Cell c's bucket is
// cal[c & (len(cal)-1)]; every queued cell lies in [lo, hi], and
// hi-lo < len(cal), so no two queued cells share a bucket.
type lane struct {
	e   *Engine
	idx int16
	rng *rand.Rand

	cal    []bucket
	lo, hi int64    // bounds on the queued events' cells
	queued int      // events in the calendar
	keys   []ekey   // the executing window's order (scratch)
	spare  []pevent // settle's scratch
	seq    int64
	now    float64 // time of the executing event
	ctx    laneCtx

	// outbox holds cross-lane sends by window parity and destination lane;
	// outMin, outMask and outN summarise the executing window's.
	outbox  [2][numLanes][]pevent
	outMin  float64
	outMask uint32
	outN    int

	inFlight  int
	delivered int64
	dropped   int64
	// types counts sends by the body's dynamic type; names are resolved
	// only when read (CountByType, TypeNames).
	types sim.TypeTally
}

// cellOf is the W-grid cell RunUntil chooses for a window whose earliest
// event is at t, computed with RunUntil's expression.
func (e *Engine) cellOf(t float64) int64 {
	q := math.Floor(t / minDelay)
	if float64(q*minDelay) > t {
		q--
	}
	return int64(q)
}

// file queues ev in its cell's bucket. Inside a window the lookahead puts
// every new event in a later cell; the floor keeps a time one rounding
// step short of the boundary out of the bucket that is executing.
func (l *lane) file(ev pevent) { l.fileAt(ev, l.e.floor) }

// fileAt queues ev in its cell's bucket, no lower than cell floor.
func (l *lane) fileAt(ev pevent, floor int64) {
	c := max(l.e.cellOf(ev.t), floor)
	lo, hi := c, c
	if l.queued > 0 {
		lo, hi = min(l.lo, c), max(l.hi, c)
	}
	for hi-lo >= int64(len(l.cal)) {
		l.grow()
	}
	l.lo, l.hi = lo, hi
	b := &l.cal[c&int64(len(l.cal)-1)]
	if len(b.ev) == 0 || ev.t < b.minT {
		b.minT = ev.t
	}
	b.ev = append(b.ev, ev)
	l.queued++
	if ev.kind == evDeliver {
		l.inFlight++
	}
}

// grow doubles the ring, moving each bucket (and its capacity) to its
// cell's slot in the larger ring.
func (l *lane) grow() {
	old := l.cal
	n := int64(len(old))
	l.cal = make([]bucket, 2*n)
	for c := l.lo; c < l.lo+n; c++ {
		l.cal[c&(2*n-1)] = old[c&(n-1)]
	}
}

// first returns the earliest cell holding a queued event.
func (l *lane) first() (int64, bool) {
	for l.queued > 0 && len(l.cal[l.lo&int64(len(l.cal)-1)].ev) == 0 {
		l.lo++
	}
	return l.lo, l.queued > 0
}

// order sorts the keys of a bucket's events into the lane's scratch.
func (l *lane) order(evs []pevent) []ekey {
	keys := l.keys[:0]
	for i := range evs {
		keys = append(keys, ekey{t: evs[i].t, srcSeq: evs[i].srcSeq, srcLane: evs[i].srcLane, slot: int32(i)})
	}
	sortKeys(keys)
	l.keys = keys
	return keys
}

// settle empties cell k's bucket after its window ran, keeping the events
// a target cut left behind (rest, in key order) at its front, and releases
// the bodies of the events that ran.
func (l *lane) settle(k int64, evs []pevent, rest []ekey) {
	b := &l.cal[k&int64(len(l.cal)-1)]
	l.queued -= len(evs) - len(rest)
	kept := l.spare[:0]
	for _, key := range rest {
		kept = append(kept, evs[key.slot])
	}
	n := copy(evs, kept)
	clear(evs[n:])
	clear(kept)
	l.spare, b.ev = kept[:0], evs[:n]
	if n > 0 {
		b.minT = evs[0].t
	}
}

// New creates an empty parallel deterministic simulation.
func New(opts Options) *Engine {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	opts.Workers = min(opts.Workers, numLanes)
	e := &Engine{
		opts:    opts,
		crashed: make(map[sim.NodeID]float64),
		floor:   math.MinInt64,
		inMin:   math.Inf(1),
		extRNG:  rand.New(rand.NewSource(int64(sim.SplitMix64(uint64(opts.Seed) ^ 0xe7f3a9c1)))),
		sentOff: make(map[sim.NodeID]int64),
	}
	e.lanes = make([]*lane, numLanes)
	for i := range e.lanes {
		l := &lane{
			e:      e,
			idx:    int16(i),
			rng:    rand.New(rand.NewSource(int64(sim.SplitMix64(uint64(opts.Seed) + uint64(i)*0x9e3779b97f4a7c15)))),
			cal:    make([]bucket, 1),
			outMin: math.Inf(1),
		}
		l.ctx.l = l
		e.lanes[i] = l
	}
	return e
}

// laneOf is the deterministic NodeID → lane partition.
func (e *Engine) laneOf(id sim.NodeID) int16 {
	return int16(sim.SplitMix64(uint64(id)) % uint64(len(e.lanes)))
}

// phaseOf derives a node's timeout phase in [0, 1) from (Seed, NodeID) —
// pure, so registration order never shifts any random stream.
func (e *Engine) phaseOf(id sim.NodeID) float64 {
	u := sim.SplitMix64(uint64(e.opts.Seed)*0x2545f4914f6cdd1d ^ sim.SplitMix64(uint64(id)))
	return float64(float64(u>>11) / (1 << 53))
}

// maxNodeID bounds the node table (see Engine): 4,194,304 IDs, four times
// what a 10^6-subscriber scale run registers, at 48 bytes an entry.
const maxNodeID = 1 << 22

// node returns the node registered under id, or nil. Any ID may be asked
// for; one beyond the table is not registered. The pointer is into the
// table, which may grow at a barrier: it must not be held across one.
func (e *Engine) node(id sim.NodeID) *pnode {
	if uint64(id) < uint64(len(e.nodes)) && e.nodes[id].gen != 0 {
		return &e.nodes[id]
	}
	return nil
}

// register enters n in the node table under id with a new generation,
// which it returns, growing the table to reach id. It refuses an ID
// outside the table's range and one that is registered already.
func (e *Engine) register(id sim.NodeID, n pnode) uint32 {
	if id <= sim.None || id >= maxNodeID {
		panic(fmt.Sprintf("psim: node ID %d outside the node table [1, %d)", id, maxNodeID))
	}
	if e.node(id) != nil {
		panic(fmt.Sprintf("psim: duplicate node %d", id))
	}
	if grow := int(id) + 1 - len(e.nodes); grow > 0 {
		e.nodes = append(e.nodes, make([]pnode, grow)...)
	}
	e.regs++
	n.gen = e.regs
	e.nodes[id] = n
	delete(e.crashed, id) // re-adding a crashed ID is a restart
	return n.gen
}

func (e *Engine) assertBarrier(op string) {
	if e.running.Load() {
		panic("psim: " + op + " is a barrier operation; it must not be called from inside a handler")
	}
}

// AddNode registers a handler under the given ID on its hash lane and
// schedules its periodic Timeout action at a (seed, id)-deterministic phase
// within the current interval. The ID must lie in the node table's range
// (see Engine). Barrier operation.
func (e *Engine) AddNode(id sim.NodeID, h sim.Handler) {
	e.assertBarrier("AddNode")
	l := e.lanes[e.laneOf(id)]
	next := e.now + e.phaseOf(id)
	gen := e.register(id, pnode{h: h, lane: l.idx, next: next})
	l.file(pevent{t: next, kind: evTimeout, gen: gen, msg: sim.Message{To: id}, srcLane: l.idx, srcSeq: l.seq})
	l.seq++
}

// AddListener registers id as a virtual alias of an existing owner node:
// messages addressed to id are handled by the owner's handler (with
// Message.To still naming id), and id owns no periodic timeout chain. This
// is the scale harness' multiplexing seam: one pool node drives the
// timeouts of thousands of virtual subscribers, each a listener costing one
// node-table entry instead of one self-renewing timeout event. The listener
// executes — and its sends draw randomness — on its owner's lane, so one
// pool and its virtual subscribers form one sequential strand. The owner is
// resolved by ID at delivery time: messages to a listener whose owner has
// crashed are dropped, like processes on a failed machine, and reach the
// owner's next incarnation once one is registered. Listeners can Crash, be
// removed and be suspected like full nodes. The ID must lie in the node
// table's range (see Engine). Barrier operation.
func (e *Engine) AddListener(id, owner sim.NodeID) {
	e.assertBarrier("AddListener")
	o := e.node(owner)
	if o == nil {
		panic(fmt.Sprintf("psim: listener %d names unknown owner %d", id, owner))
	}
	e.register(id, pnode{own: owner, lane: o.lane})
}

// RemoveNode gracefully deregisters a node; in-flight messages to it are
// dropped on delivery. Barrier operation.
func (e *Engine) RemoveNode(id sim.NodeID) {
	e.assertBarrier("RemoveNode")
	e.deregister(id)
}

// deregister frees id's table entry, if it is registered: its timeout
// chain ends, and its send count moves to sentOff.
func (e *Engine) deregister(id sim.NodeID) bool {
	n := e.node(id)
	if n != nil {
		e.sentOff[id] += n.sent
		*n = pnode{}
	}
	return n != nil
}

// Crash fails a node without warning: its actions stop, messages to it
// vanish, and the detector suspects it after the grace period. Barrier
// operation.
func (e *Engine) Crash(id sim.NodeID) {
	e.assertBarrier("Crash")
	if e.deregister(id) {
		e.crashed[id] = e.now
	}
}

// Crashed reports whether the node has crashed.
func (e *Engine) Crashed(id sim.NodeID) bool {
	_, ok := e.crashed[id]
	return ok
}

// Suspects implements sim.Detector with the configured grace period,
// evaluated against the executing window's start time (identical for every
// worker count). Safe to call from handlers: the crash map and the window
// clock only change at barriers.
func (e *Engine) Suspects(id sim.NodeID) bool {
	t, ok := e.crashed[id]
	return ok && e.now >= t+detectorGrace
}

// Now returns the current virtual time in timeout intervals: at a barrier,
// the time the run has advanced to.
func (e *Engine) Now() float64 { return e.now }

// SetFault installs (or clears, with nil) one transport-layer fault filter
// shared by every lane. The filter runs concurrently on all lanes, so it
// must be safe for concurrent use and must not draw from a shared random
// source (that would make the schedule depend on worker interleaving) —
// stateless filters only.
func (e *Engine) SetFault(f sim.FaultFunc) {
	e.assertBarrier("SetFault")
	e.fault = f
}

var _ sim.FaultInjectable = (*Engine)(nil)

// Send routes a well-formed message toward its destination. Called from a
// handler (From == the executing node or one of its listeners) it runs on
// the executing lane and draws that lane's randomness; called from the
// driver at a barrier it runs on the From node's lane, or on the external
// stream when From is not a registered node, and the delivery is queued
// (InFlight counts it) when Send returns.
func (e *Engine) Send(m sim.Message) {
	n := e.node(m.From)
	if m.To == sim.None {
		if n != nil {
			e.lanes[n.lane].dropped++
		} else {
			// External path: like externalSend, only legal at a barrier —
			// mid-window it would race with lane 0's worker over counters.
			e.assertBarrier("Send with unregistered From")
			e.lanes[0].dropped++
		}
		return
	}
	if n != nil {
		e.lanes[n.lane].send(m, n)
		return
	}
	e.externalSend(m)
}

// send performs accounting, fault filtering, delay drawing and routing for
// one message on the lane that owns the sender. A cross-lane send waits in
// an outbox for the barrier, unless it is the driver's at a barrier: that
// one goes straight into its destination calendar, where the next window
// selection and the barrier accessors see it.
func (l *lane) send(m sim.Message, from *pnode) {
	from.sent++
	l.types.Add(m.Body)
	copies, extra := 1, 0.0
	if f := l.e.fault; f != nil {
		switch f(m) {
		case sim.FaultDrop:
			l.dropped++
			return
		case sim.FaultDup:
			copies = 2
		case sim.FaultDelay:
			extra = 1 + float64(3*l.rng.Float64())
		}
	}
	dst := l.e.destLane(m.To)
	for i := 0; i < copies; i++ {
		delay := minDelay + float64(l.rng.Float64()*(maxDelay-minDelay))
		ev := pevent{t: l.now + delay + extra, kind: evDeliver, msg: m, srcLane: l.idx, srcSeq: l.seq}
		l.seq++
		switch {
		case dst == l.idx:
			l.file(ev)
		case !l.e.running.Load():
			l.e.lanes[dst].file(ev)
		default:
			box := &l.outbox[l.e.wpar][dst]
			*box = append(*box, ev)
			l.outMin = min(l.outMin, ev.t)
			l.outMask |= 1 << dst
			l.outN++
		}
	}
}

// handler is the handler that runs n's events: its own, or a listener's
// registered owner's (nil while none is).
func (e *Engine) handler(n *pnode) sim.Handler {
	if n.own == sim.None {
		return n.h
	}
	if o := e.node(n.own); o != nil {
		return o.h
	}
	return nil
}

// destLane is the lane that will deliver a message to id: the executor
// lane for a registered node (a listener delivers on its owner's lane),
// the hash lane otherwise.
func (e *Engine) destLane(id sim.NodeID) int16 {
	if n := e.node(id); n != nil {
		return n.lane
	}
	return e.laneOf(id)
}

// externalSend queues a driver injection whose From is not a registered
// node — the paper's arbitrary channel contents. Barrier operation: such
// sends draw from the driver stream (in driver call order) so they cannot
// perturb any lane.
func (e *Engine) externalSend(m sim.Message) {
	e.assertBarrier("Send with unregistered From")
	d := e.destLane(m.To)
	e.sentOff[m.From]++
	e.lanes[d].types.Add(m.Body)
	delay := minDelay + float64(e.extRNG.Float64()*(maxDelay-minDelay))
	e.lanes[d].file(pevent{t: e.now + delay, kind: evDeliver, msg: m, srcLane: extLane, srcSeq: e.extSeq})
	e.extSeq++
}

// Rand exposes the driver's random stream for workload generation and the
// corruption helpers. Barrier use only: it is not any lane's stream, so
// draws never shift a handler's randomness.
func (e *Engine) Rand() *rand.Rand { return e.extRNG }

// Freeze implements sim.Stepper: between Run* calls nothing executes, so a
// consistent cross-node snapshot is simply f().
func (e *Engine) Freeze(f func()) bool {
	e.assertBarrier("Freeze")
	f()
	return true
}

// Close ends every helper goroutine, spinning or parked, and returns once
// they have exited. Idempotent; safe on an engine that never went parallel.
func (e *Engine) Close() {
	e.assertBarrier("Close")
	if e.closed {
		return
	}
	e.closed = true
	for _, w := range e.helpers {
		w.raise()
	}
	e.exited.Wait()
}

var _ sim.Transport = (*Engine)(nil)

// ---- window execution ----

// runBusy executes every busy lane's window slice: inline when Workers == 1
// (the serial engine — no goroutines anywhere) or one lane is busy, else
// the driver and one helper goroutine per further busy lane take lanes
// from one queue. Lanes share no mutable state during a window, which is
// exactly why the schedule cannot depend on Workers.
//
// The barrier is two atomics: the driver raises each helper the window
// needs and counts them in pending; the helper that brings pending to zero
// raises the driver. Either side spins for spinBudget before it parks
// (see waiter) — but only when there is a core for every worker: with more
// workers than GOMAXPROCS a spinning waiter would hold the core the side it
// waits for needs, so each parks at once.
func (e *Engine) runBusy() {
	need := min(e.opts.Workers, len(e.busy)) - 1
	if need <= 0 {
		for _, l := range e.busy {
			l.runWindow()
		}
		return
	}
	if e.helpers == nil { // start the Workers-1 helper goroutines
		e.spin = e.opts.Workers <= runtime.GOMAXPROCS(0)
		e.helpers = make([]*waiter, e.opts.Workers-1)
		e.exited.Add(len(e.helpers))
		e.driver.token = make(chan struct{}, 1)
		for i := range e.helpers {
			w := &waiter{token: make(chan struct{}, 1)}
			e.helpers[i] = w
			go e.help(w)
		}
	}
	e.claim.Store(0)
	e.pending.Store(int32(need))
	for _, w := range e.helpers[:need] {
		w.raise()
	}
	e.drain()
	e.driver.wait(e.spin)
}

// help is a helper goroutine: it runs its share of each window it is
// raised for, until Close raises it on a closed engine.
func (e *Engine) help(w *waiter) {
	defer e.exited.Done()
	for {
		w.wait(e.spin)
		if e.closed {
			return
		}
		e.drain()
		if e.pending.Add(-1) == 0 {
			e.driver.raise()
		}
	}
}

// drain runs busy lanes until the queue is empty.
func (e *Engine) drain() {
	for {
		i := int(e.claim.Add(1)) - 1
		if i >= len(e.busy) {
			return
		}
		e.busy[i].runWindow()
	}
}

// runWindow executes this lane's slice of the window: it files its
// inbound, then runs its bucket for the window's cell, if it has one,
// sorted once, up to the target. New same-lane events land in later
// buckets directly; cross-lane events wait in the outboxes.
func (l *lane) runWindow() {
	e := l.e
	l.fileInbound()
	k, target := e.floor-1, e.target // the window's cell
	if c, ok := l.first(); !ok || c != k {
		return
	}
	evs := l.cal[k&int64(len(l.cal)-1)].ev
	keys := l.order(evs)
	ran := 0
	for _, key := range keys {
		if key.t > target {
			break
		}
		ran++
		ev := &evs[key.slot]
		if ev.t > l.now {
			l.now = ev.t
		}
		id := ev.msg.To
		switch ev.kind {
		case evDeliver:
			l.inFlight--
			var h sim.Handler
			n := e.node(id)
			if n != nil && n.lane == l.idx {
				h = e.handler(n)
			}
			if h == nil { // crashed, removed, re-registered elsewhere, or a
				l.dropped++ // listener whose owner pool crashed
				continue
			}
			l.delivered++
			l.ctx.n, l.ctx.id = n, id
			h.OnMessage(&l.ctx, ev.msg)
		case evTimeout:
			n := &e.nodes[id]
			if n.gen != ev.gen {
				continue // crashed/removed; a restart runs a new chain
			}
			l.ctx.n, l.ctx.id = n, id
			n.h.OnTimeout(&l.ctx)
			n.next += 1
			l.file(pevent{t: n.next, kind: evTimeout, gen: ev.gen, msg: sim.Message{To: id}, srcLane: l.idx, srcSeq: l.seq})
			l.seq++
		}
	}
	l.ctx.n = nil // the table may grow at the barrier
	l.settle(k, evs, keys[ran:])
}

// handoff makes the executing window's cross-lane sends the inbound set:
// it folds each lane's summary of them and flips the outbox parity. It
// copies no event. Arrival order is irrelevant: a window sorts by the
// (t, srcLane, srcSeq) stamp assigned at creation.
func (e *Engine) handoff() {
	e.inMin, e.inMask, e.inN, e.inFloor = math.Inf(1), 0, 0, e.floor
	for _, l := range e.lanes {
		e.inMin = min(e.inMin, l.outMin)
		e.inMask |= l.outMask
		e.inN += l.outN
		l.outMin, l.outMask, l.outN = math.Inf(1), 0, 0
	}
	e.wpar ^= 1
}

// fileInbound files the events the last window sent this lane from the
// other lanes, if any, with that window's floor, and empties their
// outboxes.
func (l *lane) fileInbound() {
	if l.e.inMask&(1<<l.idx) == 0 {
		return
	}
	par, floor := l.e.wpar^1, l.e.inFloor
	for _, src := range l.e.lanes {
		buf := src.outbox[par][l.idx]
		for i := range buf {
			l.fileAt(buf[i], floor)
		}
		clear(buf)
		src.outbox[par][l.idx] = buf[:0]
	}
}

// RunUntil advances virtual time to target, executing every event with
// t <= target, window by window.
func (e *Engine) RunUntil(target float64) {
	e.assertBarrier("RunUntil")
	if e.closed {
		panic("psim: RunUntil on a closed engine")
	}
	const W = minDelay
	for {
		// The earliest cell queued on any lane or in the inbound set, its
		// earliest event, and the busy lanes: those queuing the cell and
		// those with inbound to file.
		k, min, total := int64(math.MaxInt64), math.Inf(1), e.inN
		for _, l := range e.lanes {
			total += l.queued
			if c, ok := l.first(); ok && c < k {
				k = c
			}
		}
		if e.inN > 0 {
			if c := max(e.cellOf(e.inMin), e.inFloor); c <= k {
				k, min = c, e.inMin
			}
		}
		e.busy = e.busy[:0]
		for i, l := range e.lanes {
			due := l.queued > 0 && l.lo == k
			if due {
				min = math.Min(min, l.cal[k&int64(len(l.cal)-1)].minT)
			}
			if due || e.inMask&(1<<i) != 0 {
				e.busy = append(e.busy, l)
			}
		}
		if min > target {
			break
		}
		// The window's start on the absolute W grid; the guard keeps
		// wstart <= min under floating-point rounding.
		wstart := float64(math.Floor(min/W) * W)
		if wstart > min {
			wstart -= W
		}
		e.floor, e.target = k+1, target
		if e.now < wstart {
			e.now = wstart
		}
		if total > e.highWater {
			e.highWater = total
		}
		e.running.Store(true)
		e.runBusy()
		e.running.Store(false)
		e.handoff()
		e.floor = math.MinInt64
	}
	// The last window's inbound is filed here, so every barrier operation
	// sees it queued.
	for _, l := range e.lanes {
		l.fileInbound()
	}
	e.inMask, e.inN = 0, 0
	if e.now < target {
		e.now = target
	}
	// Everything due has run: bring every lane's clock up to the barrier so
	// a driver Send on behalf of a registered node draws its delay from the
	// current time, not from the lane's last (possibly much older) event.
	for _, l := range e.lanes {
		if l.now < e.now {
			l.now = e.now
		}
	}
}

// RunRounds advances by k timeout intervals.
func (e *Engine) RunRounds(k int) { e.RunUntil(e.now + float64(k)) }

// RunRoundsUntil advances round by round until pred returns true or
// maxRounds elapsed (sim.RunRoundsUntil on this engine); pred runs at round
// barriers.
func (e *Engine) RunRoundsUntil(maxRounds int, pred func() bool) (rounds int, ok bool) {
	return sim.RunRoundsUntil(e, maxRounds, pred)
}

var _ sim.Stepper = (*Engine)(nil)

// ---- accounting (barrier operations: they read every lane) ----

// sum totals f over every lane.
func sum[T int | int64](e *Engine, f func(*lane) T) T {
	var n T
	for _, l := range e.lanes {
		n += f(l)
	}
	return n
}

// Delivered returns the total number of delivered messages.
func (e *Engine) Delivered() int64 { return sum(e, func(l *lane) int64 { return l.delivered }) }

// Dropped returns messages dropped (sent to ⊥, crashed or removed nodes,
// fault drops).
func (e *Engine) Dropped() int64 { return sum(e, func(l *lane) int64 { return l.dropped }) }

// InFlight returns the number of queued message deliveries.
func (e *Engine) InFlight() int { return sum(e, func(l *lane) int { return l.inFlight }) }

// QueueLen returns the total number of queued events across all lanes.
func (e *Engine) QueueLen() int { return sum(e, func(l *lane) int { return l.queued }) }

// QueueHighWaterBytes returns the queue's high-water footprint: the
// maximum total queued-event count observed at any window barrier, at the
// static size of a queued event (64 bytes on 64-bit platforms: one bucket
// entry). Deterministic for a given schedule identity.
func (e *Engine) QueueHighWaterBytes() uint64 {
	return uint64(e.highWater) * uint64(unsafe.Sizeof(pevent{}))
}

// SentBy returns the number of messages node id has sent so far,
// including sends of its earlier incarnations.
func (e *Engine) SentBy(id sim.NodeID) int64 {
	n := e.sentOff[id]
	if p := e.node(id); p != nil {
		n += p.sent
	}
	return n
}

// CountByType returns the number of sends per message body type name.
func (e *Engine) CountByType(typeName string) int64 {
	var n int64
	for _, l := range e.lanes {
		n += l.types.Count(typeName)
	}
	return n
}

// TypeNames returns all message body type names seen, sorted.
func (e *Engine) TypeNames() []string {
	seen := make(map[string]struct{})
	for _, l := range e.lanes {
		l.types.EachName(func(name string) { seen[name] = struct{}{} })
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ResetCounters zeroes the message accounting (used to measure steady-state
// rates after convergence).
func (e *Engine) ResetCounters() {
	for _, l := range e.lanes {
		l.delivered, l.dropped = 0, 0
		l.types.Reset()
	}
	for i := range e.nodes {
		e.nodes[i].sent = 0
	}
	clear(e.sentOff)
}

// NodeIDs returns the IDs of all live registered nodes, sorted: the node
// table's order.
func (e *Engine) NodeIDs() []sim.NodeID {
	var out []sim.NodeID
	for id := range e.nodes {
		if e.nodes[id].gen != 0 {
			out = append(out, sim.NodeID(id))
		}
	}
	return out
}

// Handler returns the handler registered under id (a listener resolves to
// its owner's), or nil.
func (e *Engine) Handler(id sim.NodeID) sim.Handler {
	if n := e.node(id); n != nil {
		return e.handler(n)
	}
	return nil
}

// Workers reports the configured physical parallelism (after clamping).
func (e *Engine) Workers() int { return e.opts.Workers }

// laneCtx binds a lane to the currently executing node and its table
// entry (a listener's own when the delivery is for a listener). One
// instance per lane is reused across all its events (handlers must not
// retain a Context), keeping the delivery path free of per-event
// allocations.
type laneCtx struct {
	l  *lane
	n  *pnode
	id sim.NodeID
}

func (c *laneCtx) Self() sim.NodeID { return c.id }
func (c *laneCtx) Send(to sim.NodeID, topic sim.Topic, body any) {
	c.l.send(sim.Message{To: to, From: c.id, Topic: topic, Body: body}, c.n)
}
func (c *laneCtx) Rand() *rand.Rand { return c.l.rng }
func (c *laneCtx) Now() float64     { return c.l.now }
