package psim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"sspubsub/internal/sim"
)

// A message's delay is drawn from [minDelay, maxDelay) timeout intervals;
// minDelay is the lookahead (see the package doc). Typed, so
// maxDelay-minDelay rounds as a float64 subtraction: untyped, it would
// fold exactly and move every drawn delay by one ulp. A crashed node is
// suspected from the first window boundary detectorGrace after its crash.
const (
	minDelay      float64 = 0.05
	maxDelay      float64 = 0.95
	detectorGrace float64 = 2
)

// Options configure a parallel deterministic simulation.
//
// The schedule identity is (Seed, Lanes): two runs with equal values
// execute bit-identical event sequences — same deliveries, same timeouts,
// same random draws — regardless of Workers. Workers only chooses how many
// OS threads execute the schedule; it may change wall-clock time and
// nothing else.
type Options struct {
	// Seed drives all randomness. Each lane derives its own stream from
	// (Seed, lane), so the sequence a handler observes depends only on the
	// schedule identity, never on physical parallelism.
	Seed int64
	// Lanes is the number of deterministic shards nodes are partitioned
	// into (by hash of NodeID). It is part of the schedule identity:
	// changing it changes the (still deterministic) schedule. Default 16.
	Lanes int
	// Workers is the number of goroutines executing lanes inside each
	// lookahead window. It is NOT part of the schedule identity: any value
	// produces bit-identical results. Workers == 1 executes the whole
	// schedule serially on the calling goroutine (no goroutines are
	// spawned — the serial engine). Default min(GOMAXPROCS, Lanes);
	// clamped to [1, Lanes].
	Workers int
}

// Engine is a conservative parallel discrete-event executor for
// sim.Handlers: the repository's one deterministic engine. It implements
// sim.Transport and sim.Stepper (and the scale harness' listener seam); the
// package documentation describes its model, its determinism contract and
// which operations are barrier operations.
type Engine struct {
	opts    Options
	lanes   []*lane
	nodes   map[sim.NodeID]*pnode
	crashed map[sim.NodeID]float64
	now     float64       // barrier time: start of the executing window
	target  float64       // the RunUntil target of the executing window
	floor   int64         // lowest cell to file into: the next window's inside a window
	fault   sim.FaultFunc // SetFault's filter, shared by every lane

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

	// The lanes with events in the executing window, and the worker pool
	// (lazily started when Workers > 1) that takes them from one queue.
	busy    []*lane
	claim   atomic.Int32
	wake    chan struct{}
	phaseWG sync.WaitGroup
	closed  bool
}

type pnode struct {
	id   sim.NodeID
	h    sim.Handler
	own  *pnode  // listeners only: the owner pool node as registered
	lane int32   // executing lane (a listener's is its owner's)
	dead bool    // crashed or removed: no longer e.nodes[id]
	next float64 // next timeout (full nodes only)
	sent int64   // sends while registered (SentBy)
}

const (
	evDeliver uint8 = iota
	evTimeout
)

// extLane is the srcLane stamp of events injected from outside any lane
// (harness sends with an unregistered From). It orders such events
// before every lane's at equal times; any fixed rule would do.
const extLane int32 = -1

// pevent is a queued event. dst is the node its target resolved to when
// the event was created (nil if none); see Engine.current.
type pevent struct {
	t       float64
	srcSeq  int64
	srcLane int32
	kind    uint8
	dst     *pnode
	msg     sim.Message
}

// ekey is an event's order key and its index in its bucket: what a window
// sorts, so a sort step moves 24 bytes instead of a whole event.
type ekey struct {
	t       float64
	srcSeq  int64
	srcLane int32
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
// a barrier), so none of it is locked. Cell c's bucket is
// cal[c & (len(cal)-1)]; every queued cell lies in [lo, hi], and
// hi-lo < len(cal), so no two queued cells share a bucket.
type lane struct {
	e   *Engine
	idx int32
	rng *rand.Rand

	cal    []bucket
	lo, hi int64    // bounds on the queued events' cells
	queued int      // events in the calendar
	keys   []ekey   // the executing window's order (scratch)
	spare  []pevent // settle's scratch
	seq    int64
	outbox [][]pevent // per dst lane, filled during a window
	now    float64    // time of the executing event
	ctx    laneCtx

	inFlight  int
	delivered int64
	dropped   int64
	// types counts sends by the body's dynamic type; names are resolved
	// only when read (CountByType, TypeNames).
	types []typeCount
}

type typeCount struct {
	t reflect.Type
	n int64
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
func (l *lane) file(ev pevent) {
	c := max(l.e.cellOf(ev.t), l.e.floor)
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

// splitmix64 is the 64-bit finalizer used for lane hashing and per-node
// phases: deterministic, dependency-free, well mixed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// New creates an empty parallel deterministic simulation.
func New(opts Options) *Engine {
	if opts.Lanes <= 0 {
		opts.Lanes = 16
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Workers > opts.Lanes {
		opts.Workers = opts.Lanes
	}
	e := &Engine{
		opts:    opts,
		nodes:   make(map[sim.NodeID]*pnode),
		crashed: make(map[sim.NodeID]float64),
		floor:   math.MinInt64,
		extRNG:  rand.New(rand.NewSource(int64(splitmix64(uint64(opts.Seed) ^ 0xe7f3a9c1)))),
		sentOff: make(map[sim.NodeID]int64),
	}
	e.lanes = make([]*lane, opts.Lanes)
	for i := range e.lanes {
		l := &lane{
			e:      e,
			idx:    int32(i),
			rng:    rand.New(rand.NewSource(int64(splitmix64(uint64(opts.Seed) + uint64(i)*0x9e3779b97f4a7c15)))),
			cal:    make([]bucket, 1),
			outbox: make([][]pevent, opts.Lanes),
		}
		l.ctx.l = l
		e.lanes[i] = l
	}
	return e
}

// laneOf is the deterministic NodeID → lane partition.
func (e *Engine) laneOf(id sim.NodeID) int32 {
	return int32(splitmix64(uint64(id)) % uint64(len(e.lanes)))
}

// phaseOf derives a node's timeout phase in [0, 1) from (Seed, NodeID) —
// pure, so registration order never shifts any random stream.
func (e *Engine) phaseOf(id sim.NodeID) float64 {
	u := splitmix64(uint64(e.opts.Seed)*0x2545f4914f6cdd1d ^ splitmix64(uint64(id)))
	return float64(float64(u>>11) / (1 << 53))
}

func (e *Engine) assertBarrier(op string) {
	if e.running.Load() {
		panic("psim: " + op + " is a barrier operation; it must not be called from inside a handler")
	}
}

// AddNode registers a handler under the given ID on its hash lane and
// schedules its periodic Timeout action at a (seed, id)-deterministic phase
// within the current interval. Barrier operation.
func (e *Engine) AddNode(id sim.NodeID, h sim.Handler) {
	e.assertBarrier("AddNode")
	if id == sim.None {
		panic("psim: cannot add node with ID 0")
	}
	if _, dup := e.nodes[id]; dup {
		panic(fmt.Sprintf("psim: duplicate node %d", id))
	}
	l := e.lanes[e.laneOf(id)]
	n := &pnode{id: id, h: h, lane: l.idx, next: e.now + e.phaseOf(id)}
	e.nodes[id] = n
	delete(e.crashed, id) // re-adding a crashed ID is a restart
	l.file(pevent{t: n.next, kind: evTimeout, dst: n, srcLane: l.idx, srcSeq: l.seq})
	l.seq++
}

// AddListener registers id as a virtual alias of an existing owner node:
// messages addressed to id are handled by the owner's handler (with
// Message.To still naming id), and id owns no periodic timeout chain. This
// is the scale harness' multiplexing seam: one pool node drives the
// timeouts of thousands of virtual subscribers, each a listener costing one
// map entry instead of one self-renewing timeout event. The listener
// executes — and its sends draw randomness — on its owner's lane, so one
// pool and its virtual subscribers form one sequential strand. The owner is
// resolved at delivery time: messages to a listener whose owner has crashed
// are dropped, like processes on a failed machine. Listeners can Crash, be
// removed and be suspected like full nodes. Barrier operation.
func (e *Engine) AddListener(id, owner sim.NodeID) {
	e.assertBarrier("AddListener")
	if id == sim.None {
		panic("psim: cannot add listener with ID 0")
	}
	if owner == sim.None {
		panic("psim: listener needs a non-⊥ owner")
	}
	if _, dup := e.nodes[id]; dup {
		panic(fmt.Sprintf("psim: duplicate node %d", id))
	}
	o, ok := e.nodes[owner]
	if !ok {
		panic(fmt.Sprintf("psim: listener %d names unknown owner %d", id, owner))
	}
	e.nodes[id] = &pnode{id: id, own: o, lane: o.lane}
	delete(e.crashed, id)
}

// RemoveNode gracefully deregisters a node; in-flight messages to it are
// dropped on delivery. Barrier operation.
func (e *Engine) RemoveNode(id sim.NodeID) {
	e.assertBarrier("RemoveNode")
	e.deregister(id)
}

// deregister retires id's pnode, if any: events holding it fall back to a
// lookup, and its send count moves to sentOff.
func (e *Engine) deregister(id sim.NodeID) bool {
	n, ok := e.nodes[id]
	if ok {
		n.dead, e.sentOff[id] = true, e.sentOff[id]+n.sent
		delete(e.nodes, id)
	}
	return ok
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
// stream when From is not a registered node.
func (e *Engine) Send(m sim.Message) {
	if m.To == sim.None {
		if n, ok := e.nodes[m.From]; ok {
			e.lanes[n.lane].dropped++
		} else {
			// External path: like externalSend, only legal at a barrier —
			// mid-window it would race with lane 0's worker over counters.
			e.assertBarrier("Send with unregistered From")
			e.lanes[0].dropped++
		}
		return
	}
	if n, ok := e.nodes[m.From]; ok {
		e.lanes[n.lane].send(m, n)
		return
	}
	e.externalSend(m)
}

// send performs accounting, fault filtering, delay drawing and routing for
// one message on the lane that owns the sender.
func (l *lane) send(m sim.Message, from *pnode) {
	from.sent++
	l.count(reflect.TypeOf(m.Body))
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
	dn, dst := l.e.resolve(m.To)
	for i := 0; i < copies; i++ {
		delay := minDelay + float64(l.rng.Float64()*(maxDelay-minDelay))
		ev := pevent{t: l.now + delay + extra, kind: evDeliver, dst: dn, msg: m, srcLane: l.idx, srcSeq: l.seq}
		l.seq++
		if dst == l.idx {
			l.file(ev)
		} else {
			l.outbox[dst] = append(l.outbox[dst], ev)
		}
	}
}

// count adds one send of body type t to the lane's tally.
func (l *lane) count(t reflect.Type) {
	for i := range l.types {
		if l.types[i].t == t {
			l.types[i].n++
			if i > 0 { // the busiest types drift to the front
				l.types[i-1], l.types[i] = l.types[i], l.types[i-1]
			}
			return
		}
	}
	l.types = append(l.types, typeCount{t: t, n: 1})
}

// current is the node registered under id, given the one an event resolved
// earlier: n itself while it is registered, else a fresh lookup (nil when
// none is). So a delivery resolves exactly as a lookup at delivery would,
// yet looks up only after a barrier changed registration.
func (e *Engine) current(n *pnode, id sim.NodeID) *pnode {
	if n == nil || n.dead {
		return e.nodes[id]
	}
	return n
}

// handler is the handler that runs n's events: its own, or a listener's
// registered owner's (nil when the owner is gone).
func (n *pnode) handler(e *Engine) sim.Handler {
	if n.own == nil {
		return n.h
	}
	if o := e.current(n.own, n.own.id); o != nil {
		return o.h
	}
	return nil
}

// resolve finds the node a message to id is for and the lane that will
// deliver it: the executor lane for registered nodes (a listener delivers
// on its owner's lane), the hash lane otherwise.
func (e *Engine) resolve(id sim.NodeID) (*pnode, int32) {
	if n, ok := e.nodes[id]; ok {
		return n, n.lane
	}
	return nil, e.laneOf(id)
}

// externalSend queues a driver injection whose From is not a registered
// node — the paper's arbitrary channel contents. Barrier operation: such
// sends draw from the driver stream (in driver call order) so they cannot
// perturb any lane.
func (e *Engine) externalSend(m sim.Message) {
	e.assertBarrier("Send with unregistered From")
	dn, d := e.resolve(m.To)
	e.sentOff[m.From]++
	e.lanes[d].count(reflect.TypeOf(m.Body))
	delay := minDelay + float64(e.extRNG.Float64()*(maxDelay-minDelay))
	e.lanes[d].file(pevent{t: e.now + delay, kind: evDeliver, dst: dn, msg: m, srcLane: extLane, srcSeq: e.extSeq})
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

// Close stops the worker pool. Idempotent; safe on an engine that never
// went parallel.
func (e *Engine) Close() {
	e.assertBarrier("Close")
	if e.closed {
		return
	}
	e.closed = true
	if e.wake != nil {
		close(e.wake)
	}
}

var _ sim.Transport = (*Engine)(nil)

// ---- window execution ----

// runBusy executes every busy lane's window slice: inline when Workers == 1
// (the serial engine — no goroutines anywhere) or one lane is busy, else
// the driver and up to one pool goroutine per further busy lane take lanes
// from one queue. Lanes share no mutable state during a window, which is
// exactly why the schedule cannot depend on Workers.
func (e *Engine) runBusy() {
	helpers := min(e.opts.Workers, len(e.busy)) - 1
	if helpers <= 0 {
		for _, l := range e.busy {
			l.runWindow()
		}
		return
	}
	if e.wake == nil { // start the Workers-1 pool goroutines
		e.wake = make(chan struct{}, e.opts.Workers) // sized to one window's tokens
		for w := 0; w < e.opts.Workers-1; w++ {
			go func() {
				for range e.wake {
					e.drain()
					e.phaseWG.Done()
				}
			}()
		}
	}
	e.claim.Store(0)
	e.phaseWG.Add(helpers)
	for i := 0; i < helpers; i++ {
		e.wake <- struct{}{}
	}
	e.drain()
	e.phaseWG.Wait()
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

// runWindow executes this lane's slice of the window: its bucket for the
// window's cell, sorted once, up to the target. New same-lane events land
// in later buckets directly; cross-lane events wait in the outboxes.
func (l *lane) runWindow() {
	e := l.e
	k, target := l.lo, e.target
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
		n := ev.dst
		switch ev.kind {
		case evDeliver:
			l.inFlight--
			var h sim.Handler
			if n = e.current(n, ev.msg.To); n != nil && n.lane == l.idx {
				h = n.handler(e)
			}
			if h == nil { // crashed, removed, re-registered elsewhere, or a
				l.dropped++ // listener whose owner pool crashed
				continue
			}
			l.delivered++
			l.ctx.n = n
			h.OnMessage(&l.ctx, ev.msg)
		case evTimeout:
			if n.dead {
				continue // crashed/removed; a restart runs a new chain
			}
			l.ctx.n = n
			n.h.OnTimeout(&l.ctx)
			n.next += 1
			l.file(pevent{t: n.next, kind: evTimeout, dst: n, srcLane: l.idx, srcSeq: l.seq})
			l.seq++
		}
	}
	l.settle(k, evs, keys[ran:])
}

// fileOutboxes files every event the window sent across lanes into its
// destination calendar. Arrival order is irrelevant: a window sorts by the
// (t, srcLane, srcSeq) stamp assigned at creation.
func (e *Engine) fileOutboxes() {
	for _, src := range e.lanes {
		for d, buf := range src.outbox {
			for i := range buf {
				e.lanes[d].file(buf[i])
			}
			clear(buf)
			src.outbox[d] = buf[:0]
		}
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
		// The earliest cell queued on any lane, the lanes queuing it, and
		// its earliest event (outboxes were filed at the last barrier).
		k, min, total := int64(math.MaxInt64), math.Inf(1), 0
		for _, l := range e.lanes {
			total += l.queued
			if c, ok := l.first(); ok && c < k {
				k = c
			}
		}
		e.busy = e.busy[:0]
		for _, l := range e.lanes {
			if l.queued > 0 && l.lo == k {
				e.busy = append(e.busy, l)
				min = math.Min(min, l.cal[k&int64(len(l.cal)-1)].minT)
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
		e.fileOutboxes()
		e.floor = math.MinInt64
	}
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
// static size of a queued event (72 bytes on 64-bit platforms: one bucket
// entry). Deterministic for a given schedule identity.
func (e *Engine) QueueHighWaterBytes() uint64 {
	return uint64(e.highWater) * uint64(unsafe.Sizeof(pevent{}))
}

// typeNameOf is sim.TypeName for a body's dynamic type: what
// fmt.Sprintf("%T", body) prints.
func typeNameOf(t reflect.Type) string {
	if t == nil {
		return "<nil>"
	}
	return t.String()
}

// SentBy returns the number of messages node id has sent so far,
// including sends of its earlier incarnations.
func (e *Engine) SentBy(id sim.NodeID) int64 {
	n := e.sentOff[id]
	if p, ok := e.nodes[id]; ok {
		n += p.sent
	}
	return n
}

// CountByType returns the number of sends per message body type name.
func (e *Engine) CountByType(typeName string) int64 {
	var n int64
	for _, l := range e.lanes {
		for _, c := range l.types {
			if typeNameOf(c.t) == typeName {
				n += c.n
			}
		}
	}
	return n
}

// TypeNames returns all message body type names seen, sorted.
func (e *Engine) TypeNames() []string {
	seen := make(map[string]struct{})
	for _, l := range e.lanes {
		for _, c := range l.types {
			seen[typeNameOf(c.t)] = struct{}{}
		}
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
		l.types = l.types[:0]
	}
	for _, n := range e.nodes {
		n.sent = 0
	}
	clear(e.sentOff)
}

// NodeIDs returns the IDs of all live registered nodes, sorted.
func (e *Engine) NodeIDs() []sim.NodeID {
	out := make([]sim.NodeID, 0, len(e.nodes))
	for id := range e.nodes {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Handler returns the handler registered under id (a listener resolves to
// its owner's), or nil.
func (e *Engine) Handler(id sim.NodeID) sim.Handler {
	if n := e.nodes[id]; n != nil {
		return n.handler(e)
	}
	return nil
}

// Workers reports the configured physical parallelism (after clamping).
func (e *Engine) Workers() int { return e.opts.Workers }

// Lanes reports the configured shard count.
func (e *Engine) Lanes() int { return len(e.lanes) }

// laneCtx binds a lane to the currently executing node (a listener's own
// pnode when the delivery is for a listener). One instance per
// lane is reused across all its events (handlers must not retain a
// Context), keeping the delivery path free of per-event allocations.
type laneCtx struct {
	l *lane
	n *pnode
}

func (c *laneCtx) Self() sim.NodeID { return c.n.id }
func (c *laneCtx) Send(to sim.NodeID, topic sim.Topic, body any) {
	c.l.send(sim.Message{To: to, From: c.n.id, Topic: topic, Body: body}, c.n)
}
func (c *laneCtx) Rand() *rand.Rand { return c.l.rng }
func (c *laneCtx) Now() float64     { return c.l.now }
