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

// Options configure a parallel deterministic simulation.
//
// The schedule identity is (Seed, Lanes, MinDelay, MaxDelay): two runs with
// equal values execute bit-identical event sequences — same deliveries, same
// timeouts, same random draws — regardless of Workers. Workers only chooses
// how many OS threads execute the schedule; it may change wall-clock time
// and nothing else.
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
	// MinDelay and MaxDelay bound message delivery delay, in timeout
	// intervals (defaults 0.05 and 0.95). MinDelay is
	// the engine's lookahead: a message sent at time t delivers no earlier
	// than t+MinDelay, so events inside a window of width MinDelay cannot
	// causally interact and lanes may execute them in parallel.
	MinDelay, MaxDelay float64
	// DetectorGrace is how long after a crash the failure detector keeps
	// answering "alive". Suspicion flips at the window boundary at or after
	// crashTime+DetectorGrace (identical for every Workers value). Default
	// 2 intervals.
	DetectorGrace float64
}

// Engine is a conservative parallel discrete-event executor for
// sim.Handlers: the repository's one deterministic engine.
//
// Nodes (and their pool listeners) are partitioned across Lanes lanes by a
// deterministic hash of NodeID. Each lane owns an event min-heap (keys
// over an event slab, see pheap), its own seeded random stream, and the
// exclusive right to execute its nodes' handlers. Execution proceeds in
// lookahead windows of width MinDelay: because any Send at time t delivers no earlier than t+MinDelay, no event
// inside a window can causally affect another event in the same window —
// across lanes or within one — so all lanes run their window slice
// concurrently. Cross-lane sends are buffered per (srcLane, dstLane) and
// merged at the window barrier; every event carries a (deliverTime,
// srcLane, srcSeq) key that totally orders each lane's heap, so the merge
// produces one canonical schedule no matter how many workers executed the
// window.
//
// The engine implements sim.Transport and sim.Stepper (and the scale
// harness' listener seam). There is no single-event step: the unit of
// progress is the window. Topology mutations (AddNode, AddListener,
// RemoveNode, Crash), Send with an unregistered From and the accounting
// accessors are barrier operations: they must be called between
// Run* calls, never from inside a handler. Handlers interact with the
// engine only through their Context (and, transitively, Transport.Send
// with their own From), which routes to their executing lane.
type Engine struct {
	opts    Options
	lanes   []*lane
	nodes   map[sim.NodeID]*pnode
	crashed map[sim.NodeID]float64
	now     float64       // barrier time: start of the executing window
	wend    float64       // end of the executing window (read by lane workers)
	target  float64       // the RunUntil target of the executing window
	gen     int64         // node-incarnation counter
	fault   sim.FaultFunc // SetFault's filter, shared by every lane

	// extRNG is the driver's stream: harness injections whose From is not a
	// registered node draw their delays from it, and Rand hands it to
	// workload generators and corruption helpers, so driver-side randomness
	// cannot perturb any lane's sequence.
	extRNG *rand.Rand
	extSeq int64

	// running guards the barrier-only API: true while a window executes.
	running atomic.Bool

	// highWater is the maximum total queued-event count observed at any
	// window barrier (the parallel engine's queue high-water mark).
	highWater int

	// worker pool (lazily started when Workers > 1)
	workCh    chan *lane
	phaseWG   sync.WaitGroup
	phaseFn   func(*lane)
	workersUp bool
	closed    bool
}

type pnode struct {
	h     sim.Handler
	owner sim.NodeID // non-⊥ for listeners: the pool node handling our traffic
	lane  int32      // executing lane (a listener's is its owner's)
	gen   int64
	next  float64 // next timeout (full nodes only)
}

const (
	evDeliver uint8 = iota
	evTimeout
)

// extLane is the srcLane stamp of events injected from outside any lane
// (harness sends with an unregistered From). It orders such events
// before every lane's at equal times; any fixed rule would do.
const extLane int32 = -1

type pevent struct {
	t       float64
	srcSeq  int64
	srcLane int32
	kind    uint8
	node    sim.NodeID // timeout target
	gen     int64
	msg     sim.Message
}

// hkey is a heap entry: an event's order key and the slab slot holding
// the event itself. At 24 bytes it is what the heap sifts, so a sift level
// moves three words instead of a whole event.
type hkey struct {
	t       float64
	srcSeq  int64
	srcLane int32
	slot    int32
}

// before totally orders events: by time, then by origin lane, then by the
// origin's per-lane sequence number. All three components are fixed when
// the event is created by its (deterministically scheduled) origin, so the
// order is independent of which worker executes what — and, being total,
// any correct heap pops one sequence.
func (k hkey) before(o hkey) bool {
	if k.t != o.t {
		return k.t < o.t
	}
	if k.srcLane != o.srcLane {
		return k.srcLane < o.srcLane
	}
	return k.srcSeq < o.srcSeq
}

// pheap is a binary min-heap of keys over a slab of events. A pushed event
// is written once into a recycled slab slot and read once when popped; the
// sifts move only keys, and they move a hole rather than swapping. It
// deliberately does not implement container/heap, whose interface boxes
// every entry; keys, slab and free list keep their capacity, so the
// steady-state schedule/deliver cycle performs no allocations at all.
type pheap struct {
	keys []hkey
	slab []pevent
	free []int32 // slab slots not holding an event
}

func (h *pheap) len() int { return len(h.keys) }

// minT is the time of the earliest event; the heap must not be empty.
func (h *pheap) minT() float64 { return h.keys[0].t }

func (h *pheap) push(e pevent) {
	var slot int32
	if n := len(h.free); n > 0 {
		slot = h.free[n-1]
		h.free = h.free[:n-1]
		h.slab[slot] = e
	} else {
		slot = int32(len(h.slab))
		h.slab = append(h.slab, e)
	}
	k := hkey{t: e.t, srcSeq: e.srcSeq, srcLane: e.srcLane, slot: slot}
	s := append(h.keys, hkey{})
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !k.before(s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = k
	h.keys = s
}

func (h *pheap) pop() pevent {
	s := h.keys
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s = s[:n]
	// Sift the hole at the root down to where the last key belongs.
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s[c+1].before(s[c]) {
			c++
		}
		if !s[c].before(last) {
			break
		}
		s[i] = s[c]
		i = c
	}
	if i < n {
		s[i] = last
	}
	h.keys = s
	e := h.slab[top.slot]
	h.slab[top.slot] = pevent{} // release the Body reference
	h.free = append(h.free, top.slot)
	return e
}

// lane is one deterministic shard: a heap, a random stream, per-destination
// outboxes and the accounting for the nodes it executes. All lane state is
// touched only by the single worker executing the lane's window slice (or
// by the driver at a barrier), so none of it is locked.
type lane struct {
	e   *Engine
	idx int32
	rng *rand.Rand

	heap   pheap
	seq    int64
	outbox [][]pevent // per dst lane, filled during a window
	inbox  [][]pevent // per src lane, swapped in at the barrier
	now    float64    // time of the executing event
	ctx    laneCtx

	inFlight  int
	delivered int64
	dropped   int64
	// byType counts sends by the body's dynamic type; names are resolved
	// only when read (CountByType, TypeNames).
	byType map[reflect.Type]int64
	sentBy map[sim.NodeID]int64
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
	if opts.MaxDelay == 0 {
		opts.MaxDelay = 0.95
	}
	if opts.MinDelay == 0 {
		opts.MinDelay = 0.05
	}
	if opts.MinDelay <= 0 {
		panic("psim: MinDelay (the lookahead) must be positive")
	}
	if opts.DetectorGrace == 0 {
		opts.DetectorGrace = 2
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
		extRNG:  rand.New(rand.NewSource(int64(splitmix64(uint64(opts.Seed) ^ 0xe7f3a9c1)))),
	}
	e.lanes = make([]*lane, opts.Lanes)
	for i := range e.lanes {
		l := &lane{
			e:      e,
			idx:    int32(i),
			rng:    rand.New(rand.NewSource(int64(splitmix64(uint64(opts.Seed) + uint64(i)*0x9e3779b97f4a7c15)))),
			outbox: make([][]pevent, opts.Lanes),
			inbox:  make([][]pevent, opts.Lanes),
			byType: make(map[reflect.Type]int64),
			sentBy: make(map[sim.NodeID]int64),
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
	e.gen++
	l := e.lanes[e.laneOf(id)]
	n := &pnode{h: h, lane: l.idx, gen: e.gen, next: e.now + e.phaseOf(id)}
	e.nodes[id] = n
	delete(e.crashed, id) // re-adding a crashed ID is a restart
	l.heap.push(pevent{t: n.next, kind: evTimeout, node: id, gen: n.gen, srcLane: l.idx, srcSeq: l.seq})
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
	e.nodes[id] = &pnode{owner: owner, lane: o.lane, gen: -1}
	delete(e.crashed, id)
}

// RemoveNode gracefully deregisters a node; in-flight messages to it are
// dropped on delivery. Barrier operation.
func (e *Engine) RemoveNode(id sim.NodeID) {
	e.assertBarrier("RemoveNode")
	delete(e.nodes, id)
}

// Crash fails a node without warning: its actions stop, messages to it
// vanish, and the detector suspects it after the grace period. Barrier
// operation.
func (e *Engine) Crash(id sim.NodeID) {
	e.assertBarrier("Crash")
	if _, ok := e.nodes[id]; !ok {
		return
	}
	e.crashed[id] = e.now
	delete(e.nodes, id)
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
	return ok && e.now >= t+e.opts.DetectorGrace
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
		e.lanes[n.lane].send(m)
		return
	}
	e.externalSend(m)
}

// send performs accounting, fault filtering, delay drawing and routing for
// one message on the lane that owns the sender.
func (l *lane) send(m sim.Message) {
	l.sentBy[m.From]++
	l.byType[reflect.TypeOf(m.Body)]++
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
	for i := 0; i < copies; i++ {
		delay := l.e.opts.MinDelay + float64(l.rng.Float64()*(l.e.opts.MaxDelay-l.e.opts.MinDelay))
		ev := pevent{t: l.now + delay + extra, kind: evDeliver, msg: m, srcLane: l.idx, srcSeq: l.seq}
		l.seq++
		dst := l.e.destLane(m.To)
		if dst == l.idx {
			l.heap.push(ev)
			l.inFlight++
		} else {
			l.outbox[dst] = append(l.outbox[dst], ev)
		}
	}
}

// destLane resolves the lane that will deliver a message to id: the
// executor lane for registered nodes (a listener delivers on its owner's
// lane), the hash lane otherwise. Registration only changes at barriers,
// so the resolution is stable for every event created inside a window.
func (e *Engine) destLane(id sim.NodeID) int32 {
	if n, ok := e.nodes[id]; ok {
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
	dst := e.lanes[e.destLane(m.To)]
	dst.sentBy[m.From]++
	dst.byType[reflect.TypeOf(m.Body)]++
	delay := e.opts.MinDelay + float64(e.extRNG.Float64()*(e.opts.MaxDelay-e.opts.MinDelay))
	ev := pevent{t: e.now + delay, kind: evDeliver, msg: m, srcLane: extLane, srcSeq: e.extSeq}
	e.extSeq++
	dst.heap.push(ev)
	dst.inFlight++
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
	if e.workersUp {
		close(e.workCh)
		e.workersUp = false
	}
}

var _ sim.Transport = (*Engine)(nil)

// ---- window execution ----

// ensureWorkers lazily starts the Workers-1 >= 1 pool (the driver
// goroutine is worker zero in every phase).
func (e *Engine) ensureWorkers() {
	if e.workersUp || e.closed {
		return
	}
	e.workCh = make(chan *lane, len(e.lanes))
	for w := 0; w < e.opts.Workers-1; w++ {
		go func() {
			for l := range e.workCh {
				e.phaseFn(l)
				e.phaseWG.Done()
			}
		}()
	}
	e.workersUp = true
}

// runPhase executes fn once per lane: inline when Workers == 1 (the serial
// engine — no goroutines anywhere), else fanned out over the worker pool
// with the driver participating. Lane processing order is irrelevant by
// construction (lanes share no mutable state during a phase), which is
// exactly why the schedule cannot depend on Workers.
func (e *Engine) runPhase(fn func(*lane)) {
	if e.opts.Workers <= 1 {
		for _, l := range e.lanes {
			fn(l)
		}
		return
	}
	e.ensureWorkers()
	e.phaseFn = fn
	e.phaseWG.Add(len(e.lanes) - 1)
	for _, l := range e.lanes[1:] {
		e.workCh <- l
	}
	fn(e.lanes[0]) // the driver pulls its weight instead of spinning
	e.phaseWG.Wait()
	e.phaseFn = nil
}

// ingest merges the event slices every other lane buffered for this lane
// during the previous window into the heap. Arrival order is irrelevant:
// the heap orders by the (t, srcLane, srcSeq) stamp assigned at creation.
func (l *lane) ingest() {
	for src, buf := range l.inbox {
		for i := range buf {
			l.heap.push(buf[i])
			l.inFlight++
			buf[i] = pevent{} // release Body references
		}
		l.inbox[src] = buf[:0]
	}
}

// runWindow executes this lane's slice of the window: every queued event
// with t < wend (and t <= target). New same-lane events land in the heap
// directly; cross-lane events go to the outboxes for the barrier merge.
// The bounds travel through the engine, not a closure, so a window costs
// no allocation.
func (l *lane) runWindow() {
	e := l.e
	wend, target := e.wend, e.target
	for l.heap.len() > 0 {
		t := l.heap.minT()
		if t >= wend || t > target {
			break
		}
		ev := l.heap.pop()
		if ev.t > l.now {
			l.now = ev.t
		}
		switch ev.kind {
		case evDeliver:
			l.inFlight--
			n, ok := e.nodes[ev.msg.To]
			if !ok || n.lane != l.idx {
				l.dropped++ // crashed, removed, or re-registered elsewhere
				continue
			}
			h := n.h
			if n.owner != sim.None {
				o, up := e.nodes[n.owner]
				if !up {
					l.dropped++ // owner pool crashed: its listeners fail with it
					continue
				}
				h = o.h
			}
			l.delivered++
			l.ctx.id = ev.msg.To
			h.OnMessage(&l.ctx, ev.msg)
		case evTimeout:
			n, ok := e.nodes[ev.node]
			if !ok || n.gen != ev.gen {
				continue // crashed/removed, or a stale pre-restart chain
			}
			l.ctx.id = ev.node
			n.h.OnTimeout(&l.ctx)
			n.next += 1
			l.heap.push(pevent{t: n.next, kind: evTimeout, node: ev.node, gen: n.gen, srcLane: l.idx, srcSeq: l.seq})
			l.seq++
		}
	}
}

// swapOutboxes hands every lane's outbox slices to their destination
// lanes' inboxes (slice-header swaps only; the buffers are recycled in the
// opposite direction each window).
func (e *Engine) swapOutboxes() {
	for _, src := range e.lanes {
		for d := range src.outbox {
			if len(src.outbox[d]) == 0 {
				continue
			}
			dst := e.lanes[d]
			src.outbox[d], dst.inbox[src.idx] = dst.inbox[src.idx][:0], src.outbox[d]
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
	W := e.opts.MinDelay
	for {
		// Merge the cross-lane events the previous window buffered BEFORE
		// choosing the next window: an inbox event can be older than every
		// heap min, and both window selection and loop termination must see
		// it. (After this phase outboxes and inboxes are empty, so heaps
		// are the complete picture.)
		e.running.Store(true)
		e.runPhase((*lane).ingest)
		e.running.Store(false)
		// Earliest pending event across all lanes.
		min := math.Inf(1)
		for _, l := range e.lanes {
			if l.heap.len() > 0 && l.heap.minT() < min {
				min = l.heap.minT()
			}
		}
		if min > target {
			break
		}
		// The lookahead window containing the earliest event, aligned to
		// the absolute W grid. The guard keeps wstart <= min under
		// floating-point rounding so wend <= min+W: no event created
		// inside the window (at >= its creator's time + MinDelay) can
		// land inside the window.
		wstart := float64(math.Floor(min/W) * W)
		if wstart > min {
			wstart -= W
		}
		e.wend, e.target = wstart+W, target
		if e.now < wstart {
			e.now = wstart
		}
		total := 0
		for _, l := range e.lanes {
			total += l.heap.len()
		}
		if total > e.highWater {
			e.highWater = total
		}
		e.running.Store(true)
		e.runPhase((*lane).runWindow)
		e.running.Store(false)
		e.swapOutboxes()
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

// Delivered returns the total number of delivered messages.
func (e *Engine) Delivered() int64 {
	var n int64
	for _, l := range e.lanes {
		n += l.delivered
	}
	return n
}

// Dropped returns messages dropped (sent to ⊥, crashed or removed nodes,
// fault drops).
func (e *Engine) Dropped() int64 {
	var n int64
	for _, l := range e.lanes {
		n += l.dropped
	}
	return n
}

// InFlight returns the number of queued message deliveries.
func (e *Engine) InFlight() int {
	n := 0
	for _, l := range e.lanes {
		n += l.inFlight
	}
	return n
}

// QueueLen returns the total number of queued events across all lanes.
func (e *Engine) QueueLen() int {
	n := 0
	for _, l := range e.lanes {
		n += l.heap.len()
	}
	return n
}

// QueueHighWaterBytes returns the queue's high-water footprint: the
// maximum total queued-event count observed at any window barrier, at the
// static size of a queued event (its heap key plus its slab slot).
// Deterministic for a given schedule identity.
func (e *Engine) QueueHighWaterBytes() uint64 {
	return uint64(e.highWater) * uint64(unsafe.Sizeof(hkey{})+unsafe.Sizeof(pevent{}))
}

// typeNameOf is sim.TypeName for a body's dynamic type: what
// fmt.Sprintf("%T", body) prints.
func typeNameOf(t reflect.Type) string {
	if t == nil {
		return "<nil>"
	}
	return t.String()
}

// SentBy returns the number of messages node id has sent so far.
func (e *Engine) SentBy(id sim.NodeID) int64 {
	var n int64
	for _, l := range e.lanes {
		n += l.sentBy[id]
	}
	return n
}

// CountByType returns the number of sends per message body type name.
func (e *Engine) CountByType(typeName string) int64 {
	var n int64
	for _, l := range e.lanes {
		for t, c := range l.byType {
			if typeNameOf(t) == typeName {
				n += c
			}
		}
	}
	return n
}

// TypeNames returns all message body type names seen, sorted.
func (e *Engine) TypeNames() []string {
	seen := make(map[string]struct{})
	for _, l := range e.lanes {
		for t := range l.byType {
			seen[typeNameOf(t)] = struct{}{}
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
		clear(l.byType)
		clear(l.sentBy)
	}
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
	n, ok := e.nodes[id]
	if !ok {
		return nil
	}
	if n.owner != sim.None {
		if o, up := e.nodes[n.owner]; up {
			return o.h
		}
		return nil
	}
	return n.h
}

// Workers reports the configured physical parallelism (after clamping).
func (e *Engine) Workers() int { return e.opts.Workers }

// Lanes reports the configured shard count.
func (e *Engine) Lanes() int { return len(e.lanes) }

// laneCtx binds a lane to the currently executing node. One instance per
// lane is reused across all its events (handlers must not retain a
// Context), keeping the delivery path free of per-event allocations.
type laneCtx struct {
	l  *lane
	id sim.NodeID
}

func (c *laneCtx) Self() sim.NodeID { return c.id }
func (c *laneCtx) Send(to sim.NodeID, topic sim.Topic, body any) {
	c.l.send(sim.Message{To: to, From: c.id, Topic: topic, Body: body})
}
func (c *laneCtx) Rand() *rand.Rand { return c.l.rng }
func (c *laneCtx) Now() float64     { return c.l.now }
