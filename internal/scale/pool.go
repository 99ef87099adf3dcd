package scale

import (
	"math/rand"

	"sspubsub/internal/core"
	"sspubsub/internal/sim"
)

// Substrate is the transport seam the harness multiplexes over: any
// sim.Transport that can alias virtual node IDs onto a pool node. Only the
// deterministic engine (internal/psim) provides it; the live runtimes run
// one goroutine per node and have no listener aliases.
type Substrate interface {
	sim.Transport
	AddListener(id, owner sim.NodeID)
}

// Pool is a sim.Handler hosting K virtual subscribers — real, unmodified
// core.Client protocol state machines — behind one physical node. The pool
// node owns the timeout chain (one engine event for all K) and the
// mailbox; each virtual ID is a Substrate listener routing
// its traffic back here. Virtual IDs are the contiguous range
// [Base, Base+Len), so demultiplexing is arithmetic, not a map lookup.
//
// Every protocol message a virtual subscriber sends or receives is a real
// message through the substrate, with From/To naming the virtual ID — the
// supervisor and any non-pooled peers cannot tell a pooled subscriber from
// a dedicated node. Only the scheduling is multiplexed: all K subscribers
// tick in the same instant, at the pool's phase, instead of at K
// independent phases.
//
// A Pool takes no lock: every event of the pool and its listeners runs on
// the owner's engine lane, one at a time, and Kill and Live are barrier
// operations.
type Pool struct {
	base    sim.NodeID
	tr      sim.Transport
	clients []*core.Client
	dead    []bool // Kill'ed (crashed) virtual subscribers: skip their ticks
	ctx     poolCtx
	live    int
}

// NewPool creates K clients with IDs base … base+k−1 reporting to the
// given supervisor. Call Register to attach the pool to a substrate.
func NewPool(tr sim.Transport, base sim.NodeID, k int, supervisor sim.NodeID, opts core.Options) *Pool {
	p := &Pool{
		base:    base,
		tr:      tr,
		clients: make([]*core.Client, k),
		dead:    make([]bool, k),
		live:    k,
	}
	for i := range p.clients {
		p.clients[i] = core.NewClient(base+sim.NodeID(i), supervisor, opts)
	}
	return p
}

// Register adds the pool node under poolID and every virtual subscriber as
// a listener aliased to it.
func (p *Pool) Register(s Substrate, poolID sim.NodeID) {
	s.AddNode(poolID, p)
	for i := range p.clients {
		s.AddListener(p.base+sim.NodeID(i), poolID)
	}
}

// Base returns the first virtual ID.
func (p *Pool) Base() sim.NodeID { return p.base }

// Len returns the number of virtual subscribers (dead ones included).
func (p *Pool) Len() int { return len(p.clients) }

// Live returns the number of not-yet-killed virtual subscribers.
func (p *Pool) Live() int {
	return p.live
}

// Client returns the i-th virtual subscriber's state machine (introspection
// only — the protocol drives it through the pool).
func (p *Pool) Client(i int) *core.Client { return p.clients[i] }

// Kill marks the i-th virtual subscriber crashed inside the pool: its
// periodic actions stop and inbound messages are ignored. The caller must
// also Crash the virtual ID on the substrate so the failure detector
// starts suspecting it — Kill alone models only the silent half. Barrier
// operation, like the Crash it goes with.
func (p *Pool) Kill(i int) {
	if !p.dead[i] {
		p.dead[i] = true
		p.live--
	}
}

// OnTimeout drives every live virtual subscriber's periodic actions, in ID
// order. This preserves "every node executes its Timeout once per
// interval" (the paper's weakly fair action model) — the K subscribers
// just share one phase instead of K random ones.
func (p *Pool) OnTimeout(ctx sim.Context) {
	p.ctx.inner = ctx
	p.ctx.tr = p.tr
	for i, c := range p.clients {
		if p.dead[i] {
			continue
		}
		p.ctx.self = p.base + sim.NodeID(i)
		c.OnTimeout(&p.ctx)
	}
	p.ctx.inner = nil
}

// OnMessage routes a message to the virtual subscriber it addresses.
func (p *Pool) OnMessage(ctx sim.Context, m sim.Message) {
	i := int(m.To - p.base)
	if i < 0 || i >= len(p.clients) || p.dead[i] {
		return // not ours (stale routing) or crashed: the message vanishes
	}
	p.ctx.inner = ctx
	p.ctx.tr = p.tr
	p.ctx.self = m.To
	p.clients[i].OnMessage(&p.ctx, m)
	p.ctx.inner = nil
}

var _ sim.Handler = (*Pool)(nil)

// poolCtx presents the pool's execution context as one virtual
// subscriber's: Self and the From field of every Send name the virtual ID,
// so protocol peers see the subscriber, never the pool. One instance is
// reused across all K drives per tick (handlers must not retain a Context,
// per its contract), keeping the multiplexing allocation-free.
type poolCtx struct {
	inner sim.Context
	tr    sim.Transport
	self  sim.NodeID
}

func (c *poolCtx) Self() sim.NodeID { return c.self }
func (c *poolCtx) Send(to sim.NodeID, topic sim.Topic, body any) {
	c.tr.Send(sim.Message{To: to, From: c.self, Topic: topic, Body: body})
}
func (c *poolCtx) Rand() *rand.Rand { return c.inner.Rand() }
func (c *poolCtx) Now() float64     { return c.inner.Now() }
