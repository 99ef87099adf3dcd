package core

import (
	"math/rand"
	"slices"
	"sync"

	"sspubsub/internal/label"
	"sspubsub/internal/ordering"
	"sspubsub/internal/proto"
	"sspubsub/internal/pubsub"
	"sspubsub/internal/sim"
)

// Control messages a client sends to itself (through the ordinary message
// channel, so application commands work identically under the deterministic
// engine and the live runtimes).

// JoinTopic starts a BuildSR instance for the envelope's topic.
type JoinTopic struct{}

// LeaveTopic begins the unsubscribe handshake for the envelope's topic.
type LeaveTopic struct{}

// PublishCmd publishes a payload on the envelope's topic.
type PublishCmd struct{ Payload string }

// Options configure a client's per-topic instances.
type Options struct {
	// DeliveryMode selects the per-topic delivery discipline (best-effort,
	// FIFO per publisher, or causal — see internal/ordering). It applies to
	// every topic this client joins.
	DeliveryMode ordering.Mode

	// OnDeliverTrace, if non-nil, is invoked once per publication that
	// becomes known for a topic the client subscribes to, with its ordering
	// provenance. Options are shared across a deployment's clients, so the
	// delivering node is passed explicitly. It runs inside the protocol
	// handler: it must not call back into the Client.
	OnDeliverTrace func(node sim.NodeID, t sim.Topic, p proto.Publication, m ordering.Meta)

	// SupervisorFor, if non-nil, routes each topic to its responsible
	// supervisor (the multi-supervisor extension of Section 1.3); the
	// default supervisor is used otherwise.
	SupervisorFor func(sim.Topic) sim.NodeID

	// Supervisors is the static supervisor plane (all supervisor node IDs).
	// With two or more, subscribers re-home to a topic's current owner on
	// supervisor failover and probe the plane when their owner goes silent;
	// empty or single-entry sets disable both (nothing to fail over to).
	Supervisors []sim.NodeID

	// HistoryCap bounds each topic trie to the HistoryCap publications
	// with the largest keys — the newest, keys being age-ordered (0 =
	// unlimited, the paper's monotone store). See pubsub.Config.HistoryCap.
	HistoryCap int

	// Ablation switches (internal/experiments flips them in E7, E8, A1,
	// A2 and A3).
	DisableFlooding    bool
	DisableAntiEntropy bool
	DisableActionIV    bool
	ProbeProb          func(k int) float64
}

// Client is the sim.Handler for one physical subscriber node: it routes
// messages to per-topic Subscriber instances and their publication engines
// (Section 4: "by assigning the topic number to each message that is sent
// out, we can identify the appropriate protocol at the receiver"). The
// instances are one slice sorted by topic, found by binary search; the
// order is also the one OnTimeout drives them in.
type Client struct {
	mu    sync.Mutex
	id    sim.NodeID
	sup   sim.NodeID
	opts  Options
	insts []topicInstance
}

// Instance pairs one topic's overlay protocol with its publication engine.
type Instance struct {
	Sub *Subscriber
	Eng *pubsub.Engine
}

// topicInstance is one entry of a client's instance slice.
type topicInstance struct {
	topic sim.Topic
	in    Instance
}

// NewClient creates a client with no subscriptions.
func NewClient(id, supervisor sim.NodeID, opts Options) *Client {
	return &Client{id: id, sup: supervisor, opts: opts}
}

// ID returns the client's node ID.
func (c *Client) ID() sim.NodeID { return c.id }

// search returns the index of topic t's instance, or where to insert it.
func (c *Client) search(t sim.Topic) (int, bool) {
	lo, hi := 0, len(c.insts)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); c.insts[m].topic < t {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(c.insts) && c.insts[lo].topic == t
}

// find returns topic t's instance, or nil. The pointer is into the slice,
// so a later join may move it.
func (c *Client) find(t sim.Topic) *Instance {
	if i, ok := c.search(t); ok {
		return &c.insts[i].in
	}
	return nil
}

// ensure returns topic t's instance, starting one when there is none.
func (c *Client) ensure(t sim.Topic) *Instance {
	i, ok := c.search(t)
	if !ok {
		c.insts = slices.Insert(c.insts, i, topicInstance{topic: t, in: c.newInstance(t)})
	}
	return &c.insts[i].in
}

// newInstance builds a fresh instance for topic t.
func (c *Client) newInstance(t sim.Topic) Instance {
	sup := c.sup
	if c.opts.SupervisorFor != nil {
		if alt := c.opts.SupervisorFor(t); alt != sim.None {
			sup = alt
		}
	}
	sub := NewSubscriber(c.id, sup, t)
	sub.SetPlane(c.opts.Supervisors)
	sub.DisableActionIV = c.opts.DisableActionIV
	sub.ProbeProb = c.opts.ProbeProb
	cfg := pubsub.Config{
		Self:               c.id,
		Topic:              t,
		RingNeighbors:      sub.RingNeighbors,
		Position:           func() uint64 { return sub.Label().Frac() },
		FloodTargets:       sub.FloodTargets,
		DisableFlooding:    c.opts.DisableFlooding,
		DisableAntiEntropy: c.opts.DisableAntiEntropy,
		HistoryCap:         c.opts.HistoryCap,
		Mode:               c.opts.DeliveryMode,
	}
	if c.opts.OnDeliverTrace != nil {
		topic := t
		cfg.OnDeliverMeta = func(p proto.Publication, m ordering.Meta) {
			c.opts.OnDeliverTrace(c.id, topic, p, m)
		}
	}
	return Instance{Sub: sub, Eng: pubsub.NewEngine(cfg)}
}

// OnTimeout drives every live instance's periodic actions.
func (c *Client) OnTimeout(ctx sim.Context) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.insts {
		in := &c.insts[i].in
		in.Sub.OnTimeout(ctx)
		if !in.Sub.Departed() {
			in.Eng.OnTimeout(ctx)
		}
	}
}

// OnMessage routes a message to the right per-topic instance, handling the
// client's own control commands first.
func (c *Client) OnMessage(ctx sim.Context, m sim.Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch b := m.Body.(type) {
	case JoinTopic:
		in := c.ensure(m.Topic)
		if in.Sub.Departed() {
			// Re-join after a completed unsubscribe: start a fresh instance
			// (the departed one only existed to answer residual
			// introductions with RemoveConnections). The rule counts carry
			// over, so they only ever grow.
			fired := in.Sub.fired
			*in = c.newInstance(m.Topic)
			in.Sub.fired = fired
		}
		if in.Sub.Label().IsBottom() {
			ctx.Send(in.Sub.Supervisor(), m.Topic, proto.Subscribe{V: c.id})
		}
		return
	case LeaveTopic:
		if in := c.find(m.Topic); in != nil {
			in.Sub.Leave(ctx)
		}
		return
	case PublishCmd:
		if in := c.find(m.Topic); in != nil && !in.Sub.Departed() {
			in.Eng.Publish(ctx, b.Payload)
		}
		return
	}
	in := c.find(m.Topic)
	if in == nil {
		// Topology traffic for a topic we never joined (corrupted initial
		// channels): behave like a ⊥-labelled node and ask the sender to
		// drop its edges to us. RemoveConnections never triggers replies,
		// so this cannot loop.
		switch m.Body.(type) {
		case proto.Check, proto.Introduce, proto.Linearize, proto.IntroduceShortcut, proto.SetData:
			if m.From != sim.None && m.From != c.id {
				ctx.Send(m.From, m.Topic, proto.RemoveConnections{V: c.id})
			}
		}
		return
	}
	if in.Eng.OnMessage(ctx, m) {
		return
	}
	in.Sub.OnMessage(ctx, m)
}

// ---- thread-safe introspection ----

// Topics returns the topics with an instance, sorted.
func (c *Client) Topics() []sim.Topic {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]sim.Topic, len(c.insts))
	for i := range c.insts {
		out[i] = c.insts[i].topic
	}
	return out
}

// Joined reports whether the client has a live (non-departed) instance.
func (c *Client) Joined(t sim.Topic) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	in := c.find(t)
	return in != nil && !in.Sub.Departed()
}

// Labelled reports whether the client currently holds a non-⊥ label for
// the topic. Unlike StateOf it allocates nothing — the scale harness polls
// it across 10^5+ subscribers every round, where StateOf's shortcut-map
// copy would dominate the run.
func (c *Client) Labelled(t sim.Topic) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	in := c.find(t)
	return in != nil && !in.Sub.Departed() && !in.Sub.Label().IsBottom()
}

// ReportsTo returns the supervisor the client currently believes owns the
// topic (sim.None without an instance). Allocation-free like Labelled —
// the scale harness' failover probe polls it across 10^5+ subscribers.
func (c *Client) ReportsTo(t sim.Topic) sim.NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	in := c.find(t)
	if in == nil {
		return sim.None
	}
	return in.Sub.Supervisor()
}

// CurrentLabel returns the client's label for the topic (⊥ without an
// instance), without StateOf's allocations.
func (c *Client) CurrentLabel(t sim.Topic) label.Label {
	c.mu.Lock()
	defer c.mu.Unlock()
	in := c.find(t)
	if in == nil {
		return label.Bottom
	}
	return in.Sub.Label()
}

// PublicationCount returns the number of locally known publications for
// the topic without materializing them (the scale harness' fan-out probe).
func (c *Client) PublicationCount(t sim.Topic) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	in := c.find(t)
	if in == nil {
		return 0
	}
	return in.Eng.Trie().Len()
}

// RuleCounts returns how often each subscriber Rule has fired for the topic
// (all zero without an instance). Counts only grow, so a window is measured
// as the difference of two reads. Allocation-free.
func (c *Client) RuleCounts(t sim.Topic) [NumRules]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	in := c.find(t)
	if in == nil {
		return [NumRules]uint64{}
	}
	return in.Sub.fired
}

// Departed reports whether an unsubscribe completed for the topic.
func (c *Client) Departed(t sim.Topic) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	in := c.find(t)
	return in != nil && in.Sub.Departed()
}

// State is a read-only snapshot of one instance's explicit protocol state.
type State struct {
	Label     label.Label
	Left      proto.Tuple
	Right     proto.Tuple
	Ring      proto.Tuple
	Shortcuts map[label.Label]sim.NodeID
	Version   uint64
	Departed  bool
	// Leaving marks an unsubscribe in flight (requested, not yet granted).
	Leaving bool
	// Sup is the supervisor the instance currently reports to (the believed
	// topic owner on a sharded plane); Epoch is the ownership era of the
	// last accepted configuration.
	Sup   sim.NodeID
	Epoch uint64
}

// StateOf snapshots the instance for topic t; ok is false if none exists.
func (c *Client) StateOf(t sim.Topic) (State, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	in := c.find(t)
	if in == nil {
		return State{}, false
	}
	return State{
		Label:     in.Sub.Label(),
		Left:      in.Sub.Left(),
		Right:     in.Sub.Right(),
		Ring:      in.Sub.Ring(),
		Shortcuts: in.Sub.Shortcuts(),
		Version:   in.Sub.Version(),
		Departed:  in.Sub.Departed(),
		Leaving:   in.Sub.Leaving(),
		Sup:       in.Sub.Supervisor(),
		Epoch:     in.Sub.Epoch(),
	}, true
}

// Publications returns the known publications for a topic, in key order.
func (c *Client) Publications(t sim.Topic) []proto.Publication {
	c.mu.Lock()
	defer c.mu.Unlock()
	in := c.find(t)
	if in == nil {
		return nil
	}
	return in.Eng.Publications()
}

// TrieRootHash returns the root hash of the topic's trie (zero for empty).
func (c *Client) TrieRootHash(t sim.Topic) [16]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	in := c.find(t)
	if in == nil {
		return [16]byte{}
	}
	if root, ok := in.Eng.Trie().RootSummary(); ok {
		return root.Hash
	}
	return [16]byte{}
}

// Degree returns the number of distinct known overlay neighbours.
func (c *Client) Degree(t sim.Topic) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	in := c.find(t)
	if in == nil {
		return 0
	}
	return in.Sub.Degree()
}

// CorruptOrdering scrambles the client's ordering state for topic t — the
// corrupt-ordering chaos fault. No-op on best-effort topics or without an
// instance.
func (c *Client) CorruptOrdering(t sim.Topic, rng *rand.Rand) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if in := c.find(t); in != nil {
		in.Eng.CorruptOrdering(rng)
	}
}

// Instance exposes a copy of the raw per-topic instance for deterministic
// tests; it must not be used concurrently with a live runtime.
func (c *Client) Instance(t sim.Topic) (*Instance, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if in := c.find(t); in != nil {
		cp := *in
		return &cp, true
	}
	return nil, false
}

var _ sim.Handler = (*Client)(nil)
