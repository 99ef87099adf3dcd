package sspubsub

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sspubsub/internal/cluster"
	"sspubsub/internal/core"
	"sspubsub/internal/ordering"
	"sspubsub/internal/proto"
	"sspubsub/internal/runtime/concurrent"
	"sspubsub/internal/sim"
)

// DeliveryMode selects the delivery discipline clients apply to
// publications before handing them to the application (the Mode constants
// below). The zero value is best-effort — the paper's semantics.
type DeliveryMode = ordering.Mode

// Delivery modes. ModeBestEffort (the default) delivers each publication
// exactly once per subscriber with no ordering promise. ModeFIFO delivers
// each publisher's publications in publish order, absorbing transport
// reordering in a bounded window; a gap that outlives the window is
// declared lost and the cursor advances, so corrupted or wrapped sequence
// state always converges. ModeCausal additionally holds a publication
// until the bounded causal-barrier summary it carries — the publisher's
// recently-observed publishers — is satisfied, with a hard cap on tracked
// publishers and deterministic eviction. Both ordered modes keep O(1)
// bounded state per subscriber and degrade to declared loss, never
// deadlock (see the README's "Delivery modes" section).
const (
	ModeBestEffort = ordering.BestEffort
	ModeFIFO       = ordering.FIFO
	ModeCausal     = ordering.Causal
)

// Protocol holds the protocol-level options a System and a Simulation
// share; both embed it, so its fields are set as
// Options{Protocol: Protocol{Supervisors: 3}} and read as opts.Supervisors.
type Protocol struct {
	// HistoryCap bounds how many publications each subscriber retains per
	// topic: when the stored set exceeds the cap, the publications with
	// the smallest keys are evicted. 0 means unlimited — the paper's
	// monotone store, where every subscriber keeps every publication
	// forever. Unlimited retention is an unbounded memory leak under
	// sustained publishing (≈96 B + payload per publication per
	// subscriber), so long-running deployments should set a cap; eviction
	// is by key, a pure function of the stored set, so capped replicas
	// still converge to identical tries. With a cap, a publication evicted
	// and later relearned through anti-entropy is delivered again
	// (at-least-once); with 0 delivery stays exactly-once.
	HistoryCap int
	// DeliveryMode selects the delivery ordering discipline every client
	// applies (default ModeBestEffort). It is client configuration only:
	// supervisors neither read nor record it. On RuntimeSim ordered runs
	// replay bit-exactly from the seed.
	DeliveryMode DeliveryMode
	// Supervisors is the number of supervisor nodes (default 1), with node
	// IDs 1 … Supervisors; client IDs start after that block. With more
	// than one, topics are spread over the supervisors by consistent
	// hashing — the scalability extension of Section 1.3 — and the
	// supervisor plane is crash-tolerant: supervisors monitor each other,
	// a crashed supervisor's topics migrate to their hashdht successors,
	// and each successor rebuilds its topic databases from the live
	// subscribers (see CrashSupervisor / RestartSupervisor).
	Supervisors int
	// ReplicationFactor is how many hashdht successors each topic owner
	// streams its directory to (default 0). With a factor ≥ 1 a crashed
	// supervisor's topics fail over from the successor's warm replica —
	// the self-stabilizing anti-entropy keeps replicas convergent from
	// arbitrary corruption — and the subscriber-driven Reregister rebuild
	// becomes the fallback for stale or absent replicas. Only meaningful
	// with Supervisors > 1.
	ReplicationFactor int
}

// harness is the one place the shared options become harness options.
func (p Protocol) harness() cluster.Options {
	return cluster.Options{
		ClientOpts: core.Options{
			HistoryCap:   p.HistoryCap,
			DeliveryMode: p.DeliveryMode,
		},
		Supervisors:       p.Supervisors,
		ReplicationFactor: p.ReplicationFactor,
	}
}

// Options configure a live System.
type Options struct {
	// Protocol holds the options shared with SimOptions.
	Protocol
	// Interval is the protocol timeout interval (default 10ms). Smaller
	// intervals stabilize faster at higher background message cost.
	Interval time.Duration
	// Seed drives protocol coin flips (live runs are still subject to
	// goroutine scheduling).
	Seed int64
	// EventBuffer is each subscription's delivery channel capacity
	// (default 256). When a consumer lags, the oldest buffered events are
	// dropped from the channel — the retained history (the newest
	// HistoryCap publications, or everything when HistoryCap is 0) remains
	// available via Subscription.History.
	EventBuffer int
	// Transport overrides the execution substrate the nodes run on. When
	// nil, a concurrent goroutine runtime (internal/runtime/concurrent)
	// with Interval and Seed is used. The System takes ownership and
	// closes it on Close.
	Transport sim.Transport
	// Attach, when true, creates no local supervisors: the system joins an
	// existing deployment whose supervisor (node 1) lives in another
	// process, reachable through Transport (typically a
	// nettransport.NewJoiner). Supervisor-side observability (Stable,
	// WaitStable, TopicSize) is unavailable; use WaitJoined.
	Attach bool
	// FirstClientID sets the first client node ID. Attached systems must
	// set it to the base of the ID block their transport was granted so
	// IDs are unique across processes. Default: after the supervisors.
	FirstClientID sim.NodeID
}

// System is a running supervised publish-subscribe system: a supervisor
// plane plus any number of clients, each a goroutine-backed protocol node.
// The nodes live in a cluster.Live harness; System adds what an
// application needs on top — topic and client names, subscriptions — and
// the locking that lets any goroutine call it.
type System struct {
	opts Options

	// hmu serializes the driver calls into h, which is single-driver, and
	// orders Close against NewClient and Subscribe: each of those runs
	// wholly before Close, whose snapshot then includes what it added, or
	// sees the system closed.
	hmu sync.Mutex
	h   *cluster.Live

	// mu guards the name tables. Deliveries take it on node goroutines, with
	// the delivering client's own lock held, so nothing that locks a client
	// — no call into h — may run under it.
	mu      sync.Mutex
	topics  map[string]sim.Topic
	names   map[sim.Topic]string
	clients map[sim.NodeID]*Client
	byName  map[string]*Client
	closed  bool
}

// NewSystem starts a system with its supervisors and no clients.
func NewSystem(opts Options) *System {
	if opts.Interval == 0 {
		opts.Interval = 10 * time.Millisecond
	}
	if opts.EventBuffer == 0 {
		opts.EventBuffer = 256
	}
	tr := opts.Transport
	if tr == nil {
		tr = concurrent.NewRuntime(concurrent.Options{Interval: opts.Interval, Seed: opts.Seed})
	}
	s := &System{
		opts:    opts,
		topics:  make(map[string]sim.Topic),
		names:   make(map[sim.Topic]string),
		clients: make(map[sim.NodeID]*Client),
		byName:  make(map[string]*Client),
	}
	ho := opts.harness()
	ho.ClientOpts.OnDeliverTrace = s.deliver
	ho.Remote = opts.Attach
	ho.FirstClientID = opts.FirstClientID
	s.h = cluster.New(tr, ho)
	return s
}

// errClosed is what calls into a System return after Close.
var errClosed = errors.New("sspubsub: system closed")

// Close stops every node goroutine. Subscription channels are closed,
// including those Subscribe hands out afterwards.
func (s *System) Close() {
	s.hmu.Lock()
	defer s.hmu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	clients := make([]*Client, 0, len(s.clients))
	for _, c := range s.clients {
		clients = append(clients, c)
	}
	s.mu.Unlock()
	s.h.Tr.Close()
	for _, c := range clients {
		c.closeSubs()
	}
}

func (s *System) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// topicIDFor derives the wire identity of a topic name. Every process of
// a networked deployment must agree on it without coordination (frames
// carry the ID, not the name), so it is a hash of the name — never an
// allocation counter, which would depend on per-process first-use order.
// Placement on the supervisor ring hashes this ID (internal/hashdht), never
// the name, so client routing and supervisor ownership agree by
// construction.
func topicIDFor(name string) sim.Topic {
	h := fnv.New32a()
	h.Write([]byte(name))
	t := sim.Topic(h.Sum32() & 0x7fffffff)
	if t == 0 {
		return 1
	}
	return t
}

// topicID resolves (and caches) the stable ID of a topic name.
func (s *System) topicID(name string) sim.Topic {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.topics[name]; ok {
		return t
	}
	t := topicIDFor(name)
	if prev, taken := s.names[t]; taken && prev != name {
		// A 32-bit collision between live topic names (≈1 in 4 billion per
		// pair). Conflating two topics would corrupt both rings; refuse.
		panic(fmt.Sprintf("sspubsub: topic ID collision between %q and %q", prev, name))
	}
	s.topics[name] = t
	s.names[t] = name
	return t
}

// SupervisorCount returns the number of supervisors the system was
// configured with.
func (s *System) SupervisorCount() int { return len(s.h.SupIDs) }

// supervisorAt resolves a 0-based supervisor index to the node to crash or
// restart.
func (s *System) supervisorAt(i int) (sim.NodeID, error) {
	if s.opts.Attach {
		return sim.None, fmt.Errorf("sspubsub: attached systems host no supervisors")
	}
	if i < 0 || i >= len(s.h.SupIDs) {
		return sim.None, fmt.Errorf("sspubsub: supervisor index %d out of range [0,%d)", i, len(s.h.SupIDs))
	}
	return s.h.SupIDs[i], nil
}

// CrashSupervisor fails supervisor i (0-based, of Options.Supervisors)
// without warning. Its topics are orphaned until the surviving
// supervisors' failure detector migrates them to their hashdht successors,
// which rebuild the topic databases from the live subscribers; client
// routing follows immediately. The supervisor's state is retained so
// RestartSupervisor can bring it back (with that stale state).
func (s *System) CrashSupervisor(i int) error {
	id, err := s.supervisorAt(i)
	if err != nil {
		return err
	}
	s.hmu.Lock()
	defer s.hmu.Unlock()
	if s.h.CrashSupervisor(id) {
		return nil
	}
	for _, down := range s.h.DownedSupervisors() {
		if down == id {
			return fmt.Errorf("sspubsub: supervisor %d already crashed", i)
		}
	}
	return fmt.Errorf("sspubsub: refusing to crash the last live supervisor")
}

// RestartSupervisor brings a crashed supervisor back with the stale state
// it crashed with — an arbitrary initial plane state the self-stabilizing
// ownership machinery repairs (the restarted supervisor reclaims its
// topics at a fresh ownership epoch).
func (s *System) RestartSupervisor(i int) error {
	id, err := s.supervisorAt(i)
	if err != nil {
		return err
	}
	s.hmu.Lock()
	defer s.hmu.Unlock()
	if !s.h.RestartSupervisor(id) {
		return fmt.Errorf("sspubsub: supervisor %d is not crashed", i)
	}
	return nil
}

// NewClient creates and starts a client node. Names must be unique.
func (s *System) NewClient(name string) (*Client, error) {
	// hmu spans the whole registration, so two NewClient calls cannot both
	// pass the name check, and it is taken before mu as everywhere else.
	s.hmu.Lock()
	defer s.hmu.Unlock()
	s.mu.Lock()
	_, dup := s.byName[name]
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, errClosed
	}
	if dup {
		return nil, fmt.Errorf("sspubsub: duplicate client name %q", name)
	}
	id := s.h.AddClient()
	c := &Client{sys: s, name: name, id: id, cc: s.h.Clients[id], subs: make(map[sim.Topic]*Subscription)}
	s.mu.Lock()
	s.clients[id] = c
	s.byName[name] = c
	s.mu.Unlock()
	return c, nil
}

// MustClient is NewClient that panics on error (examples and tests).
func (s *System) MustClient(name string) *Client {
	c, err := s.NewClient(name)
	if err != nil {
		panic(err)
	}
	return c
}

// clientName resolves a node ID to its client name ("?" if unknown). Lock
// held.
func (s *System) clientName(id sim.NodeID) string {
	if c, ok := s.clients[id]; ok {
		return c.name
	}
	if s.h.IsSupervisor(id) {
		return "supervisor"
	}
	return "?"
}

// Members returns the names of the clients currently subscribed to topic.
func (s *System) Members(topic string) []string {
	t := s.topicID(topic)
	s.hmu.Lock()
	ids := s.h.Members(t)
	s.hmu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = s.clientName(id)
	}
	sort.Strings(out)
	return out
}

// Stable reports whether the topic's overlay is currently in its
// legitimate state: the supervisor database matches the members, every
// member's explicit state equals the unique legitimate skip ring and — with
// several supervisors — exactly the topic's owner hosts it and every member
// reports to that owner at its epoch.
func (s *System) Stable(topic string) bool { return s.explain(topic) == "" }

// explain returns the first legitimacy violation, or "".
func (s *System) explain(topic string) string {
	if s.opts.Attach {
		return "supervisor is not local to this process (attached system)"
	}
	t := s.topicID(topic)
	s.hmu.Lock()
	defer s.hmu.Unlock()
	return s.h.Explain(t)
}

// poll evaluates pred once per Interval until it holds or the timeout
// expires.
func (s *System) poll(timeout time.Duration, pred func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if pred() {
			return true
		}
		time.Sleep(s.opts.Interval)
	}
	return false
}

// WaitStable polls until the topic overlay is legitimate with exactly n
// members, or the timeout expires. On an attached system, whose supervisor
// is remote, it returns false at once.
func (s *System) WaitStable(topic string, n int, timeout time.Duration) bool {
	if s.opts.Attach {
		return false
	}
	t := s.topicID(topic)
	return s.poll(timeout, func() bool {
		s.hmu.Lock()
		defer s.hmu.Unlock()
		return s.h.ConvergedWith(t, n)
	})
}

// TopicSize returns the member count recorded by the topic's supervisor —
// across all processes of a networked deployment, since remote
// subscribers register with the same supervisor. It returns -1 on
// attached systems, where the supervisor is remote.
func (s *System) TopicSize(topic string) int {
	t := s.topicID(topic)
	s.hmu.Lock()
	defer s.hmu.Unlock()
	sup := s.h.SupFor(t)
	if sup == nil {
		return -1
	}
	return sup.N(t)
}

// WaitJoined polls until n of this process's clients hold a live,
// labelled instance of the topic, or the timeout expires. Unlike
// WaitStable it needs no local supervisor, so it is the join barrier for
// attached (multi-process) systems: a client only obtains a label once
// the remote supervisor has integrated it.
func (s *System) WaitJoined(topic string, n int, timeout time.Duration) bool {
	t := s.topicID(topic)
	return s.poll(timeout, func() bool {
		s.hmu.Lock()
		defer s.hmu.Unlock()
		joined := 0
		for _, cl := range s.h.Clients {
			if cl.Labelled(t) {
				joined++
			}
		}
		return joined >= n
	})
}

// Publication is one published item as seen by applications.
type Publication struct {
	Topic   string
	Origin  string // publishing client's name
	Payload string
}

// Client is one application endpoint: a physical node that can subscribe
// to topics and publish on them.
type Client struct {
	sys  *System
	name string
	id   sim.NodeID
	cc   *core.Client

	mu   sync.Mutex
	subs map[sim.Topic]*Subscription
}

// Name returns the client's name.
func (c *Client) Name() string { return c.name }

// Subscribe joins a topic and returns the subscription handle. Subscribing
// twice to the same topic returns the existing subscription. After the
// system is closed it returns a subscription whose Events channel is
// already closed.
func (c *Client) Subscribe(topic string) *Subscription {
	t := c.sys.topicID(topic)
	c.sys.hmu.Lock()
	defer c.sys.hmu.Unlock()
	closed := c.sys.isClosed()
	c.mu.Lock()
	sub, ok := c.subs[t]
	if !ok {
		sub = &Subscription{
			client: c,
			topic:  topic,
			tid:    t,
			events: make(chan Publication, c.sys.opts.EventBuffer),
		}
		if closed {
			sub.close()
		} else {
			c.subs[t] = sub
		}
	}
	c.mu.Unlock()
	if !ok && !closed {
		c.sys.h.Join(c.id, t)
	}
	return sub
}

// Publish publishes a payload on a topic the client subscribes to. It
// returns an error if the system is closed or the client never subscribed
// (in this system, as in the paper, publishers are subscribers of the
// topic's skip ring).
func (c *Client) Publish(topic, payload string) error {
	t := c.sys.topicID(topic)
	if c.sys.isClosed() {
		return errClosed
	}
	c.mu.Lock()
	_, subscribed := c.subs[t]
	c.mu.Unlock()
	if !subscribed {
		return fmt.Errorf("sspubsub: %s is not subscribed to %q", c.name, topic)
	}
	c.sys.h.Publish(c.id, t, payload)
	return nil
}

// History returns the publications currently retained for the topic,
// oldest key first (the Patricia-trie contents, Section 4.2). With
// Options.HistoryCap set this is the newest HistoryCap publications by
// key; with 0 it is everything ever known.
func (c *Client) History(topic string) []Publication {
	t := c.sys.topicID(topic)
	pubs := c.cc.Publications(t)
	out := make([]Publication, len(pubs))
	c.sys.mu.Lock()
	defer c.sys.mu.Unlock()
	for i, p := range pubs {
		out[i] = Publication{Topic: topic, Origin: c.sys.clientName(p.Origin), Payload: p.Payload}
	}
	return out
}

// Degree returns the client's current overlay degree for a topic.
func (c *Client) Degree(topic string) int {
	return c.cc.Degree(c.sys.topicID(topic))
}

// Label returns the client's current overlay label for a topic (a bit
// string such as "011", or "⊥" before the supervisor assigns one).
func (c *Client) Label(topic string) string {
	st, ok := c.cc.StateOf(c.sys.topicID(topic))
	if !ok {
		return "⊥"
	}
	return st.Label.String()
}

// deliver routes one protocol delivery to the delivering client's
// subscription channel. It runs on that client's node goroutine, inside the
// protocol handler, and must not call back into the harness.
func (s *System) deliver(node sim.NodeID, t sim.Topic, p proto.Publication, _ ordering.Meta) {
	s.mu.Lock()
	c := s.clients[node]
	origin := s.clientName(p.Origin)
	s.mu.Unlock()
	if c == nil {
		return
	}
	c.mu.Lock()
	sub := c.subs[t]
	c.mu.Unlock()
	if sub == nil {
		return
	}
	sub.push(Publication{Topic: sub.topic, Origin: origin, Payload: p.Payload})
}

func (c *Client) closeSubs() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, sub := range c.subs {
		sub.close()
	}
}

// Subscription is a client's handle on one topic.
type Subscription struct {
	client *Client
	topic  string
	tid    sim.Topic
	events chan Publication

	dropped atomic.Int64

	mu     sync.Mutex
	closed bool
}

// Topic returns the topic name.
func (s *Subscription) Topic() string { return s.topic }

// Events returns the delivery channel. Every publication that becomes
// known to this subscriber (via flooding or anti-entropy) is sent exactly
// once; when the buffer overflows the oldest entries are dropped — each
// drop is counted (Dropped) and the retained set stays available via
// History.
func (s *Subscription) Events() <-chan Publication { return s.events }

// Dropped returns how many buffered events have been discarded because
// the consumer lagged behind the delivery rate. A growing value means the
// reader of Events is too slow for its EventBuffer; the events themselves
// are not lost to the system — History still has them (up to the
// configured HistoryCap).
func (s *Subscription) Dropped() int64 { return s.dropped.Load() }

// History returns all publications currently known for the topic.
func (s *Subscription) History() []Publication { return s.client.History(s.topic) }

// Unsubscribe leaves the topic: the supervisor excises this node from the
// skip ring (Section 4.1) and the delivery channel is closed.
func (s *Subscription) Unsubscribe() {
	c := s.client
	c.sys.h.Leave(c.id, s.tid)
	c.mu.Lock()
	delete(c.subs, s.tid)
	c.mu.Unlock()
	s.close()
}

// push delivers one event, dropping the oldest buffered entry when the
// consumer lags. push and close share the mutex, so a send can never race
// a channel close.
func (s *Subscription) push(pub Publication) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	for {
		select {
		case s.events <- pub:
			return
		default:
			select {
			case <-s.events:
				s.dropped.Add(1)
			default:
			}
		}
	}
}

func (s *Subscription) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		close(s.events)
	}
}
