package chaos

import (
	"sync"

	"sspubsub/internal/ordering"
	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
)

// TraceEntry is one recorded delivery: what a member's application callback
// observed, in observation order. The delivery-ordering probe evaluates its
// invariants over these traces; deliveries the ordered layer flags as
// Recovered (anti-entropy repair) or Forced (self-stabilization release)
// are exempt from the ordering guarantees by contract and carry their flags
// here so the probe can skip them.
type TraceEntry struct {
	Origin    sim.NodeID
	Seq       uint64
	Payload   string
	Recovered bool
	Forced    bool
	Barrier   []proto.BarrierEntry
	// Epoch counts the corrupt-ordering faults applied before this
	// delivery. A corruption legitimately scrambles cursor positions, so
	// per-publisher monotonicity is only promised within one epoch;
	// causal coverage ("causes before effects") spans epochs, because a
	// delivery that happened never un-happens.
	Epoch int
}

// traceRec collects per-node delivery traces. record is installed as the
// cluster-wide OnDeliverTrace callback, so on the live substrates it runs
// on arbitrary node goroutines — every access takes the mutex.
type traceRec struct {
	mu     sync.Mutex
	epoch  int
	byNode map[sim.NodeID][]TraceEntry
}

func newTraceRec() *traceRec {
	return &traceRec{byNode: make(map[sim.NodeID][]TraceEntry)}
}

func (r *traceRec) record(node sim.NodeID, t sim.Topic, p proto.Publication, m ordering.Meta) {
	if t != topic {
		return
	}
	r.mu.Lock()
	r.byNode[node] = append(r.byNode[node], TraceEntry{
		Origin:    p.Origin,
		Seq:       m.Seq,
		Payload:   p.Payload,
		Recovered: m.Recovered,
		Forced:    m.Forced,
		Barrier:   m.Barrier,
		Epoch:     r.epoch,
	})
	r.mu.Unlock()
}

// bumpEpoch starts a new monotonicity epoch (called under freeze when a
// corrupt-ordering fault is applied).
func (r *traceRec) bumpEpoch() {
	r.mu.Lock()
	r.epoch++
	r.mu.Unlock()
}

// clone snapshots every trace (testing hook).
func (r *traceRec) clone() map[sim.NodeID][]TraceEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[sim.NodeID][]TraceEntry, len(r.byNode))
	for id, es := range r.byNode {
		out[id] = append([]TraceEntry(nil), es...)
	}
	return out
}
