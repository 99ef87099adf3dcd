package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"sspubsub"
	"sspubsub/internal/ordering"
	"sspubsub/internal/proto"
	"sspubsub/internal/psim"
	"sspubsub/internal/ring"
	"sspubsub/internal/sim"
	"sspubsub/internal/wire"
)

// replayFor is the least time a replay loop measures: long enough that the
// clock's resolution and a stray preemption are small next to it.
const replayFor = 60 * time.Millisecond

// frameMembers is how many messages the replay packs into one Batch2 frame,
// of the order of what one flush interval collects under load.
const frameMembers = 32

// codec is the wire layer's cost on the recorded message mix.
type codec struct {
	encodeNsPerMsg, decodeNsPerMsg float64
	encodeNsPerKiB, decodeNsPerKiB float64
	messages                       int
	bytesPerMsg                    float64
}

// replayCodec pushes the message bodies sampled during the traced pass
// through the transport's encode path (AppendBody once, then stamped into
// Batch2 members) and its decode path (UnmarshalState with a DecodeState).
func replayCodec(t *tracer) codec {
	var msgs []sim.Message
	for _, l := range t.logsOnce() {
		for _, m := range l.bodies {
			if wire.Encodable(m.Body) {
				msgs = append(msgs, m)
			}
		}
	}
	if len(msgs) == 0 {
		return codec{}
	}
	var tagged, buf []byte
	var frames [][]byte
	encodeAll := func(keep bool) int {
		bytes := 0
		for i := 0; i < len(msgs); i += frameMembers {
			batch := msgs[i:min(i+frameMembers, len(msgs))]
			buf = wire.BeginBatchFrame(buf[:0], len(batch))
			for _, m := range batch {
				tagged, _ = wire.AppendBody(tagged[:0], m.Body)
				buf = wire.AppendBatchMember(buf, m.To, m.From, m.Topic, tagged)
			}
			buf, _ = wire.FinishFrame(buf, 0)
			bytes += len(buf)
			if keep {
				frames = append(frames, append([]byte(nil), buf...))
			}
		}
		return bytes
	}
	bytes := encodeAll(true)
	c := codec{messages: len(msgs), bytesPerMsg: float64(bytes) / float64(len(msgs))}
	encNs, encReps := timeLoop(func() { encodeAll(false) })
	st := wire.NewDecodeState()
	decNs, decReps := timeLoop(func() {
		for _, f := range frames {
			if _, err := wire.UnmarshalState(f, st); err != nil {
				panic("layers: replayed frame does not decode: " + err.Error())
			}
			st.EndFrame()
		}
		st.Reset() // nothing decoded above is retained
	})
	n, kib := float64(len(msgs)), float64(bytes)/1024
	c.encodeNsPerMsg, c.encodeNsPerKiB = encNs/encReps/n, encNs/encReps/kib
	c.decodeNsPerMsg, c.decodeNsPerKiB = decNs/decReps/n, decNs/decReps/kib
	return c
}

// timeLoop repeats f until replayFor has passed and returns the elapsed
// nanoseconds and the repetition count.
func timeLoop(f func()) (ns, reps float64) {
	f() // warm caches and pools
	start := time.Now()
	for time.Since(start) < replayFor {
		f()
		reps++
	}
	return float64(time.Since(start)), reps
}

// replayRing is the SPSC ring's cost per element when bursts of the traced
// size are pushed and drained with PopN.
func replayRing(burst int) float64 {
	burst = max(burst, 1)
	r := ring.New[int](4096)
	dst := make([]int, burst)
	ns, reps := timeLoop(func() {
		for i := 0; i < 1024; i++ {
			for j := 0; j < burst; j++ {
				r.Push(j)
			}
			r.PopN(dst)
		}
	})
	return ns / reps / float64(1024*burst)
}

// replayOrdering feeds the busiest node's recorded arrival stream to a FIFO
// ordering.Buffer: publications in the order their flood copies arrived,
// numbered per publisher as the publisher would have (best-effort floods
// carry no sequence number); on a workload that publishes nothing, the
// senders of the node's first messages stand in as publishers. Best-effort
// delivery bypasses the buffer, so the number is a prior for a later fifo
// workload, not a share of today's latency.
func replayOrdering(t *tracer) (nsPerArrival float64, arrivals int) {
	var stream []origin
	for _, l := range t.logsOnce() {
		if len(l.origins) > len(stream) {
			stream = l.origins
		}
	}
	if len(stream) == 0 {
		for _, l := range t.logsOnce() {
			if len(l.senders) > len(stream) {
				stream = l.senders
			}
		}
	}
	if len(stream) == 0 {
		return 0, 0
	}
	// Rank each arrival among its publisher's generator sequence numbers:
	// that is the per-publisher sequence (from 1) a FIFO topic would carry.
	byNode := make(map[sim.NodeID][]uint64)
	for _, o := range stream {
		byNode[o.node] = append(byNode[o.node], o.seq)
	}
	for _, seqs := range byNode {
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	}
	pubs := make([]proto.Publication, len(stream))
	seqs := make([]uint64, len(stream))
	for i, o := range stream {
		pubs[i] = proto.Publication{Origin: o.node}
		own := byNode[o.node]
		seqs[i] = uint64(sort.Search(len(own), func(k int) bool { return own[k] >= o.seq })) + 1
	}
	ns, reps := timeLoop(func() {
		b := ordering.New(ordering.FIFO, sim.None, func(proto.Publication, ordering.Meta) {})
		for i := range pubs {
			b.Arrive(pubs[i], seqs[i], nil)
		}
	})
	return ns / reps / float64(len(stream)), len(stream)
}

// nullNode is the engine-only load: every timeout sends one message to the
// next node, every message is dropped on arrival.
type nullNode struct{ next sim.NodeID }

func (n nullNode) OnMessage(sim.Context, sim.Message) {}
func (n nullNode) OnTimeout(ctx sim.Context)          { ctx.Send(n.next, 1, proto.PublishBatch{}) }

// nullEventsPerSec is the parallel engine's event rate with handlers that do
// nothing: what psim itself costs per event.
func nullEventsPerSec(seed int64) float64 {
	const nodes, rounds = 512, 100
	workers := min(runtime.NumCPU(), 4)
	eng := psim.New(psim.Options{Seed: seed, Workers: workers})
	defer eng.Close()
	for i := 1; i <= nodes; i++ {
		eng.AddNode(sim.NodeID(i), nullNode{next: sim.NodeID(i%nodes + 1)})
	}
	eng.RunRounds(2)
	before := eng.Delivered()
	start := time.Now()
	eng.RunRounds(rounds)
	wall := time.Since(start).Seconds()
	events := float64(eng.Delivered()-before) + nodes*rounds // deliveries + timeouts
	return events / wall
}

// simCounts are exact message counts from a seeded pass on the deterministic
// scheduler: identical from run to run for one seed, so later issues may cite
// them as counts.
type simCounts struct {
	supMsgsPerJoin       float64 // supervisor sends until SR(n) is legitimate, per subscriber
	supMsgsPerTimeout    float64 // supervisor sends per round at rest
	msgsPerNodePerRound  float64 // all deliveries per node and round at rest: the constant check work
	msgsPerPub           float64 // flood messages (PublishNew) per publication
	restabilizeRounds    int     // rounds from a 10 % crash burst to the legitimate state
	converged, delivered bool
}

func countsSim(seed int64) simCounts {
	const n, restRounds, pubs = 256, 50, 200
	var c simCounts
	s := sspubsub.NewSimulation(sspubsub.SimOptions{Runtime: sspubsub.RuntimeSim, Seed: seed})
	defer s.Close()
	const topic sspubsub.Topic = 1
	ids := s.AddSubscribers(n)
	s.JoinAll(topic)
	_, c.converged = s.RunUntilConverged(topic, n, 5000)
	c.supMsgsPerJoin = float64(s.SupervisorSent()) / n

	s.ResetCounters()
	s.RunRounds(restRounds)
	c.supMsgsPerTimeout = float64(s.SupervisorSent()) / restRounds
	c.msgsPerNodePerRound = float64(s.MessagesDelivered()) / (n * restRounds)

	s.ResetCounters()
	for i := 0; i < pubs; i++ {
		s.Publish(ids[(i+int(uint64(seed)%n))%n], topic, fmt.Sprintf("count-%d", i))
		s.RunRounds(1)
	}
	_, c.delivered = s.RunUntil(2000, func() bool { return s.AllHavePubs(topic, pubs) && s.TriesEqual(topic) })
	c.msgsPerPub = float64(s.MessagesByType("proto.PublishNew")) / pubs

	for i := 0; i < n/10; i++ {
		s.Crash(ids[(i*10+int(uint64(seed)%10))%n])
	}
	var ok bool
	c.restabilizeRounds, ok = s.RunUntilConverged(topic, n-n/10, 5000)
	c.converged = c.converged && ok
	return c
}
