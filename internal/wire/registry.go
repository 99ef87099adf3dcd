package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"reflect"
	"sort"

	"sspubsub/internal/core"
	"sspubsub/internal/label"
	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
)

// Type tags. Tags are part of the wire format: never renumber an existing
// tag, only append. Gaps are reserved for the message families they sit in.
const (
	// Supervisor-bound (Algorithm 3).
	tagSubscribe        = 1
	tagUnsubscribe      = 2
	tagGetConfiguration = 3
	// Supervisor → subscriber.
	tagSetData = 4
	// Ring maintenance (Algorithms 1, 2, 4).
	tagCheck             = 5
	tagIntroduce         = 6
	tagLinearize         = 7
	tagRemoveConnections = 8
	tagIntroduceShortcut = 9
	// Publication protocol (Algorithm 5).
	tagCheckTrie       = 10
	tagCheckAndPublish = 11
	tagPublishBatch    = 12
	tagPublishNew      = 13
	// 14, 15 and 16 are retired and must never be reassigned: they carried
	// the deleted token-passing supervisor variant (its circulating token,
	// the pass report and the staleness registration). Like 34 they are
	// absent from the registry, so such a frame or batch member is garbage.
	// Client self-commands (package core): a node's application plane
	// talks to its protocol plane through the same channels, so these
	// cross the wire whenever a driver steers a remote node.
	tagJoinTopic  = 17
	tagLeaveTopic = 18
	tagPublishCmd = 19
	// Supervisor plane (crash-tolerant sharded supervision): ownership
	// announcements, the re-registration handshake and the epoch gossip.
	tagReregister    = 20
	tagOwnerAnnounce = 21
	tagPlaneGossip   = 22
	// Directory replication (warm-replica supervisor failover): delta
	// stream, anti-entropy digests and bounded-chunk full sync.
	tagReplicaDelta  = 23
	tagReplicaDigest = 24
	tagReplicaSync   = 25
	// 26 and 27 are retired and must never be reassigned: they carried the
	// sequenced and causal-barrier publication frames, whose Seq and
	// Barrier PublishNew now carries itself. Absent from the registry like
	// 14–16 and 34.
	// Transport control (package nettransport): connection handshake.
	tagHello   = 32
	tagWelcome = 33
	// 34 is retired and must never be reassigned: it was Batch, the first
	// batching envelope (no member length prefixes), which an old peer may
	// still emit. It is deliberately absent from the registry, so such a
	// frame is counted garbage and skipped like any unknown tag.
	// Transport batching: one frame carrying many length-prefixed messages.
	tagBatch2 = 35
)

// Hello is the first frame on a dialed connection: the joiner asks the hub
// for a block of Slots node IDs. Base ⊥ requests a fresh block; a non-⊥
// Base reclaims the block granted before a reconnect.
type Hello struct {
	Base  sim.NodeID
	Slots uint32
}

// Welcome answers a Hello: node IDs [Base, Base+Slots) now belong to the
// dialing process.
type Welcome struct {
	Base  sim.NodeID
	Slots uint32
}

// Batch2 is the multi-message envelope the networked transport uses to
// carry one coalesced flush window as a single frame: one length prefix,
// one header, then every message's own (To, From, Topic, tag, body)
// encoding, each preceded by a uvarint byte length. The prefix lets a
// reader check each member's exact byte range and lets a writer splice a
// pre-encoded tagged body (AppendBody) into a batch without
// re-encoding. Batches do not nest — a Batch2 body inside a Batch2 is
// rejected on both encode and decode — a member whose decoded size
// disagrees with its prefix is garbage, and a batch with any garbage
// member is garbage as a whole (its messages become counted message
// loss, like any other garbage frame).
type Batch2 struct {
	Msgs []sim.Message
}

// lookupBatchable resolves a body that may ride inside a Batch2: it must
// be a registered type and must not itself be a batch.
func lookupBatchable(body any) (uint64, entry, error) {
	tag, ent, err := lookupBody(body)
	if err == nil && tag == tagBatch2 {
		err = fmt.Errorf("wire: batch inside batch")
	}
	return tag, ent, err
}

// Encodable reports whether a message with this body can be encoded as a
// frame of its own and inside a Batch2. The transport uses it to shed
// unencodable messages (as counted loss) before building a batch.
func Encodable(body any) bool {
	_, _, err := lookupBatchable(body)
	return err == nil
}

// entry is one registered message type. dec returns the zero body on
// failure; the latched dec.err carries the diagnosis.
type entry struct {
	zero any
	enc  func(*enc, any)
	dec  func(*dec) any
}

var registry = map[uint64]entry{
	tagSubscribe: {proto.Subscribe{},
		func(e *enc, b any) { e.node(b.(proto.Subscribe).V) },
		func(d *dec) any { return proto.Subscribe{V: d.node()} }},
	tagUnsubscribe: {proto.Unsubscribe{},
		func(e *enc, b any) { e.node(b.(proto.Unsubscribe).V) },
		func(d *dec) any { return proto.Unsubscribe{V: d.node()} }},
	tagGetConfiguration: {proto.GetConfiguration{},
		func(e *enc, b any) { e.node(b.(proto.GetConfiguration).V) },
		func(d *dec) any { return proto.GetConfiguration{V: d.node()} }},
	tagSetData: {proto.SetData{},
		func(e *enc, b any) {
			m := b.(proto.SetData)
			e.tuple(m.Pred)
			e.label(m.Label)
			e.tuple(m.Succ)
			e.uvarint(m.Epoch)
		},
		func(d *dec) any {
			return proto.SetData{Pred: d.tuple(), Label: d.labelv(), Succ: d.tuple(), Epoch: d.uvarint()}
		}},
	tagCheck: {proto.Check{},
		func(e *enc, b any) {
			m := b.(proto.Check)
			e.tuple(m.Sender)
			e.label(m.YourLabel)
			e.u8(uint8(m.Flag))
		},
		func(d *dec) any {
			return proto.Check{Sender: d.tuple(), YourLabel: d.labelv(), Flag: d.flag()}
		}},
	tagIntroduce: {proto.Introduce{},
		func(e *enc, b any) {
			m := b.(proto.Introduce)
			e.tuple(m.C)
			e.u8(uint8(m.Flag))
		},
		func(d *dec) any { return proto.Introduce{C: d.tuple(), Flag: d.flag()} }},
	tagLinearize: {proto.Linearize{},
		func(e *enc, b any) {
			m := b.(proto.Linearize)
			e.tuple(m.V)
			e.tuple(m.From)
		},
		func(d *dec) any { return proto.Linearize{V: d.tuple(), From: d.tuple()} }},
	tagRemoveConnections: {proto.RemoveConnections{},
		func(e *enc, b any) { e.node(b.(proto.RemoveConnections).V) },
		func(d *dec) any { return proto.RemoveConnections{V: d.node()} }},
	tagIntroduceShortcut: {proto.IntroduceShortcut{},
		func(e *enc, b any) { e.tuple(b.(proto.IntroduceShortcut).T) },
		func(d *dec) any { return proto.IntroduceShortcut{T: d.tuple()} }},
	tagCheckTrie: {proto.CheckTrie{},
		func(e *enc, b any) {
			m := b.(proto.CheckTrie)
			e.node(m.Sender)
			e.summaries(m.Nodes)
		},
		func(d *dec) any { return proto.CheckTrie{Sender: d.node(), Nodes: d.summaries()} }},
	tagCheckAndPublish: {proto.CheckAndPublish{},
		func(e *enc, b any) {
			m := b.(proto.CheckAndPublish)
			e.node(m.Sender)
			e.summaries(m.Nodes)
			e.key(m.Prefix)
		},
		func(d *dec) any {
			return proto.CheckAndPublish{Sender: d.node(), Nodes: d.summaries(), Prefix: d.key()}
		}},
	tagPublishBatch: {proto.PublishBatch{},
		func(e *enc, b any) {
			m := b.(proto.PublishBatch)
			e.uvarint(uint64(len(m.Pubs)))
			for _, p := range m.Pubs {
				e.publication(p)
			}
		},
		func(d *dec) any {
			n := d.sliceLen(3) // key ≥ 2 bytes, origin ≥ 1, payload len ≥ 1 — conservative floor
			pubs := d.grabPubs(n)
			for i := 0; i < n && d.err == nil; i++ {
				pubs = append(pubs, d.publication())
			}
			return proto.PublishBatch{Pubs: pubs}
		}},
	tagPublishNew: {proto.PublishNew{},
		func(e *enc, b any) {
			m := b.(proto.PublishNew)
			e.publication(m.Pub)
			e.uvarint(m.Seq)
			e.uvarint(uint64(len(m.Barrier)))
			for _, be := range m.Barrier {
				e.node(be.Origin)
				e.uvarint(be.Seq)
			}
			e.arc(m.Arc)
		},
		func(d *dec) any {
			m := proto.PublishNew{Pub: d.publication(), Seq: d.uvarint()}
			n := d.sliceLen(2) // origin ≥ 1 byte + seq ≥ 1 byte
			if n > 0 {
				m.Barrier = make([]proto.BarrierEntry, 0, n)
			}
			for i := 0; i < n && d.err == nil; i++ {
				m.Barrier = append(m.Barrier, proto.BarrierEntry{Origin: d.node(), Seq: d.uvarint()})
			}
			m.Arc = d.arc()
			return m
		}},
	tagJoinTopic: {core.JoinTopic{},
		func(e *enc, b any) {},
		func(d *dec) any { return core.JoinTopic{} }},
	tagLeaveTopic: {core.LeaveTopic{},
		func(e *enc, b any) {},
		func(d *dec) any { return core.LeaveTopic{} }},
	tagPublishCmd: {core.PublishCmd{},
		func(e *enc, b any) { e.str(b.(core.PublishCmd).Payload) },
		func(d *dec) any { return core.PublishCmd{Payload: d.str()} }},
	tagReregister: {proto.Reregister{},
		func(e *enc, b any) {
			m := b.(proto.Reregister)
			e.node(m.V)
			e.label(m.Label)
			e.uvarint(m.Epoch)
		},
		func(d *dec) any {
			return proto.Reregister{V: d.node(), Label: d.labelv(), Epoch: d.uvarint()}
		}},
	tagOwnerAnnounce: {proto.OwnerAnnounce{},
		func(e *enc, b any) {
			m := b.(proto.OwnerAnnounce)
			e.node(m.Owner)
			e.uvarint(m.Epoch)
		},
		func(d *dec) any {
			return proto.OwnerAnnounce{Owner: d.node(), Epoch: d.uvarint()}
		}},
	tagPlaneGossip: {proto.PlaneGossip{},
		func(e *enc, b any) {
			m := b.(proto.PlaneGossip)
			e.uvarint(uint64(len(m.Entries)))
			for _, te := range m.Entries {
				e.svarint(int64(te.Topic))
				e.uvarint(te.Epoch)
			}
		},
		func(d *dec) any {
			n := d.sliceLen(2) // topic ≥ 1 byte + epoch ≥ 1 byte
			var entries []proto.TopicEpoch
			if n > 0 {
				entries = make([]proto.TopicEpoch, 0, n)
			}
			for i := 0; i < n && d.err == nil; i++ {
				entries = append(entries, proto.TopicEpoch{Topic: sim.Topic(d.svarint()), Epoch: d.uvarint()})
			}
			return proto.PlaneGossip{Entries: entries}
		}},
	tagReplicaDelta: {proto.ReplicaDelta{},
		func(e *enc, b any) {
			m := b.(proto.ReplicaDelta)
			e.uvarint(m.Epoch)
			e.uvarint(uint64(len(m.Put)))
			for _, re := range m.Put {
				e.label(re.L)
				e.node(re.V)
			}
			e.uvarint(uint64(len(m.Del)))
			for _, l := range m.Del {
				e.label(l)
			}
		},
		func(d *dec) any {
			m := proto.ReplicaDelta{Epoch: d.uvarint()}
			n := d.sliceLen(3) // label ≥ 2 bytes + node ≥ 1
			if n > 0 {
				m.Put = make([]proto.ReplicaEntry, 0, n)
			}
			for i := 0; i < n && d.err == nil; i++ {
				m.Put = append(m.Put, proto.ReplicaEntry{L: d.labelv(), V: d.node()})
			}
			n = d.sliceLen(2) // label ≥ 2 bytes
			if n > 0 && d.err == nil {
				m.Del = make([]label.Label, 0, n)
			}
			for i := 0; i < n && d.err == nil; i++ {
				m.Del = append(m.Del, d.labelv())
			}
			return m
		}},
	tagReplicaDigest: {proto.ReplicaDigest{},
		func(e *enc, b any) {
			m := b.(proto.ReplicaDigest)
			e.boolean(m.Probe)
			e.uvarint(m.Epoch)
			e.uvarint(m.Count)
			e.raw(m.Hash[:]...)
		},
		func(d *dec) any {
			m := proto.ReplicaDigest{Probe: d.boolean(), Epoch: d.uvarint(), Count: d.uvarint()}
			d.bytes(m.Hash[:])
			return m
		}},
	tagReplicaSync: {proto.ReplicaSync{},
		func(e *enc, b any) {
			m := b.(proto.ReplicaSync)
			e.uvarint(m.Epoch)
			e.uvarint(m.Round)
			e.uvarint(m.Seq)
			e.uvarint(m.Chunks)
			e.uvarint(uint64(len(m.Entries)))
			for _, re := range m.Entries {
				e.label(re.L)
				e.node(re.V)
			}
		},
		func(d *dec) any {
			m := proto.ReplicaSync{
				Epoch: d.uvarint(), Round: d.uvarint(),
				Seq: d.uvarint(), Chunks: d.uvarint(),
			}
			n := d.sliceLen(3) // label ≥ 2 bytes + node ≥ 1
			if n > 0 {
				m.Entries = make([]proto.ReplicaEntry, 0, n)
			}
			for i := 0; i < n && d.err == nil; i++ {
				m.Entries = append(m.Entries, proto.ReplicaEntry{L: d.labelv(), V: d.node()})
			}
			return m
		}},
	tagHello: {Hello{},
		func(e *enc, b any) {
			m := b.(Hello)
			e.node(m.Base)
			e.uvarint(uint64(m.Slots))
		},
		func(d *dec) any { return Hello{Base: d.node(), Slots: d.u32()} }},
	tagWelcome: {Welcome{},
		func(e *enc, b any) {
			m := b.(Welcome)
			e.node(m.Base)
			e.uvarint(uint64(m.Slots))
		},
		func(d *dec) any { return Welcome{Base: d.node(), Slots: d.u32()} }},
}

// tagOf maps a body's concrete type to its tag; init builds it once the
// registry is complete.
var tagOf map[reflect.Type]uint64

// init completes the registry with the Batch2 entry (whose encoding
// recurses through lookupBody, so defining it inside the registry literal
// would be an initialization cycle) and builds the type→tag table.
func init() {
	registry[tagBatch2] = entry{Batch2{},
		func(e *enc, b any) {
			m := b.(Batch2)
			e.uvarint(uint64(len(m.Msgs)))
			for _, im := range m.Msgs {
				e.memberLP(im)
			}
		},
		func(d *dec) any {
			// Cheapest member: 1-byte length prefix, three 1-byte svarints
			// and a 1-byte tag.
			n := d.sliceLen(5)
			msgs := d.grabMsgs(n)
			for i := 0; i < n && d.err == nil; i++ {
				ln := d.uvarint()
				if d.err != nil {
					break
				}
				if ln < 4 || ln > uint64(len(d.b)-d.off) {
					d.fail("batch member length %d out of range", ln)
					break
				}
				end := d.off + int(ln)
				m := d.memberLP(end)
				if d.err == nil && d.off != end {
					d.fail("batch member decoded to %d bytes, length prefix said %d", int(ln)-(end-d.off), ln)
				}
				if d.err != nil {
					break
				}
				msgs = append(msgs, m)
			}
			return Batch2{Msgs: msgs}
		}}
	tagOf = make(map[reflect.Type]uint64, len(registry))
	for tag, ent := range registry {
		t := reflect.TypeOf(ent.zero)
		if _, dup := tagOf[t]; dup {
			panic(fmt.Sprintf("wire: type %v registered twice", t))
		}
		tagOf[t] = tag
	}
}

func lookupBody(body any) (uint64, entry, error) {
	if body == nil {
		return 0, entry{}, fmt.Errorf("wire: nil message body")
	}
	tag, ok := tagOf[reflect.TypeOf(body)]
	if !ok {
		return 0, entry{}, fmt.Errorf("wire: unregistered body type %T", body)
	}
	return tag, registry[tag], nil
}

// Registered returns "tag name" lines for every registered type, sorted by
// tag — the codec's self-description (used by docs and tests).
func Registered() []string {
	tags := make([]uint64, 0, len(registry))
	for t := range registry {
		tags = append(tags, t)
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i] < tags[j] })
	out := make([]string, len(tags))
	for i, t := range tags {
		out[i] = fmt.Sprintf("%d %s", t, sim.TypeName(registry[t].zero))
	}
	return out
}

// ---- shared field codecs ----

func (e *enc) node(id sim.NodeID) { e.svarint(int64(id)) }
func (d *dec) node() sim.NodeID   { return sim.NodeID(d.svarint()) }

func (d *dec) u32() uint32 {
	v := d.uvarint()
	if v > 1<<32-1 {
		d.fail("uint32 overflow: %d", v)
		return 0
	}
	return uint32(v)
}

func (e *enc) label(l label.Label) {
	e.uvarint(l.Bits)
	e.u8(l.Len)
}

func (d *dec) labelv() label.Label {
	return label.Label{Bits: d.uvarint(), Len: d.u8()}
}

func (e *enc) tuple(t proto.Tuple) {
	e.label(t.L)
	e.node(t.Ref)
}

func (d *dec) tuple() proto.Tuple {
	return proto.Tuple{L: d.labelv(), Ref: d.node()}
}

func (e *enc) key(k proto.Key) {
	e.uvarint(k.Bits)
	e.u8(k.Len)
}

func (d *dec) key() proto.Key {
	return proto.Key{Bits: d.uvarint(), Len: d.u8()}
}

func (d *dec) flag() proto.Flag {
	switch v := d.u8(); v {
	case uint8(proto.LIN), uint8(proto.CYC):
		return proto.Flag(v)
	default:
		d.fail("bad flag %d", v)
		return proto.LIN
	}
}

// arc encodes a forwarding-tree arc. Its bounds are label positions and
// midpoints between them, whose low bits are zero, so each is sent
// bit-reversed as a uvarint: at most three bytes up to a million members
// instead of ten.
func (e *enc) arc(a proto.Arc) {
	e.uvarint(bits.Reverse64(a.Lo))
	e.uvarint(bits.Reverse64(a.Hi))
}

func (d *dec) arc() proto.Arc {
	return proto.Arc{Lo: bits.Reverse64(d.uvarint()), Hi: bits.Reverse64(d.uvarint())}
}

func (e *enc) publication(p proto.Publication) {
	e.key(p.Key)
	e.node(p.Origin)
	e.str(p.Payload)
}

func (d *dec) publication() proto.Publication {
	p := proto.Publication{Key: d.key(), Origin: d.node()}
	p.Payload = d.payload(p.Key.Bits)
	return p
}

// message encodes one batch member: the sim.Message envelope followed by
// its tagged body, exactly as in a standalone frame but without the
// length prefix and header. AppendFrame pre-validates every member with
// lookupBatchable, so the lookups here cannot fail.
func (e *enc) message(m sim.Message) {
	tag, ent, err := lookupBatchable(m.Body)
	if err != nil {
		// Unreachable by construction; panicking here would turn an
		// internal invariant slip into a transport crash, so encode the
		// member as a GetConfiguration to ⊥ instead — the receiver drops
		// sends to ⊥, making it plain message loss.
		m = sim.Message{Body: proto.GetConfiguration{}}
		tag, ent, _ = lookupBody(m.Body)
	}
	e.svarint(int64(m.To))
	e.svarint(int64(m.From))
	e.svarint(int64(m.Topic))
	e.uvarint(tag)
	ent.enc(e, m.Body)
}

// memberLP encodes one Batch2 member: the uvarint byte length, then the
// member itself. The length is unknown until the member
// is encoded, so the member is written first and shifted right to make
// room for the prefix (memmove on what was just written — still cheaper
// than encoding twice).
func (e *enc) memberLP(m sim.Message) {
	start := len(e.b)
	e.message(m)
	n := len(e.b) - start
	var tmp [binary.MaxVarintLen64]byte
	ln := binary.PutUvarint(tmp[:], uint64(n))
	e.b = append(e.b, tmp[:ln]...)
	copy(e.b[start+ln:], e.b[start:start+n])
	copy(e.b[start:], tmp[:ln])
}

// memberLP decodes one Batch2 member whose bytes end at offset end (the
// caller validated end against the input). A nested batch or unknown tag
// fails the whole frame: the stream is still aligned (the outer length
// prefix delimits it), so the damage is bounded to this batch.
func (d *dec) memberLP(end int) sim.Message {
	var m sim.Message
	m.To = sim.NodeID(d.svarint())
	m.From = sim.NodeID(d.svarint())
	m.Topic = sim.Topic(d.svarint())
	tag := d.uvarint()
	if d.err != nil {
		return sim.Message{}
	}
	if d.off > end {
		d.fail("batch member envelope overruns its length")
		return sim.Message{}
	}
	if tag == tagBatch2 {
		d.fail("nested batch")
		return sim.Message{}
	}
	ent, ok := registry[tag]
	if !ok {
		d.fail("unknown type tag %d in batch", tag)
		return sim.Message{}
	}
	m.Body = ent.dec(d)
	return m
}

func (e *enc) summaries(ns []proto.NodeSummary) {
	e.uvarint(uint64(len(ns)))
	for _, n := range ns {
		e.key(n.Label)
		e.raw(n.Hash[:]...)
	}
}

func (d *dec) summaries() []proto.NodeSummary {
	n := d.sliceLen(2 + 16) // key ≥ 2 bytes + 16-byte hash
	var out []proto.NodeSummary
	if n > 0 {
		out = make([]proto.NodeSummary, 0, n)
	}
	for i := 0; i < n && d.err == nil; i++ {
		s := proto.NodeSummary{Label: d.key()}
		d.bytes(s.Hash[:])
		out = append(out, s)
	}
	return out
}
