// Package wire defines the canonical binary representation of every
// message in the system: a length-prefixed, versioned frame carrying the
// sim.Message envelope (To, From, Topic) and one tagged protocol body.
// It is the boundary between the in-memory protocol (packages proto, core,
// sim) and anything that moves messages between address spaces — the TCP
// transport in internal/runtime/nettransport, and any future persistence
// or replay tooling.
//
// Frame layout (all multi-byte integers are varints unless noted):
//
//	uint32   payload length, big endian (payload excludes these 4 bytes)
//	byte[2]  magic "SR"
//	byte     version (currently 1)
//	svarint  To    (sim.NodeID)
//	svarint  From  (sim.NodeID)
//	svarint  Topic (sim.Topic)
//	uvarint  body type tag (see registry.go)
//	[]byte   body, per-type encoding
//
// The codec is self-describing through the type registry: a frame whose
// tag is unregistered, whose body does not parse, or whose payload has
// trailing bytes is rejected with an error — never a panic. That matters
// beyond robustness: a corrupted or adversarial frame is exactly the
// "arbitrary initial state" of the self-stabilization model, so the wire
// layer's job is to turn garbage into message loss (which the protocol
// provably absorbs) rather than into crashes.
//
// Decoding is canonicalizing: for any bytes b that Unmarshal accepts,
// Marshal(Unmarshal(b)) re-encodes to a frame that decodes to the same
// message. Empty slices decode as nil (the canonical form).
//
// The codec is built for an allocation-free steady state: AppendFrame
// encodes into a caller-held buffer (and WriteFrame into a pooled one),
// ReadFrame reuses one frame buffer per connection, and the encoder/
// decoder cursors are recycled through sync.Pools. The Batch2 envelope
// (tag 35) lets a transport carry a whole coalescing window of messages
// in one frame; see the type's documentation for its layout and
// garbage semantics.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
)

const (
	// Version is the wire format version carried in every frame.
	Version = 1
	// MaxFrame is the maximum payload length the codec accepts. A length
	// prefix beyond it means the stream is corrupt (or hostile) and cannot
	// be resynchronized.
	MaxFrame = 1 << 20

	magic0, magic1 = 'S', 'R'
)

// ErrGarbage is wrapped by every recoverable decode failure: the frame was
// delimited correctly but its contents are not a well-formed message. The
// stream remains aligned and the reader may continue with the next frame.
var ErrGarbage = errors.New("wire: garbage frame")

// ErrFrameTooLarge reports a length prefix exceeding MaxFrame. Unlike
// ErrGarbage this poisons the whole stream: the reader cannot skip what it
// cannot trust the length of.
var ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")

// Marshal encodes m as one complete frame, length prefix included.
// It fails only when the body type is not registered. It allocates a
// fresh slice per call; hot paths should hold a buffer and use
// AppendFrame, or let WriteFrame recycle one from the frame pool.
func Marshal(m sim.Message) ([]byte, error) { return AppendFrame(nil, m) }

// encPool recycles the encoder cursors AppendFrame threads through the
// per-type encoding funcs. The cursor escapes into those (dynamically
// dispatched) calls, so without the pool every frame encoded would heap-
// allocate one.
var encPool = sync.Pool{New: func() any { return new(enc) }}

// decPool is encPool's decode-side twin.
var decPool = sync.Pool{New: func() any { return new(dec) }}

// AppendFrame appends the frame encoding of m to dst and returns the
// extended slice. When dst has sufficient capacity, the call performs no
// allocations.
func AppendFrame(dst []byte, m sim.Message) ([]byte, error) {
	tag, ent, err := lookupBody(m.Body)
	if err != nil {
		return dst, err
	}
	if b, ok := m.Body.(Batch2); ok {
		// Validate every nested body up front: the per-type encoding funcs
		// cannot fail mid-frame, so a batch with an unencodable or nested-
		// batch member must be rejected before any byte is written.
		for _, bm := range b.Msgs {
			if _, _, err := lookupBatchable(bm.Body); err != nil {
				return dst, err
			}
		}
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length prefix, patched below
	e := encPool.Get().(*enc)
	e.b = dst
	e.raw(magic0, magic1, Version)
	e.svarint(int64(m.To))
	e.svarint(int64(m.From))
	e.svarint(int64(m.Topic))
	e.uvarint(tag)
	ent.enc(e, m.Body)
	out := e.b
	e.b = nil
	encPool.Put(e)
	payload := len(out) - start - 4
	if payload > MaxFrame {
		return out[:start], fmt.Errorf("%w (%d bytes)", ErrFrameTooLarge, payload)
	}
	binary.BigEndian.PutUint32(out[start:], uint32(payload))
	return out, nil
}

// Unmarshal decodes one complete frame (length prefix included). The
// buffer must contain exactly one frame; trailing bytes are an error.
func Unmarshal(b []byte) (sim.Message, error) { return UnmarshalState(b, nil) }

// UnmarshalState is Unmarshal decoding through st (nil st is plain
// Unmarshal): batch scaffolding, publication slices and payload strings
// come out of st's arena. See DecodeState for the lifetime contract on
// the returned message.
func UnmarshalState(b []byte, st *DecodeState) (sim.Message, error) {
	if len(b) < 4 {
		return sim.Message{}, fmt.Errorf("%w: short length prefix", ErrGarbage)
	}
	n := binary.BigEndian.Uint32(b)
	if n > MaxFrame {
		return sim.Message{}, ErrFrameTooLarge
	}
	if int(n) != len(b)-4 {
		return sim.Message{}, fmt.Errorf("%w: length prefix %d over %d payload bytes", ErrGarbage, n, len(b)-4)
	}
	return decodePayload(b[4:], st)
}

// decodePayload decodes the frame contents after the length prefix,
// optionally through a DecodeState.
func decodePayload(p []byte, st *DecodeState) (sim.Message, error) {
	if len(p) < 3 {
		return sim.Message{}, fmt.Errorf("%w: short header", ErrGarbage)
	}
	if p[0] != magic0 || p[1] != magic1 {
		return sim.Message{}, fmt.Errorf("%w: bad magic %#x%#x", ErrGarbage, p[0], p[1])
	}
	if p[2] != Version {
		return sim.Message{}, fmt.Errorf("%w: unsupported version %d", ErrGarbage, p[2])
	}
	d := decPool.Get().(*dec)
	*d = dec{b: p[3:]}
	if st != nil {
		d.arena = &st.arena
	}
	defer func() {
		*d = dec{}
		decPool.Put(d)
	}()
	var m sim.Message
	m.To = sim.NodeID(d.svarint())
	m.From = sim.NodeID(d.svarint())
	m.Topic = sim.Topic(d.svarint())
	tag := d.uvarint()
	if d.err != nil {
		return sim.Message{}, d.err
	}
	ent, ok := registry[tag]
	if !ok {
		return sim.Message{}, fmt.Errorf("%w: unknown type tag %d", ErrGarbage, tag)
	}
	m.Body = ent.dec(d)
	if d.err != nil {
		return sim.Message{}, fmt.Errorf("decoding %s: %w", sim.TypeName(ent.zero), d.err)
	}
	if d.off != len(d.b) {
		return sim.Message{}, fmt.Errorf("%w: %d trailing bytes after %s", ErrGarbage, len(d.b)-d.off, sim.TypeName(ent.zero))
	}
	return m, nil
}

// framePool recycles whole-frame scratch buffers for the convenience
// wrappers (WriteFrame). Buffers that ballooned past keepFrame bytes are
// dropped rather than pooled, so one oversized frame does not pin a
// megabyte per P forever.
var framePool = sync.Pool{New: func() any { return new(frameBuf) }}

type frameBuf struct{ b []byte }

const keepFrame = 64 << 10

// WriteFrame writes m to w as one frame. It encodes into a pooled scratch
// buffer, so the steady-state call allocates nothing beyond what the body
// encoding itself requires (which is nothing).
func WriteFrame(w io.Writer, m sim.Message) error {
	fb := framePool.Get().(*frameBuf)
	b, err := AppendFrame(fb.b[:0], m)
	if err == nil {
		_, err = w.Write(b)
	}
	if cap(b) <= keepFrame {
		fb.b = b
	} else {
		fb.b = nil
	}
	framePool.Put(fb)
	return err
}

// ReadFrame reads one frame from r into the caller-supplied buffer,
// growing it only when a frame exceeds its capacity, and returns the
// (possibly re-grown) buffer for the next call. The decoded message
// never references the buffer — strings and slices are copied out — so
// the same buffer can back every frame of a connection:
//
//	var buf []byte
//	for {
//		m, buf, err = wire.ReadFrame(r, buf, st)
//		...
//	}
//
// Decoding goes through st (nil decodes plainly; see UnmarshalState): a
// connection read loop pairs one buffer with one DecodeState and calls
// st.EndFrame after dispatching each frame's messages.
//
// Errors wrapping ErrGarbage are recoverable — the stream is still
// aligned on a frame boundary and the caller may read the next frame.
// Any other error (I/O failure, ErrFrameTooLarge) means the stream is
// unusable.
func ReadFrame(r io.Reader, buf []byte, st *DecodeState) (sim.Message, []byte, error) {
	// The header is read through buf as well: a local array would escape
	// through the io.Reader interface call and cost one allocation per
	// frame.
	if cap(buf) < 4 {
		buf = make([]byte, 4, 512)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return sim.Message{}, buf, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrame {
		return sim.Message{}, buf, ErrFrameTooLarge
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return sim.Message{}, buf, err
	}
	m, err := decodePayload(buf, st)
	return m, buf, err
}

// ---- primitive encoding ----

// enc is an append-only byte writer. Encoding cannot fail (the only
// failure mode, an unregistered body type, is caught before encoding
// starts).
type enc struct{ b []byte }

func (e *enc) raw(bs ...byte)   { e.b = append(e.b, bs...) }
func (e *enc) u8(v uint8)       { e.b = append(e.b, v) }
func (e *enc) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) svarint(v int64)  { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) boolean(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *enc) str(s string) { e.uvarint(uint64(len(s))); e.b = append(e.b, s...) }

// dec is a cursor over one frame payload. The first failure latches in err
// and turns every later read into a zero-value no-op, so per-type decoders
// can read field-by-field without checking after each call. When arena is
// set (stateful decode), strings and batch scaffolding come out of it.
type dec struct {
	b     []byte
	off   int
	err   error
	arena *Arena
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrGarbage, fmt.Sprintf(format, args...))
	}
}

func (d *dec) u8() uint8 {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.fail("truncated byte")
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *dec) svarint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad svarint")
		return 0
	}
	d.off += n
	return v
}

func (d *dec) boolean() bool {
	switch d.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bad bool")
		return false
	}
}

// bytes fills dst from the input, or fails if fewer bytes remain.
func (d *dec) bytes(dst []byte) {
	if d.err != nil {
		return
	}
	if len(dst) > len(d.b)-d.off {
		d.fail("truncated %d-byte field", len(dst))
		return
	}
	copy(dst, d.b[d.off:])
	d.off += len(dst)
}

func (d *dec) str() string {
	b := d.strBytes()
	if d.arena != nil {
		return d.arena.grabString(b)
	}
	return string(b)
}

// payload decodes a publication payload stored under key bits: str, but
// through the arena's shared-payload table.
func (d *dec) payload(bits uint64) string {
	if d.arena == nil {
		return d.str()
	}
	return d.arena.grabPayload(bits, d.strBytes())
}

// strBytes reads a length-prefixed string's bytes, aliasing the input.
func (d *dec) strBytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail("string length %d exceeds %d remaining bytes", n, len(d.b)-d.off)
		return nil
	}
	b := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// grabMsgs allocates batch scaffolding — arena-bumped on the stateful
// path, a discrete slice otherwise. Empty stays nil (canonical form).
func (d *dec) grabMsgs(n int) []sim.Message {
	if n == 0 {
		return nil
	}
	if d.arena != nil {
		return d.arena.grabMsgs(n)
	}
	return make([]sim.Message, 0, n)
}

// grabPubs is grabMsgs for publication slices.
func (d *dec) grabPubs(n int) []proto.Publication {
	if n == 0 {
		return nil
	}
	if d.arena != nil {
		return d.arena.grabPubs(n)
	}
	return make([]proto.Publication, 0, n)
}

// sliceLen validates a decoded element count against the remaining input:
// every element costs at least minBytes, so a count beyond remaining/min
// is a lie and must not drive an allocation.
func (d *dec) sliceLen(minBytes int) int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64((len(d.b)-d.off)/minBytes) {
		d.fail("slice length %d exceeds remaining input", n)
		return 0
	}
	return int(n)
}

// ---- raw frame assembly (transport egress path) ----
//
// The networked transport encodes a message once, on the sending
// goroutine, as a length-prefixed Batch2 member (AppendBody +
// AppendBatchMember) and frames whole runs of members later, on the
// writer: several under one Batch2 envelope (BeginBatchFrame), a lone one
// as a standalone frame (BeginFrame + the member after its length prefix),
// both closed by FinishFrame. The bytes these produce are identical to
// AppendFrame over the equivalent message, so readers cannot tell the
// paths apart.

// AppendBody appends the tagged encoding of body (type tag + per-type
// body; no envelope, no frame header) to dst — the unit the frame and
// member builders below wrap in an envelope. Batch bodies are rejected — a
// batch is framing, not payload.
func AppendBody(dst []byte, body any) ([]byte, error) {
	tag, ent, err := lookupBatchable(body)
	if err != nil {
		return dst, err
	}
	e := encPool.Get().(*enc)
	e.b = dst
	e.uvarint(tag)
	ent.enc(e, body)
	out := e.b
	e.b = nil
	encPool.Put(e)
	return out, nil
}

// BeginFrame starts a standalone frame: length prefix (patched by
// FinishFrame), magic and version. What follows is the envelope and the
// tagged body — byte for byte a Batch2 member after its length prefix.
func BeginFrame(dst []byte) []byte {
	return append(dst, 0, 0, 0, 0, magic0, magic1, Version)
}

// BeginBatchFrame starts a Batch2 frame that will carry count members;
// append each with AppendBatchMember and close the frame with
// FinishFrame, passing the len(dst) from before this call as start.
func BeginBatchFrame(dst []byte, count int) []byte {
	dst = append(BeginFrame(dst), 0, 0, 0) // To, From, Topic: ⊥ envelope (svarint 0 ×3)
	dst = binary.AppendUvarint(dst, tagBatch2)
	return binary.AppendUvarint(dst, uint64(count))
}

// AppendBatchMember appends one length-prefixed Batch2 member wrapping a
// pre-encoded tagged body under the given envelope.
func AppendBatchMember(dst []byte, to, from sim.NodeID, topic sim.Topic, tagged []byte) []byte {
	n := svarintSize(int64(to)) + svarintSize(int64(from)) + svarintSize(int64(topic)) + len(tagged)
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = binary.AppendVarint(dst, int64(to))
	dst = binary.AppendVarint(dst, int64(from))
	dst = binary.AppendVarint(dst, int64(topic))
	return append(dst, tagged...)
}

// FinishFrame patches the length prefix of the frame started at offset
// start and validates the payload against MaxFrame (on failure dst is
// truncated back to start).
func FinishFrame(dst []byte, start int) ([]byte, error) {
	payload := len(dst) - start - 4
	if payload > MaxFrame {
		return dst[:start], fmt.Errorf("%w (%d bytes)", ErrFrameTooLarge, payload)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(payload))
	return dst, nil
}

func uvarintSize(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func svarintSize(v int64) int {
	return uvarintSize(uint64(v)<<1 ^ uint64(v>>63))
}
