package wire

import (
	"unsafe"

	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
)

// This file is the decode-side allocation machinery behind the
// per-connection decode path: a bump arena that batches the many small
// allocations of a batch decode (payload strings, publication slices,
// the batch's message scaffold) into a few chunk allocations, so a
// Batch2 frame costs one boxing allocation per member rather than a
// string and a slice on top. Large payloads are shared instead: the
// copies of one publication that a connection carries to several
// subscribers decode into one string, so a 4 KiB payload is held once per
// connection rather than once per subscriber.

const (
	// arenaChunk is the byte-chunk size strings are bumped through.
	arenaChunk = 4096
	// arenaMaxStr caps arena-allocated strings: anything larger gets a
	// private allocation, so one giant payload cannot pin a chunk whose
	// other strings are long-lived (nor force an oversized chunk).
	arenaMaxStr = 1024
	// arenaSliceChunk is the element count slice backings are bumped
	// through.
	arenaSliceChunk = 256
	// sharedSlots is the size of the shared-payload table, indexed by the
	// low bits of the publication key (hash bits, not clock bits).
	sharedSlots = 64
	// sharedMaxStr caps the payloads the table keeps, which bounds what it
	// retains to sharedSlots × sharedMaxStr = 4 MiB per connection.
	sharedMaxStr = 64 << 10
)

// Arena is a bump allocator for decoded message innards. Allocation
// never invalidates earlier values: when a chunk fills up the arena
// detaches it (the garbage collector owns it for as long as issued
// strings or slices reference it) and bumps through a fresh one. Only
// Reset — and, for the per-frame message scaffold, EndFrame on the
// owning DecodeState — rewinds and reuses memory, which is why both
// carry explicit lifetime contracts.
type Arena struct {
	buf  []byte              // string bytes
	msgs []sim.Message       // batch scaffold backing (per-frame lifetime)
	pubs []proto.Publication // publication backing (escapes with the body)
	// shared holds the last payload over arenaMaxStr decoded per key slot.
	// Its strings are private allocations, not arena memory.
	shared [sharedSlots]string
}

// grabString copies b into the arena and returns it as a string. The
// string aliases arena memory and stays valid until Reset.
func (a *Arena) grabString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) > arenaMaxStr {
		return string(b)
	}
	if cap(a.buf)-len(a.buf) < len(b) {
		// Detach the full chunk: issued strings keep it alive.
		a.buf = make([]byte, 0, arenaChunk)
	}
	off := len(a.buf)
	a.buf = append(a.buf, b...)
	return unsafe.String(&a.buf[off], len(b))
}

// grabPayload is grabString for a publication payload under key bits. A
// payload over arenaMaxStr whose bytes equal the string last stored in the
// key's slot returns that string, so the copies of one publication share
// one backing array; any other payload up to sharedMaxStr replaces the
// slot's string. The full bytes are compared, so a colliding or corrupted
// key can only cost a miss, never hand out a wrong payload.
func (a *Arena) grabPayload(bits uint64, b []byte) string {
	if len(b) <= arenaMaxStr || len(b) > sharedMaxStr {
		return a.grabString(b)
	}
	slot := &a.shared[bits%sharedSlots]
	if *slot != string(b) {
		*slot = string(b)
	}
	return *slot
}

// grabMsgs returns an empty slice with capacity n bumped out of the
// message scaffold, for the batch decoder to append into. Scaffold
// memory is rewound at every frame boundary (DecodeState.EndFrame), so
// these slices must not outlive the dispatch of their frame.
func (a *Arena) grabMsgs(n int) []sim.Message {
	if n == 0 {
		return nil
	}
	if cap(a.msgs)-len(a.msgs) < n {
		c := arenaSliceChunk
		if c < n {
			c = n
		}
		a.msgs = make([]sim.Message, 0, c)
	}
	l := len(a.msgs)
	a.msgs = a.msgs[:l+n]
	return a.msgs[l : l : l+n]
}

// grabPubs is grabMsgs for publication slices, minus the frame-boundary
// rewind: decoded publications escape into the engine, so their backing
// is only reused after a full Reset.
func (a *Arena) grabPubs(n int) []proto.Publication {
	if n == 0 {
		return nil
	}
	if cap(a.pubs)-len(a.pubs) < n {
		c := arenaSliceChunk
		if c < n {
			c = n
		}
		a.pubs = make([]proto.Publication, 0, c)
	}
	l := len(a.pubs)
	a.pubs = a.pubs[:l+n]
	return a.pubs[l : l : l+n]
}

// endFrame rewinds the per-frame scaffold only.
func (a *Arena) endFrame() { a.msgs = a.msgs[:0] }

// reset rewinds everything for reuse and empties the shared-payload table.
func (a *Arena) reset() {
	a.buf = a.buf[:0]
	a.msgs = a.msgs[:0]
	a.pubs = a.pubs[:0]
	a.shared = [sharedSlots]string{}
}

// DecodeState carries one connection's decode resources: the bump arena.
// It is not safe for concurrent use — one reader goroutine owns it,
// matching one DecodeState per connection.
type DecodeState struct {
	arena Arena
}

// NewDecodeState returns an empty decode state.
func NewDecodeState() *DecodeState { return &DecodeState{} }

// EndFrame marks a frame boundary: the batch message scaffold of the
// just-dispatched frame is rewound for reuse. Call it after every frame
// once its messages have been handed off (the scaffold slice itself must
// not be retained — the runtimes copy messages by value on inject, so
// the transport qualifies). Decoded bodies, strings and publication
// slices are NOT invalidated; they live until Reset.
func (st *DecodeState) EndFrame() { st.arena.endFrame() }

// Reset rewinds the whole arena, invalidating every value decoded through
// this state, and empties the shared-payload table. Only callers that
// control the full lifetime of what they decoded may use it (benchmarks,
// replay tooling that copies out); the transport read path never does —
// its decoded bodies escape into the runtime with unbounded lifetime.
func (st *DecodeState) Reset() { st.arena.reset() }
