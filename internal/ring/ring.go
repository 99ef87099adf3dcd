// Package ring provides a fixed-capacity, lock-free single-producer/
// single-consumer ring buffer with batch drain.
//
// Nothing in the system uses it any more. It was the egress handoff of the
// networked transport (router goroutine → per-peer writer) until senders
// began encoding straight into their link's pending batch, and the
// concurrent runtime's mailbox never adopted it. Its one importer is
// bench/layers/micro.go, which replays recorded traffic through it for the
// ring_handoff_ns metric; bench/ was frozen in the PR that removed the
// transport's use, so the package stays until the next benchmark PR drops
// the metric and the package together.
//
// Concurrency contract: at most one goroutine calls Push at a time, and
// at most one goroutine calls Pop/PopN at a time. The two sides need no
// external synchronization against each other. Either *role* may migrate
// between goroutines if the handoff itself is synchronized.
//
// A full ring rejects the push (Push returns false) instead of blocking
// or overwriting: the caller owns the overflow policy.
//
// The consumer can sleep without busy-waiting: when Pop/PopN find the
// ring empty they arm a wake flag, and the next Push posts a token to
// Wake(). Tokens are advisory — the consumer must re-poll after waking,
// and spurious tokens are harmless — but the seq-cst ordering of the
// flag/tail accesses makes lost wakeups impossible: either the producer
// observes the armed flag, or the consumer's re-check observes the new
// tail.
package ring

import "sync/atomic"

// cacheLine keeps the producer- and consumer-owned indices on separate
// cache lines so the two sides do not false-share.
const cacheLine = 64

// SPSC is a single-producer/single-consumer ring of T.
type SPSC[T any] struct {
	buf  []T
	mask uint64

	_    [cacheLine]byte
	head atomic.Uint64 // next slot to pop; written by the consumer only
	_    [cacheLine]byte
	tail atomic.Uint64 // next slot to push; written by the producer only
	_    [cacheLine]byte

	sleeping atomic.Bool
	wake     chan struct{}
}

// New returns a ring with capacity rounded up to the next power of two
// (minimum 2).
func New[T any](capacity int) *SPSC[T] {
	n := 2
	for n < capacity {
		n <<= 1
	}
	return &SPSC[T]{
		buf:  make([]T, n),
		mask: uint64(n - 1),
		wake: make(chan struct{}, 1),
	}
}

// Cap returns the ring's fixed capacity.
func (r *SPSC[T]) Cap() int { return len(r.buf) }

// Len returns the number of buffered items. It is exact only for the two
// owning goroutines; for anyone else it is a racy snapshot.
func (r *SPSC[T]) Len() int {
	return int(r.tail.Load() - r.head.Load())
}

// Push appends v. It reports false — leaving the ring unchanged — when
// the ring is full. Producer side only.
func (r *SPSC[T]) Push(v T) bool {
	t := r.tail.Load()
	if t-r.head.Load() == uint64(len(r.buf)) {
		return false
	}
	r.buf[t&r.mask] = v
	r.tail.Store(t + 1) // publish: the slot write happens-before this
	if r.sleeping.Load() && r.sleeping.CompareAndSwap(true, false) {
		select {
		case r.wake <- struct{}{}:
		default: // a token is already pending; one is enough
		}
	}
	return true
}

// Pop removes and returns the oldest item. On an empty ring it returns
// the zero value and false, arming the wake flag so the next Push posts
// to Wake(). The vacated slot is zeroed, so the ring never retains
// references to consumed items. Consumer side only.
func (r *SPSC[T]) Pop() (T, bool) {
	var zero T
	h := r.head.Load()
	if h == r.tail.Load() {
		// Empty: arm the wake flag, then re-check — a push that raced the
		// arming must be either popped now or have seen the flag.
		r.sleeping.Store(true)
		if h == r.tail.Load() {
			return zero, false
		}
		r.sleeping.Store(false)
	}
	v := r.buf[h&r.mask]
	r.buf[h&r.mask] = zero
	r.head.Store(h + 1)
	return v, true
}

// PopN drains up to len(dst) items into dst with a single index update,
// returning how many were moved. On an empty ring it returns 0 and arms
// the wake flag exactly like Pop. Consumer side only.
func (r *SPSC[T]) PopN(dst []T) int {
	var zero T
	h := r.head.Load()
	t := r.tail.Load()
	if h == t {
		r.sleeping.Store(true)
		if t = r.tail.Load(); h == t {
			return 0
		}
		r.sleeping.Store(false)
	}
	n := int(t - h)
	if n > len(dst) {
		n = len(dst)
	}
	for i := 0; i < n; i++ {
		idx := (h + uint64(i)) & r.mask
		dst[i] = r.buf[idx]
		r.buf[idx] = zero
	}
	r.head.Store(h + uint64(n))
	return n
}

// Wake returns the channel the producer posts to after pushing into a
// ring whose consumer armed the wake flag (by finding it empty). Tokens
// are advisory: after receiving one the consumer must re-poll, and a
// stale token may arrive after data was already consumed.
func (r *SPSC[T]) Wake() <-chan struct{} { return r.wake }
