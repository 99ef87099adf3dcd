package concurrent

import (
	"sync"

	"sspubsub/internal/sim"
)

// keepSlots bounds the array a delivered batch hands back for reuse: a
// burst may grow a mailbox transiently, but must not pin that memory for
// the node's lifetime.
const keepSlots = 4096

// mailbox is the loss-free channel of one node — the paper's channels
// "store any finite number of messages". Senders append to pending under
// the lock; the node goroutine swaps the whole batch out and delivers it
// without the lock, so push never blocks and never drops while the node
// runs.
type mailbox struct {
	// wake holds one token while pending is non-empty and the node
	// goroutine may be parked; push posts it on the empty → non-empty
	// transition only.
	wake chan struct{}

	mu      sync.Mutex
	pending []sim.Message
	closed  bool
}

func newMailbox() *mailbox { return &mailbox{wake: make(chan struct{}, 1)} }

// push enqueues m. It reports false when the mailbox is closed (the node
// stopped).
func (b *mailbox) push(m sim.Message) bool {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return false
	}
	b.pending = append(b.pending, m)
	first := len(b.pending) == 1
	b.mu.Unlock()
	if first {
		select {
		case b.wake <- struct{}{}:
		default: // a token is already posted
		}
	}
	return true
}

// swap takes the queued batch. spare — the previous batch, fully
// delivered — is zeroed so it retains no message bodies and becomes the
// array the next pushes append to.
func (b *mailbox) swap(spare []sim.Message) []sim.Message {
	clear(spare)
	if cap(spare) > keepSlots {
		spare = nil
	}
	b.mu.Lock()
	out := b.pending
	b.pending = spare[:0]
	b.mu.Unlock()
	return out
}

// close marks the mailbox closed and discards what is queued, returning
// how many messages that was. A batch the node goroutine already swapped
// out is not counted here: deliver drops it message by message.
func (b *mailbox) close() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	n := len(b.pending)
	b.pending = nil
	return n
}
