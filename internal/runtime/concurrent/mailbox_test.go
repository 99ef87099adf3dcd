package concurrent

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sspubsub/internal/sim"
)

// countingHandler records every delivery by body and can be slowed so that
// batches pile up behind it.
type countingHandler struct {
	mu    sync.Mutex
	seen  map[int]int
	total int
	delay time.Duration
}

func (h *countingHandler) OnMessage(_ sim.Context, m sim.Message) {
	if h.delay > 0 {
		time.Sleep(h.delay)
	}
	h.mu.Lock()
	h.seen[m.Body.(int)]++
	h.total++
	h.mu.Unlock()
}
func (h *countingHandler) OnTimeout(sim.Context) {}

// TestMailboxLossFree floods one node — from a single sender, and from
// eight concurrent senders into a slow handler — and verifies the
// loss-free contract exactly: every message delivered exactly once, and
// the runtime's Delivered/Dropped/SentBy/CountByType counters all agree.
func TestMailboxLossFree(t *testing.T) {
	for _, tc := range []struct {
		name               string
		senders, perSender int
		delay              time.Duration
	}{
		{"one-sender", 1, 20000, 0},
		{"eight-senders-slow-handler", 8, 400, 10 * time.Microsecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRuntime(Options{Interval: time.Millisecond, Seed: 1})
			defer r.Close()
			h := &countingHandler{seen: make(map[int]int), delay: tc.delay}
			const target sim.NodeID = 1
			r.AddNode(target, h)

			var wg sync.WaitGroup
			for s := 0; s < tc.senders; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for i := 0; i < tc.perSender; i++ {
						r.Send(sim.Message{To: target, From: sim.NodeID(100 + s), Topic: 1, Body: s*tc.perSender + i})
					}
				}(s)
			}
			wg.Wait()

			total := tc.senders * tc.perSender
			if !r.Quiesce(30*time.Second, func() {}) {
				t.Fatal("system did not drain")
			}
			h.mu.Lock()
			defer h.mu.Unlock()
			if h.total != total {
				t.Fatalf("handler saw %d messages, want %d", h.total, total)
			}
			for k, c := range h.seen {
				if c != 1 {
					t.Fatalf("message %d delivered %d times", k, c)
				}
			}
			if len(h.seen) != total {
				t.Fatalf("distinct messages %d, want %d", len(h.seen), total)
			}
			if got := r.Delivered(); got != int64(total) {
				t.Errorf("Delivered = %d, want %d", got, total)
			}
			if got := r.Dropped(); got != 0 {
				t.Errorf("Dropped = %d, want 0", got)
			}
			if got := r.CountByType("int"); got != int64(total) {
				t.Errorf("CountByType(int) = %d, want %d", got, total)
			}
			for s := 0; s < tc.senders; s++ {
				if got := r.SentBy(sim.NodeID(100 + s)); got != int64(tc.perSender) {
					t.Errorf("SentBy(%d) = %d, want %d", 100+s, got, tc.perSender)
				}
			}
		})
	}
}

// slowTicker sleeps in every delivery and counts its Timeout actions.
type slowTicker struct {
	delay time.Duration
	ticks atomic.Int64
}

func (h *slowTicker) OnMessage(sim.Context, sim.Message) { time.Sleep(h.delay) }
func (h *slowTicker) OnTimeout(sim.Context)              { h.ticks.Add(1) }

// TestMailboxNeverEmptyStillTicks: a node whose mailbox never empties —
// four goroutines flood it faster than its handler runs — still runs its
// Timeout action about once per interval. Each swapped batch is larger
// than the last, so the tick has to be able to run between two deliveries.
func TestMailboxNeverEmptyStillTicks(t *testing.T) {
	const interval = 2 * time.Millisecond
	r := NewRuntime(Options{Interval: interval, Seed: 2})
	defer r.Close()
	h := &slowTicker{delay: 20 * time.Microsecond}
	r.AddNode(1, h)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				r.Send(sim.Message{To: 1, From: 2, Topic: 1, Body: 0})
			}
		}()
	}
	// Let the backlog build before counting.
	for r.pending.Load() < 1000 {
		time.Sleep(50 * time.Microsecond)
	}
	base := h.ticks.Load()
	time.Sleep(20 * interval)
	ticks := h.ticks.Load() - base
	backlog := r.pending.Load()
	stop.Store(true)
	wg.Wait()
	if backlog == 0 {
		t.Fatal("mailbox emptied during the flood; the test needs a faster sender")
	}
	if ticks < 10 {
		t.Errorf("%d timeouts in 20 intervals under a flood (backlog %d), want ≥ 10", ticks, backlog)
	}
}

// gatedHandler holds its first delivery until released, then sleeps in
// every delivery, so the node goroutine is mid-batch for a long time.
type gatedHandler struct {
	gate  chan struct{}
	once  sync.Once
	delay time.Duration
	seen  atomic.Int64
}

func (h *gatedHandler) OnMessage(sim.Context, sim.Message) {
	h.once.Do(func() { <-h.gate })
	time.Sleep(h.delay)
	h.seen.Add(1)
}
func (h *gatedHandler) OnTimeout(sim.Context) {}

// TestMailboxCrashMidBatch crashes a node while its goroutine holds a
// swapped-out batch of about 1,000 messages and more wait in its mailbox:
// both must be dropped and counted, so Quiesce drains and delivered +
// dropped equals the sends exactly.
func TestMailboxCrashMidBatch(t *testing.T) {
	r := NewRuntime(Options{Interval: time.Millisecond, Seed: 3})
	defer r.Close()
	h := &gatedHandler{gate: make(chan struct{}), delay: 50 * time.Microsecond}
	r.AddNode(1, h)

	// The first message parks the handler; the next 1,000 queue behind it
	// and leave the mailbox as one batch once the gate opens.
	const queued = 1000
	for i := 0; i <= queued; i++ {
		r.Send(sim.Message{To: 1, From: 2, Topic: 1, Body: i})
	}
	close(h.gate)
	for h.seen.Load() < 10 {
		time.Sleep(50 * time.Microsecond)
	}
	// These queue behind the held batch; Crash discards them from the
	// mailbox while deliver drops what is left of the batch.
	for i := 0; i < 100; i++ {
		r.Send(sim.Message{To: 1, From: 2, Topic: 1, Body: i})
	}
	r.Crash(1)
	// Sends after the crash are dropped at the door.
	for i := 0; i < 10; i++ {
		r.Send(sim.Message{To: 1, From: 2, Topic: 1, Body: i})
	}
	const sends = queued + 1 + 100 + 10

	if !r.Quiesce(10*time.Second, func() {}) {
		t.Fatalf("no quiesce after a mid-batch crash: pending %d", r.pending.Load())
	}
	delivered, dropped := r.Delivered(), r.Dropped()
	if delivered+dropped != sends {
		t.Fatalf("delivered %d + dropped %d = %d, want %d sends", delivered, dropped, delivered+dropped, sends)
	}
	if delivered != h.seen.Load() {
		t.Errorf("Delivered() = %d, handler saw %d", delivered, h.seen.Load())
	}
	if delivered >= queued {
		t.Errorf("delivered %d of %d: the crash did not land mid-batch", delivered, queued+1)
	}
}
