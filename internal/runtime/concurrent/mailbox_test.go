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

// batchTicker holds its first delivery until released, sleeps in every
// later one, and notes the time and its Timeout count at the first and the
// last delivery of the batch queued behind it (bodies 1 and last).
type batchTicker struct {
	gate        chan struct{}
	delay       time.Duration
	last        int
	ticks       atomic.Int64
	first, done time.Time
	firstTicks  int64
	doneTicks   int64
	finished    chan struct{}
}

func (h *batchTicker) OnMessage(_ sim.Context, m sim.Message) {
	i := m.Body.(int)
	if i == 0 {
		<-h.gate
		return
	}
	if i == 1 {
		h.first, h.firstTicks = time.Now(), h.ticks.Load()
	}
	time.Sleep(h.delay)
	if i == h.last {
		h.done, h.doneTicks = time.Now(), h.ticks.Load()
		close(h.finished)
	}
}
func (h *batchTicker) OnTimeout(sim.Context) { h.ticks.Add(1) }

// TestMailboxNeverEmptyStillTicks: a node busy with one long batch — a
// swap hands it every queued message at once, so the mailbox never
// empties between its deliveries — still runs its Timeout action about
// once per interval. The first delivery is held while the batch queues,
// the batch takes at least 20 intervals to deliver, and only the ticks
// between its first and last delivery count: a tick checked only between
// batches would run none of them.
func TestMailboxNeverEmptyStillTicks(t *testing.T) {
	const interval = 2 * time.Millisecond
	const batch = 100 // × delay = 20 intervals at the least
	r := NewRuntime(Options{Interval: interval, Seed: 2})
	defer r.Close()
	h := &batchTicker{gate: make(chan struct{}), delay: 400 * time.Microsecond, last: batch, finished: make(chan struct{})}
	r.AddNode(1, h)
	for i := 0; i <= batch; i++ {
		r.Send(sim.Message{To: 1, From: 2, Topic: 1, Body: i})
	}
	close(h.gate)
	select {
	case <-h.finished:
	case <-time.After(30 * time.Second):
		t.Fatal("the batch was not delivered")
	}
	elapsed := int64(h.done.Sub(h.first) / interval)
	ticks := h.doneTicks - h.firstTicks
	if ticks < 10 || ticks < elapsed/2 {
		t.Errorf("%d timeouts in %d intervals of one batch's delivery, want ≥ 10 and ≥ half", ticks, elapsed)
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
