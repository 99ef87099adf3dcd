// Package load is the benchmark's load generator and delivery recorder. It
// knows nothing about the program under test beyond two seams: a Publish
// function the generator calls and a Deliver hook the program calls back,
// so the end-to-end binary (public facade) and the traced binary (wrapped
// internals) offer the identical load.
package load

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"
)

// FailAfter is how long after its due time a publication may still complete;
// later (or never) counts as failed and contributes no latency sample.
const FailAfter = 2 * time.Second

// Recorder timestamps deliveries. Every subscriber owns one preallocated row
// written only from that subscriber's node goroutine, so the hot path takes
// no shared lock; the generator watches the per-publication atomic counters.
// Rows and Due are read after the system has quiesced or closed.
type Recorder struct {
	base  time.Time
	first int64 // node ID of row 0; subscriber IDs are contiguous from it
	n     int   // deliveries that complete a publication

	rows [][]int64 // rows[node-first][seq]: delivery, ns since base (0 = none)
	dups []counter // per row: deliveries beyond the first
	got  []atomic.Int32
	due  []int64 // per seq: scheduled send time, ns since base

	wake chan struct{} // capacity 1: a level-triggered "something completed"
	// OnDeliver, when set before the run, observes each first delivery
	// (traced runs stamp it into the span log).
	OnDeliver func(node int64, seq int, at int64)
}

// counter is padded to its own cache line so neighbouring rows' duplicate
// counts do not false-share.
type counter struct {
	n int64
	_ [56]byte
}

// NewRecorder sizes a recorder for maxNodes subscriber rows starting at
// node ID first, maxPubs publications, each complete after n deliveries. Its
// clock counts from base.
func NewRecorder(base time.Time, first int64, maxNodes, n, maxPubs int) *Recorder {
	r := &Recorder{
		base:  base,
		first: first,
		n:     n,
		rows:  make([][]int64, maxNodes),
		dups:  make([]counter, maxNodes),
		got:   make([]atomic.Int32, maxPubs),
		due:   make([]int64, maxPubs),
		wake:  make(chan struct{}, 1),
	}
	for i := range r.rows {
		r.rows[i] = make([]int64, maxPubs)
	}
	return r
}

// Now is the recorder's clock: nanoseconds since it was created.
func (r *Recorder) Now() int64 { return int64(time.Since(r.base)) }

// Due is when publication seq was scheduled to be sent, on the recorder's
// clock.
func (r *Recorder) Due(seq int) int64 { return r.due[seq] }

// Cap is the number of publications the recorder has room for.
func (r *Recorder) Cap() int { return len(r.due) }

// Seq parses the "<seq>|padding" payload the generator builds.
func Seq(payload string) (int, bool) {
	seq := 0
	for i := 0; i < len(payload); i++ {
		c := payload[i]
		if c == '|' {
			return seq, i > 0
		}
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + int(c-'0')
	}
	return 0, false
}

// Deliver is the program's delivery hook. It must be called from the
// delivering node's own goroutine.
func (r *Recorder) Deliver(node int64, payload string) {
	now := r.Now()
	seq, ok := Seq(payload)
	row := int(node - r.first)
	if !ok || seq >= len(r.due) || row < 0 || row >= len(r.rows) {
		return
	}
	if r.rows[row][seq] != 0 {
		r.dups[row].n++
		return
	}
	r.rows[row][seq] = now
	if r.OnDeliver != nil {
		r.OnDeliver(node, seq, now)
	}
	if int(r.got[seq].Add(1)) == r.n {
		select {
		case r.wake <- struct{}{}:
		default:
		}
	}
}

// done reports whether seq has reached all n subscribers.
func (r *Recorder) done(seq int) bool { return int(r.got[seq].Load()) >= r.n }

// Payload builds the size-byte payload "<seq>|<salt as padding>".
func Payload(buf []byte, seq int, salt string, size int) string {
	buf = strconv.AppendInt(buf[:0], int64(seq), 10)
	buf = append(buf, '|')
	for len(buf) < size {
		buf = append(buf, salt...)
	}
	if len(buf) > size && size > 12 {
		buf = buf[:size]
	}
	return string(buf)
}

// duplicates sums the per-row duplicate counters.
func (r *Recorder) duplicates() (dups int64) {
	for i := range r.dups {
		dups += r.dups[i].n
	}
	return dups
}

// RedeliveryRatio is all deliveries over first deliveries: 1 when nothing was
// delivered twice. Like Check it reads the rows' owners' counters, so call it
// only once the system is quiet.
func (r *Recorder) RedeliveryRatio() float64 {
	var first int64
	for i := range r.got {
		first += int64(r.got[i].Load())
	}
	if first == 0 {
		return 1
	}
	return float64(first+r.duplicates()) / float64(first)
}

// Check verifies, after the system went quiet, that every publication that
// entered the system (was delivered anywhere) in [0, issued) reached all n
// subscribers exactly once. It returns how many entered.
func (r *Recorder) Check(issued int) (accepted int, err error) {
	if r.duplicates() != 0 {
		return 0, fmt.Errorf("duplicate deliveries: redelivery_ratio = %.4f", r.RedeliveryRatio())
	}
	for seq := 0; seq < issued; seq++ {
		switch g := int(r.got[seq].Load()); {
		case g == 0:
		case g == r.n:
			accepted++
		default:
			return accepted, fmt.Errorf("publication %d reached %d of %d subscribers", seq, g, r.n)
		}
	}
	return accepted, nil
}

// Settled is the dissemination invariant both binaries check under the
// program's quiesce barrier once the load has stopped: Check holds, every
// member knows all accepted publications (allHavePubs) and all members'
// tries are equal. A nil error means it holds; callers poll until it does or
// their patience runs out, and report the last error.
func (r *Recorder) Settled(issued int, allHavePubs func(k int) bool, triesEqual func() bool) (accepted int, err error) {
	accepted, err = r.Check(issued)
	if err == nil && !(allHavePubs(accepted) && triesEqual()) {
		err = fmt.Errorf("AllHavePubs(%d) && TriesEqual does not hold under quiescence", accepted)
	}
	return accepted, err
}
