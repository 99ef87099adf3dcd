package load

import (
	"sort"
	"strconv"
	"time"
)

// Generator offers publications to the system from one goroutine: the
// caller's. Sequence numbers run on across phases of one Recorder.
type Generator struct {
	Rec *Recorder
	// Publish hands one payload to the program for the given member.
	Publish func(node int64, payload string)
	// Members are the publishers; seq s is published by Members[(s+Rot)%len].
	Members []int64
	Rot     int
	// Size is the payload length in bytes and Salt its seed-derived padding.
	Size int
	Salt string

	next int // next sequence number
	buf  []byte
}

// NewGenerator derives everything seed-dependent about the load the same way
// for both binaries: the publisher rotation and the payload padding (hence
// the publication keys).
func NewGenerator(rec *Recorder, members []int64, seed int64, size int, publish func(node int64, payload string)) *Generator {
	return &Generator{
		Rec:     rec,
		Publish: publish,
		Members: members,
		Rot:     int(uint64(seed) % uint64(len(members))),
		Size:    size,
		Salt:    "s" + strconv.FormatUint(uint64(seed), 16) + ".",
	}
}

// Phase is what one generator phase did; latencies are computed from the
// recorder's rows by Analyze once the system is quiet.
type Phase struct {
	Name       string
	First, End int   // sequence numbers [First, End) belong to the phase
	Start      int64 // recorder clock at the first due time
	Stop       int64 // recorder clock when the phase stopped offering load
	LateMaxNs  int64 // open loop: worst (actual send − due)
}

func (g *Generator) send(due int64) {
	seq := g.next
	g.next++
	g.Rec.due[seq] = due
	g.Publish(g.Members[(seq+g.Rot)%len(g.Members)], g.payload(seq))
}

func (g *Generator) payload(seq int) string {
	if cap(g.buf) < g.Size+len(g.Salt) {
		g.buf = make([]byte, 0, g.Size+len(g.Salt))
	}
	return Payload(g.buf, seq, g.Salt, g.Size)
}

// Paced is the open loop: one publication every 1/rate seconds for dur,
// whether or not earlier ones completed. Each is timed from the instant it
// was due, so a stalled generator or system charges the wait to the
// publications it delayed (no coordinated omission).
func (g *Generator) Paced(name string, rate float64, dur time.Duration) Phase {
	r := g.Rec
	period := float64(time.Second) / rate
	sleep, release := preciseSleep()
	defer release()
	ph := Phase{Name: name, First: g.next, Start: r.Now()}
	for i := 0; g.next < r.Cap(); i++ {
		due := ph.Start + int64(float64(i)*period)
		if due-ph.Start >= int64(dur) {
			break
		}
		for d := due - r.Now(); d > 0; d = due - r.Now() {
			sleep(time.Duration(d))
		}
		if late := r.Now() - due; late > ph.LateMaxNs {
			ph.LateMaxNs = late
		}
		g.send(due)
	}
	ph.End, ph.Stop = g.next, r.Now()
	g.drain(ph.First, ph.End)
	return ph
}

// Closed is the closed loop: window publications are kept outstanding for
// dur; a completion (or a FailAfter expiry) admits the next.
func (g *Generator) Closed(name string, window int, dur time.Duration) Phase {
	r := g.Rec
	ph := Phase{Name: name, First: g.next, Start: r.Now()}
	stop := ph.Start + int64(dur)
	out := make([]int, 0, window)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		now := r.Now()
		keep := out[:0]
		for _, seq := range out {
			if !r.done(seq) && now-r.due[seq] < int64(FailAfter) {
				keep = append(keep, seq)
			}
		}
		out = keep
		if now >= stop {
			break
		}
		for len(out) < window && g.next < r.Cap() {
			out = append(out, g.next)
			g.send(r.Now())
		}
		wait := time.Duration(stop - now)
		if len(out) > 0 {
			if exp := time.Duration(r.due[out[0]] + int64(FailAfter) - now); exp < wait {
				wait = exp
			}
		}
		timer.Reset(wait)
		select {
		case <-r.wake:
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		case <-timer.C:
		}
	}
	ph.End, ph.Stop = g.next, r.Now()
	g.drain(ph.First, ph.End)
	return ph
}

// drain waits until every publication of [first, end) completed or passed
// its FailAfter deadline.
func (g *Generator) drain(first, end int) {
	r := g.Rec
	for seq := first; seq < end; seq++ {
		for !r.done(seq) && r.Now()-r.due[seq] < int64(FailAfter) {
			select {
			case <-r.wake:
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
}

// PhaseStats are one phase's end-to-end numbers.
type PhaseStats struct {
	Attempted int
	Failed    int // not at all n subscribers within FailAfter of due
	// Deliver is delivery − due over every (publication, subscriber) pair
	// and Complete is the last subscriber's delivery − due per publication,
	// both in milliseconds, sorted ascending, failed publications excluded.
	Deliver  []float64
	Complete []float64
	// CompletedInPhase counts publications complete before the phase
	// stopped offering load. PubsPerSec is the median completion rate over
	// the phase's full RateWindow-long windows (WindowRates, in time order):
	// on a shared box a neighbour's burst slows a window or two, which a
	// median ignores and a mean over the whole phase would not.
	CompletedInPhase int
	PubsPerSec       float64
	WindowRates      []float64
	LateMaxMs        float64
}

// RateWindow is the length of the windows throughput is the median over.
const RateWindow = 500 * time.Millisecond

// Analyze reads a finished phase out of the recorder. Call it only after the
// system has been closed or quiesced: rows are written without locks.
func (r *Recorder) Analyze(ph Phase) PhaseStats {
	st := PhaseStats{Attempted: ph.End - ph.First, LateMaxMs: float64(ph.LateMaxNs) / 1e6}
	st.Deliver = make([]float64, 0, st.Attempted*r.n)
	st.Complete = make([]float64, 0, st.Attempted)
	st.WindowRates = make([]float64, int((ph.Stop-ph.Start)/int64(RateWindow)))
	for seq := ph.First; seq < ph.End; seq++ {
		var last int64
		got := 0
		for _, row := range r.rows {
			if at := row[seq]; at != 0 {
				got++
				if at > last {
					last = at
				}
			}
		}
		if got < r.n || last-r.due[seq] > int64(FailAfter) {
			st.Failed++
			continue
		}
		if last <= ph.Stop {
			st.CompletedInPhase++
			if w := int((last - ph.Start) / int64(RateWindow)); w >= 0 && w < len(st.WindowRates) {
				st.WindowRates[w]++
			}
		}
		st.Complete = append(st.Complete, float64(last-r.due[seq])/1e6)
		for _, row := range r.rows {
			if at := row[seq]; at != 0 {
				st.Deliver = append(st.Deliver, float64(at-r.due[seq])/1e6)
			}
		}
	}
	sort.Float64s(st.Deliver)
	sort.Float64s(st.Complete)
	for i := range st.WindowRates {
		st.WindowRates[i] /= RateWindow.Seconds()
	}
	if len(st.WindowRates) > 0 {
		st.PubsPerSec = Median(st.WindowRates)
	} else if d := ph.Stop - ph.Start; d > 0 { // a phase shorter than one window
		st.PubsPerSec = float64(st.CompletedInPhase) / (float64(d) / 1e9)
	}
	return st
}
