package psim

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"sspubsub/internal/sim"
)

// queuedEvents lists every event in l's calendar, in no particular order.
func queuedEvents(l *lane) []pevent {
	var out []pevent
	for _, b := range l.cal {
		out = append(out, b.ev...)
	}
	return out
}

// TestCalendarRunsInKeyOrder files random event sequences into one lane's
// calendar and drains it window by window up to random targets, requiring
// the events to run in the order of a reference kept sorted by the same
// key. The times mix a coarse grid (ties on t), exact multiples of the
// window width and times one ulp below the next multiple (the cell
// boundaries), and far-future times like FaultDelay's that make the ring
// grow; the senders include extLane, and FaultDup copies repeat a message
// under a new sequence number. Targets fall mid-window, so cuts leave part
// of a bucket behind. Every slot an event ran from must no longer
// reference its body.
func TestCalendarRunsInKeyOrder(t *testing.T) {
	grew := 0
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := New(Options{Seed: seed, Lanes: 1, Workers: 1})
		l, W := e.lanes[0], minDelay
		var ref []pevent
		seqs := map[int32]int64{}
		now := 0.0
		newEvent := func() pevent {
			k := math.Floor(now/W) + float64(1+rng.Intn(20))
			var at float64
			switch rng.Intn(5) {
			case 0:
				at = float64(k * W)
			case 1:
				at = math.Nextafter(float64((k+1)*W), math.Inf(-1))
			case 2:
				at = now + 1 + 4*rng.Float64() // FaultDelay's extra
			default:
				at = math.Floor(now) + float64(rng.Intn(40))/8
			}
			at = math.Max(at, now)
			lane := int32(rng.Intn(5)) - 1 // -1 is extLane
			ev := pevent{
				t:       at,
				srcLane: lane,
				srcSeq:  seqs[lane],
				kind:    evDeliver,
				msg:     sim.Message{To: sim.NodeID(1 + rng.Intn(4)), Body: &ping{Hop: rng.Intn(100)}},
			}
			seqs[lane]++
			return ev
		}
		file := func(ev pevent) {
			l.file(ev)
			ref = insertSorted(ref, ev)
		}
		for round := 0; round < 200; round++ {
			for i := rng.Intn(30); i > 0; i-- {
				ev := newEvent()
				file(ev)
				if rng.Intn(6) == 0 { // a FaultDup copy: same message, next sequence number
					dup := ev
					dup.srcSeq = seqs[ev.srcLane]
					seqs[ev.srcLane]++
					file(dup)
				}
			}
			target := now + rng.Float64()*[]float64{0.03, 0.3, 2}[rng.Intn(3)]
			for {
				k, ok := l.first()
				if !ok {
					break
				}
				b := l.cal[k&int64(len(l.cal)-1)]
				if b.minT > target {
					break
				}
				if want := e.cellOf(ref[0].t); k != want || b.minT != ref[0].t {
					t.Fatalf("seed %d round %d: window cell %d (min %v), reference head %v in cell %d", seed, round, k, b.minT, ref[0].t, want)
				}
				keys := l.order(b.ev)
				ran := 0
				for _, key := range keys {
					if key.t > target {
						break
					}
					if got := b.ev[key.slot]; got != ref[0] {
						t.Fatalf("seed %d round %d: ran %+v, want %+v", seed, round, got, ref[0])
					}
					ref = ref[1:]
					ran++
				}
				l.settle(k, b.ev, keys[ran:])
				kept := len(keys) - ran
				for i, ev := range b.ev[:cap(b.ev)] {
					if i >= kept && ev.msg.Body != nil {
						t.Fatalf("seed %d round %d: slot %d of cell %d still holds a body after it ran", seed, round, i, k)
					}
				}
				if kept > 0 {
					break // a cut window: the rest waits for a later target
				}
			}
			now = target
			if l.queued != len(ref) {
				t.Fatalf("seed %d round %d: calendar holds %d, reference %d", seed, round, l.queued, len(ref))
			}
		}
		if len(l.cal) > 64 {
			grew++
		}
	}
	if grew == 0 {
		t.Fatal("no seed grew the ring past 64 buckets; the far-future times no longer exercise growth")
	}
}

// TestWindowFloor: an event created inside window k lands in a later
// bucket even when its time, one rounding step short of the boundary,
// computes to cell k. At W = 0.05 the window of cell 5 starts at 0.25 and
// ends at 0.25+0.05 = 0.3, yet 0.3/0.05 rounds below 6.
func TestWindowFloor(t *testing.T) {
	e := New(Options{Seed: 1, Lanes: 1, Workers: 1})
	l, W := e.lanes[0], minDelay
	wstart := float64(math.Floor(0.26/W) * W)
	wend := wstart + W
	if k := e.cellOf(0.26); e.cellOf(wend) != k {
		t.Fatalf("cell %d's end %v computes to cell %d; the test needs one that computes back to %d", k, wend, e.cellOf(wend), k)
	}
	l.file(pevent{t: 0.26, kind: evDeliver})
	k, _ := l.first()
	e.floor = k + 1 // as inside k's window
	l.file(pevent{t: wend, srcSeq: 1, kind: evDeliver})
	mask := int64(len(l.cal) - 1)
	if got := len(l.cal[k&mask].ev); got != 1 {
		t.Fatalf("the executing bucket holds %d events, want only the one filed before the window", got)
	}
	if b := l.cal[(k+1)&mask]; len(b.ev) != 1 || b.ev[0].t != wend {
		t.Fatalf("the next bucket holds %+v, want the event at %v", b.ev, wend)
	}
}

// TestSortKeys checks the window sort against the standard library's on
// random keys of every length up to a few hundred, ties on t included.
func TestSortKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 300; n++ {
		ks := make([]ekey, n)
		for i := range ks {
			ks[i] = ekey{t: float64(rng.Intn(n/4 + 1)), srcLane: int32(rng.Intn(3)) - 1, srcSeq: int64(i), slot: int32(i)}
		}
		want := slices.Clone(ks)
		sort.Slice(want, func(i, j int) bool { return want[i].before(want[j]) })
		sortKeys(ks)
		if !slices.Equal(ks, want) {
			t.Fatalf("n=%d: sortKeys disagrees with sort.Slice", n)
		}
	}
}

// insertSorted inserts e into ref, which is sorted by key.
func insertSorted(ref []pevent, e pevent) []pevent {
	i := sort.Search(len(ref), func(i int) bool { return keyOf(e).before(keyOf(ref[i])) })
	return slices.Insert(ref, i, e)
}

func keyOf(e pevent) ekey { return ekey{t: e.t, srcSeq: e.srcSeq, srcLane: e.srcLane} }

// TestSentBySurvivesDeparture: SentBy counts a node's sends across its
// incarnations — through Crash, RemoveNode and a re-AddNode under the same
// ID — and counts an unregistered sender's injections; ResetCounters
// zeroes every count.
func TestSentBySurvivesDeparture(t *testing.T) {
	e := New(Options{Seed: 3, Lanes: 4, Workers: 1})
	sent := 0
	talker := handlerFunc(func(ctx sim.Context) {
		ctx.Send(2, 1, ping{})
		sent++
	})
	e.AddNode(1, talker)
	e.AddNode(2, &sink{})
	check := func(stage string, id sim.NodeID, want int) {
		t.Helper()
		if got := e.SentBy(id); got != int64(want) {
			t.Fatalf("%s: SentBy(%d) = %d, want %d", stage, id, got, want)
		}
	}
	e.RunRounds(3)
	check("running", 1, sent)
	e.Crash(1)
	e.RunRounds(2)
	check("crashed", 1, sent)
	e.AddNode(1, talker)
	e.RunRounds(3)
	check("restarted", 1, sent)
	e.RemoveNode(1)
	check("removed", 1, sent)
	e.Send(sim.Message{To: 2, From: 99, Topic: 1, Body: ping{}})
	check("external", 99, 1)
	e.AddNode(1, talker)
	e.RunRounds(2)
	check("re-added", 1, sent)
	e.ResetCounters()
	sent = 0
	check("reset", 1, 0)
	check("reset", 99, 0)
	e.RunRounds(2)
	check("after reset", 1, sent)
	if sent == 0 {
		t.Fatal("the talker never ran")
	}
}

// BenchmarkLaneCalendar runs and refiles events at a steady population of
// 4,096, the shape of a lane's calendar in the middle of a scale run; one
// op is one event filed and one run.
func BenchmarkLaneCalendar(b *testing.B) {
	const population = 4096
	rng := rand.New(rand.NewSource(1))
	e := New(Options{Seed: 1, Lanes: 1, Workers: 1})
	l := e.lanes[0]
	var seq int64
	var body any = ping{}
	event := func(now float64) pevent {
		seq++
		return pevent{t: now + 0.05 + 0.9*rng.Float64(), srcSeq: seq, kind: evDeliver, msg: sim.Message{To: 1, Body: body}}
	}
	for i := 0; i < population; i++ {
		l.file(event(0))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		k, _ := l.first()
		e.floor = k + 1
		evs := l.cal[k&int64(len(l.cal)-1)].ev
		keys := l.order(evs)
		for _, key := range keys {
			l.file(event(evs[key.slot].t))
		}
		l.settle(k, evs, nil)
		done += len(keys)
	}
}
