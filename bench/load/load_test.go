package load

import (
	"math"
	"testing"
	"time"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := Quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) extrapolates: [0.75, 1.5, 2.25]
	q1, q3 = Quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of 1, 2 = %v, %v; want 0.75, 2.25", q1, q3)
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	for _, size := range []int{64, 4096} {
		p := Payload(nil, 12345, "s1.", size)
		if len(p) != size {
			t.Errorf("payload of size %d has %d bytes", size, len(p))
		}
		if seq, ok := Seq(p); !ok || seq != 12345 {
			t.Errorf("Seq(%q...) = %d, %v", p[:10], seq, ok)
		}
	}
	if _, ok := Seq("no separator"); ok {
		t.Error("Seq accepted a payload without a sequence number")
	}
}

// fakeSystem delivers every publication to all its subscribers at once, on
// the publishing goroutine, except the sequence numbers it is told to lose
// or to deliver twice.
type fakeSystem struct {
	rec   *Recorder
	subs  []int64
	lose  map[int]bool
	twice map[int]bool
}

func (f *fakeSystem) publish(_ int64, payload string) {
	seq, _ := Seq(payload)
	if f.lose[seq] {
		return
	}
	for _, s := range f.subs {
		f.rec.Deliver(s, payload)
		if f.twice[seq] {
			f.rec.Deliver(s, payload)
		}
	}
}

func newFake(maxPubs int) (*fakeSystem, *Generator) {
	f := &fakeSystem{subs: []int64{7, 8, 9}, lose: map[int]bool{}, twice: map[int]bool{}}
	f.rec = NewRecorder(time.Now(), 7, 3, 3, maxPubs)
	return f, &Generator{Rec: f.rec, Publish: f.publish, Members: f.subs, Size: 64, Salt: "x"}
}

func TestClosedLoopCountsEveryPublication(t *testing.T) {
	f, g := newFake(1 << 16)
	ph := g.Closed("closed", 4, 50*time.Millisecond)
	st := f.rec.Analyze(ph)
	if st.Attempted == 0 || st.Failed != 0 || len(st.Complete) != st.Attempted || len(st.Deliver) != 3*st.Attempted {
		t.Fatalf("attempted %d failed %d complete %d deliver %d", st.Attempted, st.Failed, len(st.Complete), len(st.Deliver))
	}
	if accepted, err := f.rec.Check(ph.End); err != nil || accepted != st.Attempted {
		t.Errorf("Check = %d, %v; want %d, nil", accepted, err, st.Attempted)
	}
}

func TestPacedLoopTimesFromDue(t *testing.T) {
	f, g := newFake(1 << 10)
	ph := g.Paced("paced", 1000, 30*time.Millisecond)
	st := f.rec.Analyze(ph)
	if st.Attempted != 30 || st.Failed != 0 {
		t.Fatalf("attempted %d failed %d, want 30, 0", st.Attempted, st.Failed)
	}
	for seq := ph.First + 1; seq < ph.End; seq++ {
		if d := f.rec.Due(seq) - f.rec.Due(seq-1); d != int64(time.Millisecond) {
			t.Fatalf("due times %d apart, want 1ms", d)
		}
	}
	if worst := Percentile(st.Deliver, 1); !(worst >= 0) || math.IsNaN(worst) {
		t.Errorf("a delivery before its due time: %v ms", worst)
	}
}

func TestCheckFlagsDuplicatesAndPartialDelivery(t *testing.T) {
	f, g := newFake(16)
	f.twice[1] = true
	g.Paced("dup", 1000, 3*time.Millisecond)
	if _, err := f.rec.Check(3); err == nil {
		t.Error("a duplicate delivery passed Check")
	}

	f, g = newFake(16)
	f.lose[1] = true // never published: allowed, but not accepted
	g.Paced("lost", 1000, 3*time.Millisecond)
	if accepted, err := f.rec.Check(3); err != nil || accepted != 2 {
		t.Errorf("Check = %d, %v; want 2, nil", accepted, err)
	}
	f.rec.Deliver(7, Payload(nil, 1, "x", 64)) // now at one subscriber of three
	if _, err := f.rec.Check(3); err == nil {
		t.Error("a partially delivered publication passed Check")
	}
}
