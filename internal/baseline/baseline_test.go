package baseline

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sspubsub/internal/sim"
	"sspubsub/internal/simtest"
)

func overlays(n int, rng *rand.Rand) []Overlay {
	return []Overlay{
		NewSkipRing(n),
		NewChord(n, rng),
		NewSkipGraph(n, rng),
		NewRing(n),
	}
}

// Adjacency is symmetric and self-loop-free in all overlays.
func TestAdjacencySymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, o := range overlays(50, rng) {
		for x := 0; x < o.N(); x++ {
			for _, nb := range o.Neighbors(x) {
				if nb == x {
					t.Fatalf("%s: self-loop at %d", o.Name(), x)
				}
				found := false
				for _, back := range o.Neighbors(nb) {
					if back == x {
						found = true
					}
				}
				if !found {
					t.Fatalf("%s: edge %d→%d not symmetric", o.Name(), x, nb)
				}
			}
		}
	}
}

// The congestion claim of Section 1.3, read literally: "the supervised
// approach allows a much more balanced distribution of these nodes". The
// supervisor's labels cover the circle with gaps within a factor 2
// (deterministically), so per-node key responsibility stays near uniform;
// Chord's random identifiers produce Θ(log n) gap skew.
func TestPositionBalanceClaim(t *testing.T) {
	const n, keys = 512, 100000
	sr := NewSkipRing(n)
	srBal := KeyLoad("skip-ring", sr.Positions(), keys, rand.New(rand.NewSource(11)))
	if srBal.MaxGap > 2.001 {
		t.Errorf("skip-ring max gap %.2f× uniform, want ≤ 2", srBal.MaxGap)
	}
	if srBal.MaxOverAvg > 2.5 {
		t.Errorf("skip-ring key imbalance %.2f, want ≤ 2.5", srBal.MaxOverAvg)
	}
	for seed := int64(0); seed < 5; seed++ {
		ch := NewChord(n, rand.New(rand.NewSource(seed)))
		chBal := KeyLoad("chord", ch.Positions(), keys, rand.New(rand.NewSource(11)))
		if srBal.MaxOverAvg >= chBal.MaxOverAvg {
			t.Errorf("seed %d: skip-ring imbalance %.2f not below chord's %.2f",
				seed, srBal.MaxOverAvg, chBal.MaxOverAvg)
		}
		if srBal.MaxGap >= chBal.MaxGap {
			t.Errorf("seed %d: skip-ring max gap %.2f not below chord's %.2f",
				seed, srBal.MaxGap, chBal.MaxGap)
		}
		t.Logf("seed %d: max/avg key load skip-ring=%.2f chord=%.2f; max gap %.2f vs %.2f",
			seed, srBal.MaxOverAvg, chBal.MaxOverAvg, srBal.MaxGap, chBal.MaxGap)
	}
}

// Degree balance, informational: all logarithmic overlays have O(log n)
// degrees; the skip ring deliberately gives older nodes more edges
// ("older and thus more reliable nodes hold more connectivity
// responsibility", Section 2.1), so its max degree is 2⌈log n⌉−1 exactly.
func TestDegreeBalanceInformational(t *testing.T) {
	const n = 512
	sr := Balance(NewSkipRing(n))
	if want := 2*9 - 1; sr.MaxDegree != want {
		t.Errorf("skip-ring max degree %d, want %d", sr.MaxDegree, want)
	}
	rng := rand.New(rand.NewSource(0))
	ch := Balance(NewChord(n, rng))
	sg := Balance(NewSkipGraph(n, rng))
	if sr.AvgDegree > 4.0 || sr.MaxDegree >= ch.MaxDegree {
		t.Errorf("skip-ring avg %.1f max %d vs chord max %d", sr.AvgDegree, sr.MaxDegree, ch.MaxDegree)
	}
	t.Logf("degrees: skip-ring max=%d avg=%.1f; chord max=%d avg=%.1f; skip-graph max=%d avg=%.1f",
		sr.MaxDegree, sr.AvgDegree, ch.MaxDegree, ch.AvgDegree, sg.MaxDegree, sg.AvgDegree)
}

// Flooding reaches all nodes, within ⌈log n⌉+1 hops on the skip ring and
// within ⌈n/2⌉ on the plain ring (Section 4.3 versus [20, 21]).
func TestFloodHops(t *testing.T) {
	const n = 128
	sr := NewSkipRing(n)
	hist := FloodHops(sr, 0)
	total := 0
	for _, c := range hist {
		total += c
	}
	if total != n {
		t.Fatalf("flood reached %d/%d nodes", total, n)
	}
	if len(hist)-1 > 8 { // ⌈log 128⌉ + 1
		t.Errorf("skip-ring flood depth %d exceeds log n + 1", len(hist)-1)
	}
	ring := NewRing(n)
	rhist := FloodHops(ring, 0)
	if len(rhist)-1 != n/2 {
		t.Errorf("ring flood depth %d, want %d", len(rhist)-1, n/2)
	}
}

// Property: Chord's construction yields polylogarithmic degrees (the
// random-gap in-degree tail reaches a few multiples of log n, never Θ(n))
// and an average of about 2·log n.
func TestChordProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 64 + rng.Intn(128)
		c := NewChord(n, rng)
		maxDeg, sum := 0, 0
		for x := 0; x < n; x++ {
			d := len(c.Neighbors(x))
			sum += d
			if d > maxDeg {
				maxDeg = d
			}
		}
		logn := math.Ceil(math.Log2(float64(n)))
		avg := float64(sum) / float64(n)
		return maxDeg <= 12*int(logn) && avg > logn && avg < 4*logn
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestRingSmall(t *testing.T) {
	r2 := NewRing(2)
	if got := r2.Neighbors(0); len(got) != 1 || got[0] != 1 {
		t.Errorf("ring(2) neighbors = %v", got)
	}
	r1 := NewRing(1)
	if got := r1.Neighbors(0); len(got) != 0 {
		t.Errorf("ring(1) neighbors = %v", got)
	}
}

// Broker baseline: per-publication cost equals the number of subscribers.
func TestBrokerFanout(t *testing.T) {
	b := NewBroker()
	c := simtest.NewCtx(1)
	for i := sim.NodeID(10); i < 20; i++ {
		b.OnMessage(c, sim.Message{From: i, Topic: 5, Body: BSubscribe{}})
	}
	if b.Subscribers(5) != 10 {
		t.Fatalf("subscribers = %d", b.Subscribers(5))
	}
	b.OnMessage(c, sim.Message{From: 10, Topic: 5, Body: BPublish{Payload: "x"}})
	msgs := c.Take()
	if len(msgs) != 9 { // everyone but the publisher
		t.Fatalf("broker sent %d messages, want 9", len(msgs))
	}
	b.OnMessage(c, sim.Message{From: 11, Topic: 5, Body: BUnsubscribe{}})
	b.OnMessage(c, sim.Message{From: 10, Topic: 5, Body: BPublish{Payload: "y"}})
	if msgs := c.Take(); len(msgs) != 8 {
		t.Fatalf("after unsubscribe: %d messages, want 8", len(msgs))
	}
	// Deliveries are counted by the baseline client.
	cl := &BrokerClient{}
	cl.OnMessage(c, sim.Message{From: 1, Topic: 5, Body: BDeliver{Payload: "x"}})
	if cl.Received != 1 {
		t.Error("client did not count delivery")
	}
}
