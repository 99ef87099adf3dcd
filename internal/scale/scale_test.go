package scale

import (
	"math"
	"testing"
)

// The full scenario at a modest N: every pooled subscriber joins, gets a
// label, receives the probe publication; the crash burst is culled.
func TestRunSmallN(t *testing.T) {
	res := Run(Config{N: 96, Seed: 7})
	if !res.Converged {
		t.Fatal("scenario did not converge")
	}
	if res.JoinRounds.Max <= 0 {
		t.Fatalf("join rounds summary empty: %+v", res.JoinRounds)
	}
	if res.FanoutRounds.Count != 96 {
		t.Fatalf("fan-out measured %d subscribers, want 96", res.FanoutRounds.Count)
	}
	if res.Crashed < 1 || res.StabilizeRounds <= 0 {
		t.Fatalf("stabilization probe: crashed %d in %d rounds", res.Crashed, res.StabilizeRounds)
	}
	if res.SupDBBytes == 0 || res.SubTrieBytes == 0 {
		t.Fatalf("memory probes returned zero: db %d trie %d", res.SupDBBytes, res.SubTrieBytes)
	}
}

// Pooled subscribers are protocol-equivalent to dedicated nodes: same
// deterministic scheduler, same seed, the supervisor cannot tell them
// apart, and the whole population converges to one legitimate ring.
func TestPooledSubscribersConvergeLikeDedicated(t *testing.T) {
	h := New(Config{N: 40, Seed: 3})
	h.JoinAll()
	if _, ok := h.AwaitLabelled(); !ok {
		t.Fatal("pooled subscribers did not all get labels")
	}
	if got := h.Sup.N(topic); got != 40 {
		t.Fatalf("supervisor database has %d entries, want 40", got)
	}
	// Labels must be exactly l(0)..l(n-1): the database is legitimate.
	if h.Sup.Corrupted(topic) {
		t.Fatal("supervisor database corrupted after mass join")
	}
}

// A crashed virtual subscriber must vanish like a crashed dedicated node:
// messages to it drop, the detector suspects it, the supervisor culls it.
func TestVirtualCrashSemantics(t *testing.T) {
	h := New(Config{N: 24, Seed: 11})
	h.JoinAll()
	if _, ok := h.AwaitLabelled(); !ok {
		t.Fatal("join did not converge")
	}
	victim := h.ID(5)
	h.Sched.Crash(victim)
	h.Pools[0].Kill(5)
	if !h.Sched.Crashed(victim) {
		t.Fatal("substrate does not report the virtual subscriber crashed")
	}
	if rounds, ok := h.AwaitDBSize(23); !ok {
		t.Fatalf("supervisor never culled the crashed virtual subscriber (waited %d rounds)", rounds)
	}
}

// A pool crash fails all of its virtual subscribers at once (machine
// failure): their traffic drops and the supervisor eventually culls the
// whole block. Two full pools: the second one crashes, the first one stays.
func TestPoolCrashFailsItsListeners(t *testing.T) {
	h := New(Config{N: 2 * poolSize, Seed: 5})
	if len(h.Pools) != 2 {
		t.Fatalf("%d pools, want 2", len(h.Pools))
	}
	h.JoinAll()
	if _, ok := h.AwaitLabelled(); !ok {
		t.Fatal("join did not converge")
	}
	// Crash pool 1's node and each of its listeners on the detector.
	h.Sched.Crash(SupervisorID + 2)
	for i := poolSize; i < 2*poolSize; i++ {
		h.Sched.Crash(h.ID(i))
	}
	if _, ok := h.AwaitDBSize(poolSize); !ok {
		t.Fatal("supervisor did not cull the crashed pool's subscribers")
	}
}

func TestFitPowerLaw(t *testing.T) {
	// Exact power law y = 3·n^0.5.
	ns := []float64{1e3, 1e4, 1e5, 1e6}
	ys := make([]float64, len(ns))
	for i, n := range ns {
		ys[i] = 3 * math.Sqrt(n)
	}
	a, b := FitPowerLaw(ns, ys)
	if math.Abs(b-0.5) > 1e-9 || math.Abs(a-3) > 1e-6 {
		t.Fatalf("FitPowerLaw = (%g, %g), want (3, 0.5)", a, b)
	}
	// A logarithmic curve must fit a small exponent (≪ 1): that is the
	// signature the sweep uses to call a curve "consistent with O(log n)".
	for i, n := range ns {
		ys[i] = math.Log2(n)
	}
	if _, b = FitPowerLaw(ns, ys); b <= 0 || b >= 0.3 {
		t.Fatalf("log curve fitted exponent %g, want small positive", b)
	}
	// Flat-zero curves clamp instead of producing NaN/Inf.
	if a, b = FitPowerLaw(ns, []float64{0, 0, 0, 0}); math.IsNaN(b) || math.IsInf(b, 0) {
		t.Fatalf("flat curve fit = (%g, %g)", a, b)
	}
	if a, b = FitPowerLaw(nil, nil); a != 0 || b != 0 {
		t.Fatalf("empty fit = (%g, %g), want (0, 0)", a, b)
	}
}
