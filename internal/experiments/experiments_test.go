package experiments

import (
	"strings"
	"testing"

	"sspubsub/internal/core"
)

func TestE1Figure1(t *testing.T) {
	res := E1Figure1()
	if res.ByLevel[4] != 16 || res.ByLevel[3] != 8 || res.ByLevel[2] != 4 || res.ByLevel[1] != 1 {
		t.Errorf("edge census = %v", res.ByLevel)
	}
	if !strings.Contains(res.Triples.String(), "0011") {
		t.Error("triples table missing label 0011")
	}
}

func TestE2DegreeBounds(t *testing.T) {
	rows, _ := E2Degree([]int{16, 64, 256})
	for _, r := range rows {
		if r.MaxDegree > r.Bound {
			t.Errorf("n=%d: max degree %d exceeds Lemma 3 bound %d", r.N, r.MaxDegree, r.Bound)
		}
		if r.AvgDegree > 4 {
			t.Errorf("n=%d: avg degree %.2f > 4", r.N, r.AvgDegree)
		}
		if r.Diameter > r.CeilLogN+1 {
			t.Errorf("n=%d: diameter %d > log n + 1", r.N, r.Diameter)
		}
	}
}

func TestE3RateIsConstant(t *testing.T) {
	rows, _ := E3ConfigRate([]int{16, 64}, 400, 7)
	for _, r := range rows {
		if r.PerRound > 2.0 {
			t.Errorf("n=%d: request rate %.3f not O(1)", r.N, r.PerRound)
		}
		// Measured rate should track the prediction within noise.
		if r.PerRound < r.Predicted*0.5 || r.PerRound > r.Predicted*1.6 {
			t.Errorf("n=%d: rate %.3f vs predicted %.3f", r.N, r.PerRound, r.Predicted)
		}
	}
	// Independence of n: the two rates differ by less than 0.5.
	if d := rows[0].PerRound - rows[1].PerRound; d > 0.5 || d < -0.5 {
		t.Errorf("rate grows with n: %.3f vs %.3f", rows[0].PerRound, rows[1].PerRound)
	}
}

func TestE4ConstantOverhead(t *testing.T) {
	// The marginal measurement subtracts a statistically estimated
	// background rate, so individual runs are noisy; the claim under test
	// is O(1) — a small constant that does not scale with n (compare
	// n = 8 here against the supervisor's Θ(n) database size).
	res, _ := E4Overhead(8, 6, 11)
	if res.SupMsgsPerJoin < -1 || res.SupMsgsPerJoin > 8 {
		t.Errorf("marginal supervisor msgs per join = %.2f, not constant-ish", res.SupMsgsPerJoin)
	}
	if res.SupMsgsPerLeave < -1 || res.SupMsgsPerLeave > 10 {
		t.Errorf("marginal supervisor msgs per leave = %.2f", res.SupMsgsPerLeave)
	}
}

func TestE5AllScenariosConverge(t *testing.T) {
	rows, _ := E5Convergence([]int{8, 16}, 2, 900)
	for _, r := range rows {
		if r.Failures > 0 {
			t.Errorf("%s n=%d: %d failures", r.Scenario, r.N, r.Failures)
		}
		if r.Scenario == ScenarioGarbageMsg && r.AvgRounds < 1 {
			t.Errorf("%s n=%d: re-converged in %.1f rounds — the garbage cannot have landed yet", r.Scenario, r.N, r.AvgRounds)
		}
	}
}

// TestE5GarbageLandsBeforeThePredicateIsPolled: the garbage scenario's
// convergence count starts only after every garbage message was delivered.
func TestE5GarbageLandsBeforeThePredicateIsPolled(t *testing.T) {
	const n = 16
	c := mustConverge(n, 5)
	before := c.Delivered()
	if spent := Inject(c, ScenarioGarbageMsg, n, 5); spent != 1 {
		t.Fatalf("garbage injection spent %d rounds, want 1", spent)
	}
	if got := c.Delivered() - before; got < 5*n {
		t.Fatalf("%d messages delivered in the round after injecting %d garbage messages", got, 5*n)
	}
}

func TestE6ClosureZeroMutations(t *testing.T) {
	res, _ := E6Closure(16, 150, 13)
	if res.Mutations != 0 {
		t.Errorf("closure violated: %d mutations", res.Mutations)
	}
	if res.MsgsPerNodeRnd > 8 {
		t.Errorf("steady-state message rate %.2f per node per round", res.MsgsPerNodeRnd)
	}
	// Expected: 1 round-robin refresh plus ≈1.07 replies to Theorem-5
	// probes ≈ 2.1 messages per round, independent of n.
	if res.SupMsgsPerRound > 3 {
		t.Errorf("supervisor sends %.2f msgs/round, want ≈ 2.1", res.SupMsgsPerRound)
	}
}

func TestE7AntiEntropyConverges(t *testing.T) {
	rows, _ := E7PublicationConvergence([]int{8}, 6, 17)
	for _, r := range rows {
		if !r.OK {
			t.Errorf("n=%d: anti-entropy never converged", r.N)
		}
	}
}

func TestE8FloodingLogarithmic(t *testing.T) {
	rows, _ := E8Flooding([]int{16, 64}, 19)
	for _, r := range rows {
		if r.SkipRingHops > r.CeilLogN {
			t.Errorf("n=%d: flood depth %d > ⌈log n⌉+1 = %d", r.N, r.SkipRingHops, r.CeilLogN)
		}
		if r.RingHops != r.N/2 {
			t.Errorf("n=%d: ring depth %d, want %d", r.N, r.RingHops, r.N/2)
		}
		if r.LiveRounds <= 0 || r.LiveRounds > 10 {
			t.Errorf("n=%d: live flooding took %d rounds", r.N, r.LiveRounds)
		}
	}
}

func TestE9Figure2Trace(t *testing.T) {
	res := E9Figure2()
	if !res.P4Delivered || !res.TriesEqual {
		t.Fatalf("P4 delivered=%v equal=%v", res.P4Delivered, res.TriesEqual)
	}
	// First direction: exactly two messages (probe + one reply).
	if len(res.TraceUtoV) != 2 {
		t.Errorf("u→v trace = %v", res.TraceUtoV)
	}
	// Second direction: probe, children, CheckAndPublish(p=101), Publish(P101).
	want := []string{"CheckTrie(⊥)", "CheckTrie(0, 10)", "CheckAndPublish(nodes=[100], p=101)", "Publish(P101)"}
	if len(res.TraceVtoU) != 4 {
		t.Fatalf("v→u trace = %v", res.TraceVtoU)
	}
	for i, w := range want {
		if !strings.Contains(res.TraceVtoU[i], w) {
			t.Errorf("trace[%d] = %s, want …%s", i, res.TraceVtoU[i], w)
		}
	}
}

func TestE10Tables(t *testing.T) {
	res := E10Balance(128, 20000, 5)
	for _, tb := range []string{res.Position.String(), res.Degrees.String()} {
		if !strings.Contains(tb, "skip-ring") || !strings.Contains(tb, "chord") {
			t.Errorf("table missing overlays:\n%s", tb)
		}
	}
}

func TestE11JoinLocality(t *testing.T) {
	res, _ := E11JoinLocality(8, 23)
	// Every pre-existing node's configuration changes at most a few times
	// while n doubles; the paper predicts exactly 2 (plus the ring-closure
	// handover at the extremes).
	if res.MaxConfigChanges > 4 {
		t.Errorf("max config changes per node = %d during doubling", res.MaxConfigChanges)
	}
	if res.AvgConfigChanges > 3 {
		t.Errorf("avg config changes = %.2f", res.AvgConfigChanges)
	}
}

func TestE12CrashRecovery(t *testing.T) {
	rows, _ := E12CrashRecovery(16, []float64{0.25}, 29)
	for _, r := range rows {
		if !r.OK {
			t.Errorf("crash recovery failed for %d crashes", r.Crashed)
		}
	}
}

func TestE13BrokerComparison(t *testing.T) {
	res, _ := E13SupervisorVsBroker(16, 20, 37)
	if res.BrokerPerPublish < float64(res.N)*0.8 {
		t.Errorf("broker per-publish = %.1f, want ≈ n−1", res.BrokerPerPublish)
	}
	if res.SupPerPublish > 2 {
		t.Errorf("supervisor per-publish = %.1f, want ≈ 0 (only round-robin refresh)", res.SupPerPublish)
	}
}

// TestE14RuleRates: at rest every node introduces itself to its two list
// neighbours once a round and no rule that changes state fires (E6's zero
// mutations); after a crash the list repairs through adoptions.
func TestE14RuleRates(t *testing.T) {
	res, _ := E14RuleRates(16, 150, 16, 100, 13)
	if rate := float64(res.Rest[core.RuleIntroduceSelf]) / float64(res.RestNodeRounds); rate < 1.5 || rate > 2.1 {
		t.Errorf("introduce-self at rest: %.2f per node per round, want ≈ 2·(n−1)/n", rate)
	}
	for _, r := range []core.Rule{core.RuleAdopt, core.RuleDelegateDisplaced, core.RuleReside,
		core.RuleClosureAdopt, core.RuleShortcutAdopt, core.RuleShortcutDrop, core.RuleConfigBottom} {
		if res.Rest[r] != 0 {
			t.Errorf("%s fired %d times at rest", r, res.Rest[r])
		}
	}
	if res.Crash[core.RuleAdopt]+res.Crash[core.RuleDelegateDisplaced] == 0 {
		t.Error("no list repair after the crash")
	}
}

func TestAblations(t *testing.T) {
	if tb := AblationActionIV(8, 1, 41); !strings.Contains(tb.String(), "enabled") {
		t.Error("action (iv) ablation table malformed")
	}
	if tb := AblationFlooding(16, 43); !strings.Contains(tb.String(), "anti-entropy only") {
		t.Error("flooding ablation table malformed")
	}
	if tb := AblationProbeSchedule(8, 47); !strings.Contains(tb.String(), "paper") {
		t.Error("probe ablation table malformed")
	}
}

// TestA3Deterministic: one seed, one table. The deleted database entry
// used to be picked in map order, so "rounds to re-record" read 5–29 for
// the paper schedule across runs of the same seed.
func TestA3Deterministic(t *testing.T) {
	first := AblationProbeSchedule(32, 1).String()
	for i := 0; i < 3; i++ {
		if again := AblationProbeSchedule(32, 1).String(); again != first {
			t.Fatalf("two runs of seed 1 differ:\n%s\n%s", first, again)
		}
	}
}
