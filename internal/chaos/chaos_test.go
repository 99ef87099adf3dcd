package chaos

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// liveCfg keeps the live-substrate runs tight: fewer members and a short
// interval bound the wall clock even under -race.
func liveCfg(sub Substrate, seed int64) Config {
	return Config{Substrate: sub, Seed: seed, N: 8, Interval: time.Millisecond}
}

// TestNamedScenariosSim runs every named scenario on the deterministic
// scheduler across several seeds: each must converge with all invariant
// probes green.
func TestNamedScenariosSim(t *testing.T) {
	for _, sc := range Registry {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				res := Run(sc, Config{Substrate: SubstrateSim, Seed: seed})
				if !res.Setup {
					t.Fatalf("seed %d: %s", seed, res.Violation)
				}
				if !res.Converged {
					t.Errorf("seed %d: not converged: %s", seed, res.Violation)
				}
				if res.Converged && res.Rounds < 0 {
					t.Errorf("seed %d: converged but Rounds = %g", seed, res.Rounds)
				}
			}
		})
	}
}

// TestNamedScenariosLiveSubstrates runs every named scenario on the
// concurrent goroutine runtime and the networked loopback transport. The
// subtests run in parallel — every run owns its own substrate.
func TestNamedScenariosLiveSubstrates(t *testing.T) {
	if testing.Short() {
		t.Skip("live substrates skipped in -short mode")
	}
	for _, sub := range []Substrate{SubstrateConcurrent, SubstrateNet} {
		for _, sc := range Registry {
			sub, sc := sub, sc
			t.Run(fmt.Sprintf("%s/%s", sub, sc.Name), func(t *testing.T) {
				t.Parallel()
				res := Run(sc, liveCfg(sub, 7))
				if !res.Setup {
					t.Fatalf("setup failed: %s", res.Violation)
				}
				if !res.Converged {
					t.Errorf("not converged: %s", res.Violation)
				}
			})
		}
	}
}

// TestRandomScenariosConverge is the acceptance property: at least 50
// seeded random scenarios converge on the deterministic substrate. A
// failing seed is a real finding — it replays exactly via
// `srsim chaos -scenario=random -seed=<seed>`.
func TestRandomScenariosConverge(t *testing.T) {
	const seeds = 55
	for seed := int64(1); seed <= seeds; seed++ {
		sc := Generate(seed)
		res := Run(sc, Config{Substrate: SubstrateSim, Seed: seed})
		if !res.Converged {
			t.Errorf("seed %d: %s\n  actions: %v\n  replay: srsim chaos -scenario=random -seed=%d",
				seed, res.Violation, res.Actions, seed)
		}
	}
}

// TestRandomScenariosLiveSubstrates samples random scenarios on the live
// substrates. The default count keeps PR CI fast; the nightly soak covers
// volume via `srsim chaos -count=200` (and CHAOS_RANDOM_LIVE raises the
// count here).
func TestRandomScenariosLiveSubstrates(t *testing.T) {
	if testing.Short() {
		t.Skip("live substrates skipped in -short mode")
	}
	count := int64(6)
	if v := os.Getenv("CHAOS_RANDOM_LIVE"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil && n > 0 {
			count = n
		}
	}
	for _, sub := range []Substrate{SubstrateConcurrent, SubstrateNet} {
		sub := sub
		for seed := int64(1); seed <= count; seed++ {
			seed := seed
			t.Run(fmt.Sprintf("%s/seed-%d", sub, seed), func(t *testing.T) {
				t.Parallel()
				res := Run(Generate(seed), liveCfg(sub, seed))
				if !res.Converged {
					t.Errorf("seed %d: %s", seed, res.Violation)
				}
			})
		}
	}
}

// TestReplayDeterministic pins the reproducibility contract on the
// deterministic substrate: two runs of the same (scenario, seed) agree on
// every observable outcome, including the exact delivered-message count.
func TestReplayDeterministic(t *testing.T) {
	for _, seed := range []int64{3, 17, 41} {
		sc := Generate(seed)
		a := Run(sc, Config{Substrate: SubstrateSim, Seed: seed})
		b := Run(sc, Config{Substrate: SubstrateSim, Seed: seed})
		if a.Converged != b.Converged || a.Rounds != b.Rounds ||
			a.Delivered != b.Delivered || a.Violation != b.Violation {
			t.Errorf("seed %d replay diverged:\n  %s (delivered %d)\n  %s (delivered %d)",
				seed, a, a.Delivered, b, b.Delivered)
		}
	}
}

// TestSupervisorScenarioReplayDeterministic pins the failover acceptance
// property: the supervisor-crash scenarios replay bit-exactly from their
// seed on the deterministic substrate — ownership migration, DB rebuild
// and epoch bumps included.
func TestSupervisorScenarioReplayDeterministic(t *testing.T) {
	for _, name := range []string{"supervisor-crash", "supervisor-crash-restart", "supervisor-double-crash", "supervisor-directory-corruption",
		"replica-warm-failover", "supervisor-crash-during-sync", "supervisor-crash-corrupted-replica"} {
		sc, ok := Lookup(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		for _, seed := range []int64{2, 19} {
			a := Run(sc, Config{Substrate: SubstrateSim, Seed: seed})
			b := Run(sc, Config{Substrate: SubstrateSim, Seed: seed})
			if !a.Converged {
				t.Errorf("%s seed %d: %s", name, seed, a.Violation)
			}
			if a.Converged != b.Converged || a.Rounds != b.Rounds ||
				a.Delivered != b.Delivered || a.Violation != b.Violation {
				t.Errorf("%s seed %d replay diverged:\n  %s (delivered %d)\n  %s (delivered %d)",
					name, seed, a, a.Delivered, b, b.Delivered)
			}
		}
	}
}

// TestSupervisorCrashProbeCoverage pins the acceptance criterion shape:
// the supervisor-crash scenario runs on a 4-supervisor plane and the
// ownership-convergence probe is part of the evaluated set.
func TestSupervisorCrashProbeCoverage(t *testing.T) {
	sc, _ := Lookup("supervisor-crash")
	if sc.Supervisors != 4 {
		t.Fatalf("supervisor-crash runs on %d supervisors, want 4", sc.Supervisors)
	}
	found := false
	for _, p := range ProbeNames {
		if p == "ownership-convergence" {
			found = true
		}
	}
	if !found {
		t.Fatalf("ownership-convergence missing from ProbeNames %v", ProbeNames)
	}
	res := Run(sc, Config{Substrate: SubstrateSim, Seed: 1})
	if !res.Converged {
		t.Fatalf("supervisor-crash did not converge: %s", res.Violation)
	}
	if res.Rounds < 0 {
		t.Fatalf("converged without a measured convergence time")
	}
}

// TestGenerateDeterministic pins the generator: the same seed yields the
// same action list.
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		a, b := Generate(seed), Generate(seed)
		if fmt.Sprint(a.Actions) != fmt.Sprint(b.Actions) {
			t.Fatalf("seed %d: generator is not a function of the seed:\n%v\n%v", seed, a.Actions, b.Actions)
		}
		if len(a.Actions) == 0 {
			t.Fatalf("seed %d: empty scenario generated", seed)
		}
	}
}

// TestRegistry pins the scenario registry surface the CLI validates
// against.
func TestRegistry(t *testing.T) {
	if len(Registry) < 10 {
		t.Fatalf("registry holds %d scenarios, want ≥ 10", len(Registry))
	}
	names := Names()
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate scenario name %q", n)
		}
		seen[n] = true
		if _, ok := Lookup(n); !ok {
			t.Fatalf("Lookup(%q) failed for a registered name", n)
		}
	}
	if _, ok := Lookup("no-such-scenario"); ok {
		t.Fatal("Lookup accepted an unknown name")
	}
}

// TestResultJSONNamesKinds pins the failing-seed artifact format: an
// action's kind encodes as its name, so removing or reordering a kind can
// never silently change what a recorded artifact means, and a name that no
// longer exists fails to decode.
func TestResultJSONNamesKinds(t *testing.T) {
	in := Result{Scenario: "s", Actions: []Action{{Kind: CrashSupervisor, Count: 1}}}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"Kind":"crash-sup"`) {
		t.Fatalf("kind not encoded by name: %s", b)
	}
	var out Result
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
	var a Action
	if err := json.Unmarshal([]byte(`{"Kind":"corrupt-token"}`), &a); err == nil {
		t.Fatalf("retired kind decoded as %v", a.Kind)
	}
}

// TestConvergenceRoundsMeasured pins the stopwatch plumbing: a scenario
// with faults reports a non-negative convergence time measured after the
// faults ceased.
func TestConvergenceRoundsMeasured(t *testing.T) {
	sc, _ := Lookup("state-corruption")
	res := Run(sc, Config{Substrate: SubstrateSim, Seed: 5})
	if !res.Converged {
		t.Fatalf("not converged: %s", res.Violation)
	}
	if res.Rounds < 0 {
		t.Fatalf("Rounds = %g, want ≥ 0", res.Rounds)
	}
	if res.FaultActions != 1 {
		t.Fatalf("FaultActions = %d, want 1", res.FaultActions)
	}
}

// TestSubstrateParsing pins the -runtime validation surface.
func TestSubstrateParsing(t *testing.T) {
	for _, sub := range AllSubstrates {
		if got, err := ParseSubstrate(string(sub)); err != nil || got != sub {
			t.Fatalf("ParseSubstrate(%q) = %q, %v", sub, got, err)
		}
	}
	if _, err := ParseSubstrate("quantum"); err == nil {
		t.Fatal("ParseSubstrate accepted an unknown substrate")
	}
}

// TestCorruptReplicaNoopWithoutReplication pins the generator-safety
// contract: the corrupt-replica fault is a safe no-op on configurations
// with no replicas (single supervisor, or a sharded plane with
// ReplicationFactor 0), so seed-generated random scenarios — which draw
// it blindly — stay valid everywhere.
func TestCorruptReplicaNoopWithoutReplication(t *testing.T) {
	sc := Scenario{
		Name: "corrupt-replica-noop",
		Actions: []Action{
			{Kind: Settle, Rounds: 8},
			{Kind: CorruptReplica},
			{Kind: Settle, Rounds: 4},
		},
	}
	for _, cfg := range []Config{
		{Substrate: SubstrateSim, Seed: 1},
		{Substrate: SubstrateSim, Seed: 1, Supervisors: 4},
	} {
		res := Run(sc, cfg)
		if !res.Converged {
			t.Errorf("supervisors=%d: corrupt-replica was not a no-op: %s", cfg.Supervisors, res.Violation)
		}
	}
}

// TestRandomGeneratorDrawsReplicaFault: the random-scenario vocabulary
// includes the corrupt-replica kind (satellite of the replication PR —
// soaks must exercise the new machinery without hand-written scenarios).
func TestRandomGeneratorDrawsReplicaFault(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		for _, a := range Generate(seed).Actions {
			if a.Kind == CorruptReplica {
				return
			}
		}
	}
	t.Fatal("400 seeds never drew a corrupt-replica action")
}

// scripted is a random source that replays fixed draws.
type scripted []int

func (s *scripted) Intn(n int) int {
	v := (*s)[0]
	*s = (*s)[1:]
	return v % n
}

// TestReplicaProbeCatchesEraAboveOwner drives the one CorruptReplica draw a
// seeded scenario cannot be made to hit on demand: the era of a warm
// replica leaps above that of an owner that never failed over. The
// replica-consistency probe must report it, and anti-entropy must repair it
// (before the fix the replica dropped the owner's lower-era syncs forever).
func TestReplicaProbeCatchesEraAboveOwner(t *testing.T) {
	cfg := Config{Seed: 1, Supervisors: 4, ReplicationFactor: 1}
	cfg.fill()
	e, err := newEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	e.l.AddClients(cfg.N)
	e.l.JoinAll(topic)
	if _, ok := e.l.RunUntil(setupRounds, func() bool { return e.violation() == "" }); !ok {
		t.Fatalf("setup: %s", e.violation())
	}
	holder := e.l.ExpectedReplicas(topic)[0]
	e.l.Sups[holder].CorruptReplica(topic, &scripted{2, 0, 0, 1}) // era poison, upward
	want := fmt.Sprintf("replica-consistency: replica %d at epoch 1, owner at epoch 0", holder)
	if got := e.violation(); got != want {
		t.Fatalf("probe reports %q, want %q", got, want)
	}
	if _, ok := e.l.RunUntil(cfg.ConvergeRounds, func() bool { return e.violation() == "" }); !ok {
		t.Fatalf("never repaired: %s", e.violation())
	}
}
