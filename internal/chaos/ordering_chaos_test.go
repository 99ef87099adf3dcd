package chaos

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"sspubsub/internal/ordering"
)

// orderedScenarioNames lists the named ordered-delivery scenarios (pinned
// here so CI can address them by name).
var orderedScenarioNames = []string{
	"fifo-reorder-storm",
	"causal-dup-loss",
	"ordering-corruption",
	"causal-barrier-corruption",
}

// TestOrderedScenariosRegistered pins that the ordered scenarios are
// registered, carry a non-default delivery mode, and that the
// delivery-ordering probe is part of the evaluated set.
func TestOrderedScenariosRegistered(t *testing.T) {
	for _, name := range orderedScenarioNames {
		sc, ok := Lookup(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		if sc.DeliveryMode == ordering.BestEffort {
			t.Fatalf("scenario %q does not pin an ordered delivery mode", name)
		}
	}
	found := false
	for _, p := range ProbeNames {
		if p == "delivery-ordering" {
			found = true
		}
	}
	if !found {
		t.Fatalf("delivery-ordering missing from ProbeNames %v", ProbeNames)
	}
}

// TestOrderedReplayDeterministic pins the reproducibility contract for
// ordered runs on the deterministic substrate: the delivery-ordering probe,
// trace epochs and the ordering-state corruption all replay bit-exactly
// from the seed.
func TestOrderedReplayDeterministic(t *testing.T) {
	for _, seed := range []int64{4, 9, 23} {
		sc := GenerateOrdering(seed)
		a := Run(sc, Config{Substrate: SubstrateSim, Seed: seed})
		b := Run(sc, Config{Substrate: SubstrateSim, Seed: seed})
		if a.Converged != b.Converged || a.Rounds != b.Rounds ||
			a.Delivered != b.Delivered || a.Violation != b.Violation {
			t.Errorf("seed %d replay diverged:\n  %s (delivered %d)\n  %s (delivered %d)",
				seed, a, a.Delivered, b, b.Delivered)
		}
	}
}

// TestRandomOrderingScenariosConverge: seed-generated ordered scenarios —
// reorder/dup-weighted faults with FIFO or causal delivery — converge with
// every probe green, the delivery-ordering probe included.
func TestRandomOrderingScenariosConverge(t *testing.T) {
	const seeds = 12
	for seed := int64(1); seed <= seeds; seed++ {
		sc := GenerateOrdering(seed)
		res := Run(sc, Config{Substrate: SubstrateSim, Seed: seed})
		if !res.Converged {
			t.Errorf("seed %d (%s): %s\n  actions: %v\n  replay: srsim chaos -scenario=random-ordering -seed=%d",
				seed, res.Mode, res.Violation, res.Actions, seed)
		}
	}
}

// TestOrderingGeneratorDeterministic pins the ordered generator as a pure
// function of the seed, including the mode alternation.
func TestOrderingGeneratorDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		a, b := GenerateOrdering(seed), GenerateOrdering(seed)
		if fmt.Sprint(a.Actions) != fmt.Sprint(b.Actions) || a.DeliveryMode != b.DeliveryMode {
			t.Fatalf("seed %d: generator is not a function of the seed", seed)
		}
		want := ordering.FIFO
		if seed%2 != 0 {
			want = ordering.Causal
		}
		if a.DeliveryMode != want {
			t.Fatalf("seed %d: mode %v, want %v", seed, a.DeliveryMode, want)
		}
	}
}

// TestRandomGeneratorDrawsOrderingFault: the generic random-scenario
// vocabulary includes corrupt-ordering (soaks must exercise the fault
// without hand-written scenarios; it is a safe no-op in best-effort mode).
func TestRandomGeneratorDrawsOrderingFault(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		for _, a := range Generate(seed).Actions {
			if a.Kind == CorruptOrdering {
				return
			}
		}
	}
	t.Fatal("400 seeds never drew a corrupt-ordering action")
}

// runEnv is Run that keeps the env, so a test can read what the run
// recorded (e.rec, e.wave); the env closes when the test ends.
func runEnv(t *testing.T, sc Scenario, cfg Config) (*env, Result) {
	t.Helper()
	cfg.fill(sc)
	e, err := newEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.close)
	return e, e.run(sc)
}

// TestBestEffortFailsOrderingProbe is the probe's negative control: on a
// real best-effort run — converged, every probe green, the ordering probe
// not evaluated — the probe's wave-order clause (the only one with teeth
// on best-effort traces) catches two nodes delivering one publisher's wave
// publications in different orders (the sim substrate's per-message delays
// reorder the tree copies), and the very same (scenario, seed) passes the
// whole probe once the clients run in FIFO mode.
func TestBestEffortFailsOrderingProbe(t *testing.T) {
	sc := Scenario{
		Name:    "besteffort-negative-control",
		Actions: []Action{{Kind: Settle, Rounds: 2}},
	}
	for seed := int64(1); seed <= 40; seed++ {
		e, res := runEnv(t, sc, Config{Substrate: SubstrateSim, Seed: seed})
		if !res.Converged {
			t.Fatalf("seed %d: best-effort run did not converge: %s", seed, res.Violation)
		}
		v := orderViolation(e.rec.byNode, e.wave)
		if v == "" {
			continue
		}
		if !strings.Contains(v, "disagree on the delivery order") {
			t.Fatalf("seed %d: a best-effort trace broke another clause: %s", seed, v)
		}
		t.Logf("seed %d, best effort: %s", seed, v)
		fifo := Run(sc, Config{Substrate: SubstrateSim, Seed: seed, DeliveryMode: ordering.FIFO})
		if !fifo.Converged {
			t.Fatalf("seed %d: FIFO did not absorb the reordering best-effort exposed: %s",
				seed, fifo.Violation)
		}
		return
	}
	t.Fatal("no seed in 1..40 demonstrated a best-effort ordering violation")
}

// TestDupFaultExactDeliveryCounts is the regression pin for the
// delivery-wave probe's duplicate-counting fix: under an active duplication
// fault every member must observe each mid-scenario publication exactly
// once, in every delivery mode — a duplicated flood copy may neither
// surface as a second delivery nor stand in for the missing original from
// the true publisher.
func TestDupFaultExactDeliveryCounts(t *testing.T) {
	sc := Scenario{
		Name: "dup-exact-counts",
		Actions: []Action{
			{Kind: Duplicate, Rate: 0.4},
			{Kind: Publish, Count: 4},
			{Kind: Settle, Rounds: 30},
			{Kind: Heal},
		},
	}
	for _, mode := range []ordering.Mode{ordering.BestEffort, ordering.FIFO, ordering.Causal} {
		e, res := runEnv(t, sc, Config{Substrate: SubstrateSim, Seed: 11, DeliveryMode: mode})
		if !res.Converged {
			t.Fatalf("%v: not converged: %s", mode, res.Violation)
		}
		members := e.l.Members(topic)
		if len(members) == 0 {
			t.Fatalf("%v: no members", mode)
		}
		for _, id := range members {
			counts := make(map[string]int)
			for _, en := range e.rec.byNode[id] {
				counts[en.Payload]++
			}
			for i := 1; i <= 4; i++ {
				if got := counts[fmt.Sprintf("mid-%d", i)]; got != 1 {
					t.Errorf("%v: node %d observed mid-%d %d times, want exactly 1", mode, id, i, got)
				}
			}
			for i := 0; i < deliveryWave; i++ {
				if got := counts[fmt.Sprintf("wave-%d", i)]; got != 1 {
					t.Errorf("%v: node %d observed wave-%d %d times, want exactly 1", mode, id, i, got)
				}
			}
		}
	}
}

// TestOrderedScenariosLiveSubstratesSmoke runs one FIFO and one causal
// named scenario on each live substrate (the full matrix runs in
// TestNamedScenariosLiveSubstrates; this adds a targeted ordered smoke even
// under -short-less constrained runs).
func TestOrderedScenariosLiveSubstratesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("live substrates skipped in -short mode")
	}
	for _, sub := range []Substrate{SubstrateConcurrent, SubstrateNet} {
		for _, name := range []string{"fifo-reorder-storm", "causal-dup-loss"} {
			sub, name := sub, name
			t.Run(fmt.Sprintf("%s/%s", sub, name), func(t *testing.T) {
				t.Parallel()
				sc, _ := Lookup(name)
				res := Run(sc, Config{Substrate: sub, Seed: 5, N: 8, Interval: time.Millisecond})
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
