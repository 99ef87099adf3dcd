package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Report prints the paper's tables — E1–E14 and the ablations A1–A3 — to
// w, or only the one named by only (e.g. "E5", or "ablations" for A1–A3;
// case-insensitive). quick selects the small sweeps of the fast pass, whose
// output testdata/quick.golden pins byte for byte.
func Report(w io.Writer, quick bool, seed int64, only string) {
	sizes := []int{16, 64, 256, 1024, 4096}
	dynSizes := []int{16, 64, 256}
	e5Sizes := []int{16, 32, 64}
	seeds := 5
	e3Rounds := 2000
	if quick {
		sizes = []int{16, 64, 256}
		dynSizes = []int{16, 64}
		e5Sizes = []int{16, 32}
		seeds = 2
		e3Rounds = 500
	}

	// section prints id's banner and reports whether to run it.
	section := func(id, title string) bool {
		if only != "" && !strings.EqualFold(only, id) {
			return false
		}
		line := strings.Repeat("=", 72)
		fmt.Fprintf(w, "%s\n%s  %s\n%s\n", line, id, title, line)
		return true
	}

	if section("E1", "Figure 1 — the skip ring SR(16)") {
		res := E1Figure1()
		fmt.Fprintln(w, res.Triples)
		fmt.Fprintln(w, res.Edges)
	}
	if section("E2", "Lemma 3 — node degree and edge count") {
		_, tb := E2Degree(sizes)
		fmt.Fprintln(w, tb)
	}
	if section("E3", "Theorem 5 — configuration requests per timeout interval") {
		_, tb := E3ConfigRate(dynSizes, e3Rounds, seed)
		fmt.Fprintln(w, tb)
	}
	if section("E4", "Theorem 7 — supervisor messages per subscribe/unsubscribe") {
		_, tb := E4Overhead(16, 10, seed)
		fmt.Fprintln(w, tb)
	}
	if section("E5", "Theorem 8 — convergence from arbitrary initial states") {
		_, tb := E5Convergence(e5Sizes, seeds, seed)
		fmt.Fprintln(w, tb)
	}
	if section("E6", "Theorem 13 — closure and steady-state maintenance") {
		_, tb := E6Closure(64, 300, seed)
		fmt.Fprintln(w, tb)
	}
	if section("E7", "Theorem 17 — publication convergence (anti-entropy only)") {
		_, tb := E7PublicationConvergence(dynSizes, 10, seed)
		fmt.Fprintln(w, tb)
	}
	if section("E8", "Section 4.3 — flooding: O(log n) vs ring-only Θ(n)") {
		_, tb := E8Flooding(dynSizes, seed)
		fmt.Fprintln(w, tb)
	}
	if section("E9", "Figure 2 — Patricia-trie synchronisation example") {
		res := E9Figure2()
		fmt.Fprintln(w, "trie u:")
		fmt.Fprintln(w, res.TrieU)
		fmt.Fprintln(w, "trie v:")
		fmt.Fprintln(w, res.TrieV)
		fmt.Fprintln(w, "probe u→v:")
		for _, l := range res.TraceUtoV {
			fmt.Fprintln(w, "  "+l)
		}
		fmt.Fprintln(w, "probe v→u:")
		for _, l := range res.TraceVtoU {
			fmt.Fprintln(w, "  "+l)
		}
		fmt.Fprintf(w, "\nP4 delivered: %v; tries equal: %v\n\n", res.P4Delivered, res.TriesEqual)
	}
	if section("E10", "Section 1.3 — balance vs Chord and skip graphs") {
		res := E10Balance(512, 100000, seed)
		fmt.Fprintln(w, "position balance (the paper's claim):")
		fmt.Fprintln(w, res.Position)
		fmt.Fprintln(w, "degree statistics:")
		fmt.Fprintln(w, res.Degrees)
	}
	if section("E11", "Section 4.1 — join locality while n doubles") {
		_, tb := E11JoinLocality(16, seed)
		fmt.Fprintln(w, tb)
	}
	if section("E12", "Section 3.3 — recovery from unannounced crashes") {
		_, tb := E12CrashRecovery(32, []float64{0.125, 0.25, 0.5}, seed)
		fmt.Fprintln(w, tb)
	}
	if section("E13", "Introduction — supervisor vs central broker load") {
		_, tb := E13SupervisorVsBroker(64, 50, seed)
		fmt.Fprintln(w, tb)
	}
	if section("E14", "Theorem 13 — subscriber rule firings per node per round") {
		_, tb := E14RuleRates(64, 300, 32, 200, seed)
		fmt.Fprintln(w, tb)
	}
	if only != "" && !strings.EqualFold(only, "ablations") {
		return
	}
	only = "" // the ablations print as one group
	if section("A1", "Ablation — action (iv) on/off (partitioned recovery)") {
		fmt.Fprintln(w, AblationActionIV(16, seeds, seed))
	}
	if section("A2", "Ablation — flooding vs anti-entropy-only delivery") {
		fmt.Fprintln(w, AblationFlooding(64, seed))
	}
	if section("A3", "Ablation — probe schedule (supervisor load vs repair speed)") {
		fmt.Fprintln(w, AblationProbeSchedule(32, seed))
	}
}
