package cluster

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"sspubsub/internal/core"
	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
)

// sendingRules names, for each message type only subscribers send, the
// rules that send it.
var sendingRules = map[string][]core.Rule{
	sim.TypeName(proto.Linearize{}):         {core.RuleDelegateDisplaced, core.RuleDelegateCandidate},
	sim.TypeName(proto.Check{}):             {core.RuleIntroduceSelf, core.RuleClosureCheck, core.RuleShortcutAdopt},
	sim.TypeName(proto.Introduce{}):         {core.RuleClosureAnnounce, core.RuleClosurePass, core.RuleLabelCorrection},
	sim.TypeName(proto.IntroduceShortcut{}): {core.RuleShortcutIntro},
}

// e6Rate is E6's steady-state message rate per node per round
// (testdata/quick.golden); a crash cycle whose rule firings exceed ten
// times it is logged rule by rule.
const e6Rate = 4.056

// TestRuleCountsMatchTraffic: every subscriber send is counted by exactly
// one rule, on every substrate. Join 32, then cycles of crashing 4 random
// members, re-converging and regrowing 4; without garbage only subscribers
// send Linearize, Check, Introduce and IntroduceShortcut, so once quiescent
// the sums of their sending rules must equal the transport's per-type send
// counts — an uncounted send site fails it.
func TestRuleCountsMatchTraffic(t *testing.T) {
	const n, k, cycles, seed = 32, 4, 3, 101
	for _, kind := range []string{"sim", "concurrent", "net"} {
		t.Run(kind, func(t *testing.T) {
			tr, err := NewSubstrate(kind, seed, 10*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			l := New(tr, Options{})
			converge := func(want int) {
				t.Helper()
				if _, ok := l.RunUntilConverged(topicA, want, 5000); !ok {
					t.Fatalf("no convergence with %d members: %s", want, l.Explain(topicA))
				}
			}
			counts := func() (c [core.NumRules]uint64) {
				if !l.Freeze(func() { c = l.RuleCounts(topicA) }) {
					t.Fatal("the system never quiesced")
				}
				return c
			}
			l.AddClients(n)
			l.JoinAll(topicA)
			converge(n)

			rng := rand.New(rand.NewSource(seed))
			for cycle := 0; cycle < cycles; cycle++ {
				before, start := counts(), l.Now()
				members := l.Members(topicA)
				rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
				for _, id := range members[:k] {
					l.Crash(id)
				}
				converge(n - k)
				for i := 0; i < k; i++ {
					l.Join(l.AddClient(), topicA)
				}
				converge(n)
				after, rounds := counts(), l.Now()-start
				var total uint64
				for r := range after {
					total += after[r] - before[r]
				}
				if rate := float64(total) / n / rounds; rate > 10*e6Rate {
					var sb strings.Builder
					for r := core.Rule(0); r < core.NumRules; r++ {
						if d := after[r] - before[r]; d > 0 {
							fmt.Fprintf(&sb, "\n  %-20s %8d  %.2f", r, d, float64(d)/n/rounds)
						}
					}
					t.Logf("cycle %d: %.0f rule firings per node per round over %.0f rounds (E6: %.2f); per rule:%s",
						cycle, rate, rounds, e6Rate, sb.String())
				}
			}

			if !l.Freeze(func() {
				c := l.RuleCounts(topicA)
				for typ, rules := range sendingRules {
					var sum uint64
					for _, r := range rules {
						sum += c[r]
					}
					if sent := l.CountByType(typ); uint64(sent) != sum {
						t.Errorf("%s: transport counted %d sends, its rules %v count %d", typ, sent, rules, sum)
					}
				}
			}) {
				t.Fatal("the system never quiesced")
			}
		})
	}
}
