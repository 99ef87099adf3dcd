// Package core implements the subscriber side of the BuildSR protocol —
// the paper's primary contribution (Sections 2.2, 3.2 and 4.1 of Feldmann
// et al.; Algorithms 1, 2 and 4).
//
// Each Subscriber is one per-topic protocol instance. It maintains
//
//   - its label (assigned by the supervisor, ⊥ until then),
//   - its sorted-ring neighbourhood — the two list neighbours, one per
//     side, and the closure edge — via the extended BuildRing protocol
//     (linearization with label correction),
//   - its shortcut set, derived locally from the ring neighbours' labels
//     and populated bottom-up through IntroduceShortcut messages,
//
// and talks to the supervisor through the four label-acquisition actions
// (i)–(iv) of Section 3.2.1.
//
// One departure from Algorithm 1: a Linearize carries its sender's tuple,
// and the receiver drops the delegated candidate unless its own position
// lies strictly between the sender's and the candidate's. Every hop then
// moves the candidate strictly closer, so a candidate dies within one lap
// of a cycle of survivors closed by a stale label instead of circulating
// until a timeout breaks the cycle (Subscriber.onLinearizeMsg).
//
// Every stabilization action is a named Rule, counted each time it fires
// (Client.RuleCounts, cluster.Live.RuleCounts, golden section E14). A rule
// that sends counts once per message sent; the others count once per
// firing. Against the paper:
//
//	RuleSubscribe          action (i), Algorithm 4 Timeout: Subscribe while ⊥
//	RuleProbe              action (ii), Algorithm 4 lines 7–11: GetConfiguration w.p. 1/(2^k·k²)
//	RuleRequestCloser      action (iii), Algorithm 4 SetData: GetConfiguration for a closer stored neighbour
//	RuleLocalMin           action (iv), Algorithm 4 lines 7–11: GetConfiguration while locally minimal
//	RuleLeave              Section 4.1: Unsubscribe — the request, its per-timeout retries, and the
//	                       answer of a departed instance the database re-recorded
//	RuleOwnerProbe         supervisor failover: Reregister (or Unsubscribe) to the next plane member
//	                       once the believed owner is silent
//	RuleRehome             supervisor failover: Reregister (or Unsubscribe) to a newly announced owner
//	RuleConfig             Algorithm 4 SetData: a labelled configuration applied
//	RuleConfigBottom       Algorithm 4 SetData: a ⊥ configuration clears the label
//	RuleDepart             Lemma 6: RemoveConnections to every neighbour on the unsubscribe grant
//	RuleIntroduceSelf      Algorithm 1 Timeout: Check to both list neighbours
//	RuleReside             Algorithm 1 Timeout and Algorithm 2 lines 35–38: a neighbour stored on the
//	                       wrong side is cleared and re-linearized
//	RuleClosureCheck       Algorithm 2 Timeout: an extreme Checks its closure edge
//	RuleClosureAnnounce    Algorithm 2 Timeout: an extreme without closure edge Introduces itself (CYC)
//	RuleClosurePass        Algorithm 2: a closure candidate is passed toward the opposite extreme
//	RuleClosureAdopt       Algorithm 2 Introduce, lines 30–34: an extreme adopts a closure edge
//	RuleLabelCorrection    Algorithm 1 Check: answer a stale label with an Introduce carrying ours
//	RuleAdopt              Algorithm 1 Linearize: a candidate fills an empty list slot
//	RuleDelegateDisplaced  Algorithm 1 Linearize: adopt a nearer candidate, delegate the displaced one
//	RuleDelegateCandidate  Algorithm 1 Linearize: delegate the candidate toward its position
//	RuleReferDuplicate     Algorithm 1 Linearize: refer a candidate with a duplicate label to the supervisor
//	RuleShortcutIntro      Algorithm 4 lines 12–14: introduce the level-k pair to each other
//	RuleShortcutAdopt      Algorithm 4 IntroduceShortcut: a new occupant takes a slot
//	RuleShortcutDrop       Section 3.2.2: an underived shortcut slot is dropped
//	RuleRefuse             Lemma 6: a ⊥-labelled node refuses an introduction with RemoveConnections
//
// The Linearize, Check, Introduce, IntroduceShortcut and GetConfiguration
// messages a subscriber sends are exactly the sums of the sending rules
// named in their lines above. README's "Every rule earns its place" names,
// for every rule and refinement, the test that fails without it.
package core

// Rule names one stabilization action of the subscriber protocol.
type Rule uint8

// The rules, in the order of the package documentation.
const (
	RuleSubscribe Rule = iota
	RuleProbe
	RuleRequestCloser
	RuleLocalMin
	RuleLeave
	RuleOwnerProbe
	RuleRehome
	RuleConfig
	RuleConfigBottom
	RuleDepart
	RuleIntroduceSelf
	RuleReside
	RuleClosureCheck
	RuleClosureAnnounce
	RuleClosurePass
	RuleClosureAdopt
	RuleLabelCorrection
	RuleAdopt
	RuleDelegateDisplaced
	RuleDelegateCandidate
	RuleReferDuplicate
	RuleShortcutIntro
	RuleShortcutAdopt
	RuleShortcutDrop
	RuleRefuse
	// NumRules is the number of rules.
	NumRules
)

var ruleNames = [NumRules]string{
	"(i) subscribe", "(ii) probe", "(iii) request closer", "(iv) local minimum",
	"leave", "owner probe", "re-home", "config applied", "config ⊥", "depart",
	"introduce-self", "re-side",
	"closure check", "closure announce", "closure pass", "closure adopt",
	"label correction", "adopt neighbour", "delegate displaced",
	"delegate candidate", "refer duplicate",
	"shortcut intro", "shortcut adopt", "shortcut drop", "⊥ refusal",
}

func (r Rule) String() string { return ruleNames[r] }
