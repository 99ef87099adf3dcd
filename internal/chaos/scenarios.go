package chaos

import (
	"fmt"
	"math/rand"
	"sort"

	"sspubsub/internal/ordering"
)

// Scenario is a named, declarative chaos script.
type Scenario struct {
	Name string
	// Note is a one-line description for listings.
	Note string
	// N overrides the configured member count when > 0.
	N int
	// Supervisors overrides the configured supervisor-plane size when > 0.
	Supervisors int
	// ReplicationFactor overrides the configured directory replication
	// factor when > 0 (warm-replica supervisor failover).
	ReplicationFactor int
	// DeliveryMode pins the per-topic delivery mode when non-zero
	// (overriding the configured one): ordered scenarios run every client
	// in FIFO or causal mode and arm the delivery-ordering probe.
	DeliveryMode ordering.Mode
	// Actions is the fault script, applied in order.
	Actions []Action
}

// Registry lists the named scenarios in presentation order.
var Registry = []Scenario{
	{
		Name: "crash-burst",
		Note: "a third of the members fail simultaneously; the survivors must re-form SR(n−k)",
		Actions: []Action{
			{Kind: Settle, Rounds: 5},
			{Kind: CrashBurst, Count: 4},
		},
	},
	{
		Name: "crash-restart-storm",
		Note: "repeated crash waves with stale-state restarts (every restart is an arbitrary initial state)",
		Actions: []Action{
			{Kind: CrashBurst, Count: 3},
			{Kind: Settle, Rounds: 8},
			{Kind: RestartAll},
			{Kind: Settle, Rounds: 8},
			{Kind: CrashBurst, Count: 4},
			{Kind: Settle, Rounds: 8},
			{Kind: RestartAll},
		},
	},
	{
		Name: "join-leave-churn",
		Note: "interleaved subscription churn; Theorem 7's constant-cost handshakes under load",
		Actions: []Action{
			{Kind: JoinBurst, Count: 4},
			{Kind: LeaveBurst, Count: 3},
			{Kind: Settle, Rounds: 6},
			{Kind: JoinBurst, Count: 3},
			{Kind: LeaveBurst, Count: 4},
		},
	},
	{
		Name: "partition-heal",
		Note: "the network splits three ways around the supervisor, then heals",
		Actions: []Action{
			{Kind: Partition, K: 3},
			{Kind: Settle, Rounds: 30},
			{Kind: Heal},
		},
	},
	{
		Name: "message-loss",
		Note: "25% message loss while fresh members join",
		Actions: []Action{
			{Kind: Loss, Rate: 0.25},
			{Kind: JoinBurst, Count: 4},
			{Kind: Settle, Rounds: 40},
			{Kind: Heal},
		},
	},
	{
		Name: "message-dup",
		Note: "30% duplication with mid-fault publications (idempotence of every handler)",
		Actions: []Action{
			{Kind: Duplicate, Rate: 0.3},
			{Kind: Publish, Count: 3},
			{Kind: Settle, Rounds: 30},
			{Kind: Heal},
		},
	},
	{
		Name: "message-reorder",
		Note: "half of all messages are delayed several intervals (non-FIFO channels, amplified)",
		Actions: []Action{
			{Kind: Reorder, Rate: 0.5},
			{Kind: Publish, Count: 3},
			{Kind: Settle, Rounds: 30},
			{Kind: Heal},
		},
	},
	{
		Name: "db-corruption",
		Note: "the four supervisor-database corruption cases of Section 3.1, twice",
		Actions: []Action{
			{Kind: CorruptDB},
			{Kind: Settle, Rounds: 3},
			{Kind: CorruptDB},
		},
	},
	{
		Name: "state-corruption",
		Note: "every member's ring/shortcut state is overwritten with garbage (Theorem 8's arbitrary states)",
		Actions: []Action{
			{Kind: CorruptStates},
		},
	},
	{
		Name: "split-states",
		Note: "members forced into unrecorded self-consistent chains, database wiped (Section 3.2.1's hard case)",
		Actions: []Action{
			{Kind: SplitStates, K: 3},
		},
	},
	{
		Name: "trie-divergence",
		Note: "fabricated publications diverge the tries; anti-entropy must reconcile the union",
		Actions: []Action{
			{Kind: CorruptTries, Count: 6},
			{Kind: Publish, Count: 3},
		},
	},
	{
		Name: "garbage-channels",
		Note: "a flood of corrupted protocol messages (and corrupted wire frames on the net substrate)",
		Actions: []Action{
			{Kind: GarbageTraffic, Count: 60},
			{Kind: WireGarbage, Rate: 0.2, Count: 30},
			{Kind: Settle, Rounds: 15},
			{Kind: Heal},
		},
	},
	{
		Name: "kitchen-sink",
		Note: "partition + crashes + corruption + loss, composed",
		Actions: []Action{
			{Kind: Partition, K: 2},
			{Kind: CrashBurst, Count: 2},
			{Kind: Settle, Rounds: 10},
			{Kind: Heal},
			{Kind: RestartAll},
			{Kind: CorruptDB},
			{Kind: JoinBurst, Count: 2},
			{Kind: Loss, Rate: 0.15},
			{Kind: Settle, Rounds: 20},
			{Kind: Heal},
			{Kind: CorruptTries, Count: 4},
		},
	},
	{
		Name:        "supervisor-crash",
		Note:        "1 of 4 supervisors (the topic's owner) crashes mid-publish-load; the hashdht successor adopts and rebuilds the DB from the live overlay",
		Supervisors: 4,
		Actions: []Action{
			{Kind: Settle, Rounds: 5},
			{Kind: Publish, Count: 3},
			{Kind: CrashSupervisor, Count: 1},
			{Kind: Publish, Count: 3},
			{Kind: Settle, Rounds: 10},
		},
	},
	{
		Name:        "supervisor-crash-restart",
		Note:        "the owner crashes and its successor adopts; the old owner then restarts with stale state and must reclaim ownership at a fresh epoch",
		Supervisors: 4,
		Actions: []Action{
			{Kind: CrashSupervisor, Count: 1},
			{Kind: Settle, Rounds: 60},
			{Kind: Publish, Count: 2},
			{Kind: RestartSupervisors},
			{Kind: Settle, Rounds: 10},
		},
	},
	{
		Name:        "supervisor-double-crash",
		Note:        "two supervisors (incl. the owner) crash while members churn — crash-during-migration must still converge; both restart stale",
		Supervisors: 4,
		Actions: []Action{
			{Kind: CrashSupervisor, Count: 2},
			{Kind: JoinBurst, Count: 2},
			{Kind: Settle, Rounds: 40},
			{Kind: RestartSupervisors},
		},
	},
	{
		Name:        "supervisor-directory-corruption",
		Note:        "the ownership directory itself is corrupted (hosting flags and epochs); the plane must re-agree on owners",
		Supervisors: 4,
		Actions: []Action{
			{Kind: CorruptDirectory},
			{Kind: Settle, Rounds: 5},
			{Kind: CorruptDirectory},
			{Kind: Publish, Count: 2},
		},
	},
	{
		Name:              "replica-warm-failover",
		Note:              "with directory replication on, the owner crashes mid-publish-load; the successor adopts its warm replica and announces immediately — no subscriber rebuild",
		Supervisors:       4,
		ReplicationFactor: 2,
		Actions: []Action{
			{Kind: Settle, Rounds: 12},
			{Kind: Publish, Count: 3},
			{Kind: Settle, Rounds: 8},
			{Kind: CrashSupervisor, Count: 1},
			{Kind: Publish, Count: 3},
			{Kind: Settle, Rounds: 10},
		},
	},
	{
		Name:              "supervisor-crash-during-sync",
		Note:              "a replica is corrupted so a bounded-chunk full sync is in flight when the owner crashes; adoption must cope with the half-applied sync",
		Supervisors:       4,
		ReplicationFactor: 1,
		Actions: []Action{
			{Kind: Settle, Rounds: 12},
			{Kind: CorruptReplica},
			{Kind: Settle, Rounds: 2},
			{Kind: CrashSupervisor, Count: 1},
			{Kind: Settle, Rounds: 20},
			{Kind: RestartSupervisors},
		},
	},
	{
		Name:              "supervisor-crash-corrupted-replica",
		Note:              "the successor's replica is corrupted and the owner crashes before anti-entropy can repair it; failover must detect the damage or self-stabilize from the bad warm state",
		Supervisors:       4,
		ReplicationFactor: 1,
		Actions: []Action{
			{Kind: Settle, Rounds: 12},
			{Kind: CorruptReplica},
			{Kind: CrashSupervisor, Count: 1},
			{Kind: Publish, Count: 2},
			{Kind: Settle, Rounds: 10},
		},
	},
	{
		Name:              "replica-corruption-at-rest",
		Note:              "the replicas of an owner that never fails over (era 0) are corrupted again and again — entries, stored digest, and the era below or above the owner's; anti-entropy alone must repair each",
		Supervisors:       4,
		ReplicationFactor: 2,
		Actions: []Action{
			{Kind: Settle, Rounds: 12},
			{Kind: CorruptReplica},
			{Kind: Settle, Rounds: 6},
			{Kind: CorruptReplica},
			{Kind: CorruptReplica},
			{Kind: Settle, Rounds: 6},
			{Kind: CorruptReplica},
		},
	},
	{
		Name:         "fifo-reorder-storm",
		Note:         "FIFO mode under heavy reordering: per-publisher delivery order must survive non-FIFO channels",
		DeliveryMode: ordering.FIFO,
		Actions: []Action{
			{Kind: Reorder, Rate: 0.5},
			{Kind: Publish, Count: 3},
			{Kind: Settle, Rounds: 30},
			{Kind: Heal},
		},
	},
	{
		Name:         "causal-dup-loss",
		Note:         "causal mode under duplication and loss: barriers must hold causes-before-effects without double delivery",
		DeliveryMode: ordering.Causal,
		Actions: []Action{
			{Kind: Duplicate, Rate: 0.3},
			{Kind: Loss, Rate: 0.15},
			{Kind: Publish, Count: 3},
			{Kind: Settle, Rounds: 30},
			{Kind: Heal},
		},
	},
	{
		Name:         "ordering-corruption",
		Note:         "FIFO cursors and publisher sequence counters scrambled twice; the ordered layer must self-stabilize",
		DeliveryMode: ordering.FIFO,
		Actions: []Action{
			{Kind: CorruptOrdering},
			{Kind: Publish, Count: 3},
			{Kind: Settle, Rounds: 10},
			{Kind: CorruptOrdering},
			{Kind: Publish, Count: 3},
			{Kind: Settle, Rounds: 10},
		},
	},
	{
		Name:         "causal-barrier-corruption",
		Note:         "causal coverage positions and pending buffers scrambled mid-reorder; covered-barrier delivery must re-converge",
		DeliveryMode: ordering.Causal,
		Actions: []Action{
			{Kind: Reorder, Rate: 0.3},
			{Kind: CorruptOrdering},
			{Kind: Publish, Count: 3},
			{Kind: Settle, Rounds: 30},
			{Kind: Heal},
		},
	},
}

// Lookup resolves a scenario by name.
func Lookup(name string) (Scenario, bool) {
	for _, sc := range Registry {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// Names returns the registered scenario names, sorted.
func Names() []string {
	out := make([]string, len(Registry))
	for i, sc := range Registry {
		out[i] = sc.Name
	}
	sort.Strings(out)
	return out
}

// Generate builds a random scenario from a seed: 3–8 fault actions drawn
// from the full vocabulary with settle periods interleaved, reproducible
// from the seed alone. Channel faults are always given time to bite
// (settle follows), and the engine force-heals at the end, so every
// generated scenario is convergable in principle — any failure is a
// finding.
func Generate(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	n := 3 + rng.Intn(6)
	var actions []Action
	for i := 0; i < n; i++ {
		a := randomAction(rng)
		actions = append(actions, a)
		switch a.Kind {
		case Partition, Loss, Duplicate, Reorder, WireGarbage:
			// Let the channel fault bite, then usually heal before the next
			// fault composes on top (one filter slot: a later channel fault
			// replaces this one anyway).
			actions = append(actions, Action{Kind: Settle, Rounds: 8 + rng.Intn(20)})
			if rng.Intn(3) > 0 {
				actions = append(actions, Action{Kind: Heal})
			}
		case CrashBurst:
			if rng.Intn(2) == 0 {
				actions = append(actions, Action{Kind: Settle, Rounds: 4 + rng.Intn(10)})
				actions = append(actions, Action{Kind: RestartAll})
			}
		case CrashSupervisor:
			// Give the failover time to bite, then usually bring the dead
			// supervisor back (a stale-state restart is its own fault).
			actions = append(actions, Action{Kind: Settle, Rounds: 8 + rng.Intn(20)})
			if rng.Intn(3) > 0 {
				actions = append(actions, Action{Kind: RestartSupervisors})
			}
		case Settle:
		default:
			if rng.Intn(2) == 0 {
				actions = append(actions, Action{Kind: Settle, Rounds: 2 + rng.Intn(8)})
			}
		}
	}
	return Scenario{
		Name:    fmt.Sprintf("random-%d", seed),
		Note:    "generated scenario (reproducible from the seed)",
		Actions: actions,
	}
}

// randomAction draws one action from the vocabulary. The supervisor-plane
// kinds are included unconditionally: on a single-supervisor plane they
// degrade to safe no-ops (CrashSupervisor never removes the last live
// supervisor), while `-supervisors=4` soaks compose them with every other
// fault class. Rates round the product explicitly (float64(…)) so arm64
// cannot fuse it into an FMA and draw a different rate than amd64.
func randomAction(rng *rand.Rand) Action {
	switch rng.Intn(19) {
	case 0:
		return Action{Kind: CrashBurst, Count: 1 + rng.Intn(3)}
	case 1:
		return Action{Kind: RestartAll}
	case 2:
		return Action{Kind: JoinBurst, Count: 1 + rng.Intn(3)}
	case 3:
		return Action{Kind: LeaveBurst, Count: 1 + rng.Intn(2)}
	case 4:
		return Action{Kind: Partition, K: 2 + rng.Intn(2)}
	case 5:
		return Action{Kind: Loss, Rate: 0.1 + float64(0.2*rng.Float64())}
	case 6:
		return Action{Kind: Duplicate, Rate: 0.1 + float64(0.3*rng.Float64())}
	case 7:
		return Action{Kind: Reorder, Rate: 0.2 + float64(0.3*rng.Float64())}
	case 8:
		return Action{Kind: GarbageTraffic, Count: 20 + rng.Intn(40)}
	case 9:
		return Action{Kind: CorruptStates}
	case 10:
		return Action{Kind: CorruptDB}
	case 11:
		return Action{Kind: CorruptTries, Count: 2 + rng.Intn(5)}
	case 12:
		return Action{Kind: Publish, Count: 1 + rng.Intn(3)}
	case 13:
		return Action{Kind: CrashSupervisor, Count: 1 + rng.Intn(2)}
	case 14:
		return Action{Kind: RestartSupervisors}
	case 15:
		return Action{Kind: CorruptDirectory}
	case 16:
		return Action{Kind: CorruptReplica}
	case 17:
		return Action{Kind: CorruptOrdering}
	default:
		return Action{Kind: Settle, Rounds: 3 + rng.Intn(10)}
	}
}

// GenerateOrdering builds a random ordered-delivery scenario from a seed:
// like Generate, but the draw is weighted toward the channel faults the
// ordering layer exists to absorb (reordering and duplication above all,
// plus loss and ordering-state corruption), and the scenario pins a
// delivery mode — FIFO for even seeds, causal for odd ones — so soaks
// cover both machines. Channel faults always get time to bite and are
// usually healed; the engine force-heals at the end, so every generated
// scenario is convergable in principle and any failure is a finding.
func GenerateOrdering(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	mode := ordering.FIFO
	if seed%2 != 0 {
		mode = ordering.Causal
	}
	n := 3 + rng.Intn(5)
	var actions []Action
	for i := 0; i < n; i++ {
		var a Action
		switch rng.Intn(10) {
		case 0, 1, 2:
			a = Action{Kind: Reorder, Rate: 0.3 + float64(0.4*rng.Float64())}
		case 3, 4:
			a = Action{Kind: Duplicate, Rate: 0.2 + float64(0.3*rng.Float64())}
		case 5:
			a = Action{Kind: Loss, Rate: 0.1 + float64(0.15*rng.Float64())}
		case 6:
			a = Action{Kind: CorruptOrdering}
		case 7:
			a = Action{Kind: CrashBurst, Count: 1 + rng.Intn(2)}
		case 8:
			a = Action{Kind: JoinBurst, Count: 1 + rng.Intn(2)}
		default:
			a = Action{Kind: Publish, Count: 1 + rng.Intn(3)}
		}
		actions = append(actions, a)
		switch a.Kind {
		case Reorder, Duplicate, Loss:
			// Publish while the channel fault is live — ordered delivery
			// under a clean network proves nothing — then settle, and
			// usually heal before the next fault composes on top.
			actions = append(actions, Action{Kind: Publish, Count: 1 + rng.Intn(3)})
			actions = append(actions, Action{Kind: Settle, Rounds: 8 + rng.Intn(16)})
			if rng.Intn(3) > 0 {
				actions = append(actions, Action{Kind: Heal})
			}
		case CrashBurst:
			actions = append(actions, Action{Kind: Settle, Rounds: 4 + rng.Intn(8)})
			actions = append(actions, Action{Kind: RestartAll})
		default:
			if rng.Intn(2) == 0 {
				actions = append(actions, Action{Kind: Settle, Rounds: 2 + rng.Intn(8)})
			}
		}
	}
	return Scenario{
		Name:         fmt.Sprintf("random-ordering-%d", seed),
		Note:         "generated ordered-delivery scenario (reproducible from the seed)",
		DeliveryMode: mode,
		Actions:      actions,
	}
}
