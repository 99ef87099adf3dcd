package chaos

import (
	"fmt"
	"math/rand"

	"sspubsub/internal/cluster"
	"sspubsub/internal/core"
	"sspubsub/internal/label"
	"sspubsub/internal/metrics"
	"sspubsub/internal/proto"
	"sspubsub/internal/sim"
	"sspubsub/internal/tokenring"
)

// tokenEnv hosts a scenario on the token-passing supervisor stack (the
// deterministic O(1)-space variant of the paper's conclusion). The action
// vocabulary is reduced — CorruptToken, CorruptStates, Settle and Publish
// are meaningful; everything else is skipped — because membership in token
// mode is repaired by the rebuild machinery rather than a database.
type tokenEnv struct {
	tr    cluster.Substrate
	cfg   Config
	topic sim.Topic
	*tokenring.Stack
	ids []sim.NodeID

	rng  *rand.Rand
	wave []wavePub
}

func newTokenEnv(cfg Config) (*tokenEnv, error) {
	tr, err := cluster.NewSubstrate(string(cfg.Substrate), cfg.Seed, cfg.Interval)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	e := &tokenEnv{
		tr:    tr,
		cfg:   cfg,
		topic: cfg.Topic,
		Stack: tokenring.NewStack(tr, cfg.N),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
	e.ids = e.IDs()
	e.JoinAll(e.topic)
	return e, nil
}

func (e *tokenEnv) close() { e.tr.Close() }

// violation checks the token-mode invariants: supervisor O(1)-state
// integrity, committed ring size = live membership, exact overlay
// legitimacy of the label assignment the token derives, trie agreement and
// wave delivery.
func (e *tokenEnv) violation() string {
	if msg := e.Sup.CheckIntegrity(e.topic); msg != "" {
		return "token-integrity: " + msg
	}
	if n := e.Sup.N(e.topic); n != len(e.ids) {
		return fmt.Sprintf("token-integrity: committed ring size %d, %d live nodes", n, len(e.ids))
	}
	if joined, msg := e.Explain(e.topic); joined != len(e.ids) {
		return fmt.Sprintf("overlay-legitimacy: %d of %d nodes joined", joined, len(e.ids))
	} else if msg != "" {
		return "overlay-legitimacy: " + msg
	}
	if msg := trieAgreementViolation(e.ids, func(id sim.NodeID) [16]byte {
		return e.Nodes[id].Client.TrieRootHash(e.topic)
	}); msg != "" {
		return "trie-consistency: " + msg
	}
	if msg := waveViolation(e.ids, e.wave, func(id sim.NodeID) []proto.Publication {
		return e.Nodes[id].Client.Publications(e.topic)
	}); msg != "" {
		return "delivery-completeness: " + msg
	}
	return ""
}

// corrupt scrambles the token supervisor's O(1) state and a third of the
// nodes' explicit overlay states.
func (e *tokenEnv) corrupt() {
	e.Sup.CorruptTopicState(e.topic, e.rng)
	for i, id := range e.ids {
		if i%3 != 0 {
			continue
		}
		in, ok := e.Nodes[id].Client.Instance(e.topic)
		if !ok {
			continue
		}
		lab := label.FromIndex(e.rng.Uint64() % 64)
		other := e.ids[e.rng.Intn(len(e.ids))]
		in.Sub.ForceState(lab,
			proto.Tuple{L: label.FromIndex(e.rng.Uint64() % 64), Ref: other},
			proto.Tuple{}, proto.Tuple{}, nil)
	}
}

// runToken executes a token-mode scenario.
func runToken(sc Scenario, cfg Config) Result {
	res := Result{
		Scenario:  sc.Name,
		Substrate: cfg.Substrate,
		Seed:      cfg.Seed,
		N:         cfg.N,
		Rounds:    -1,
		Actions:   sc.Actions,
	}
	e, err := newTokenEnv(cfg)
	if err != nil {
		res.Violation = err.Error()
		return res
	}
	defer e.close()

	if _, ok := sim.RunRoundsUntil(e.tr, cfg.SetupRounds, func() bool { return e.violation() == "" }); !ok {
		setupViolation := "system did not quiesce"
		e.tr.Freeze(func() { setupViolation = e.violation() })
		res.Violation = "setup: " + setupViolation
		return res
	}
	res.Setup = true
	cfg.logf("chaos: [%s] %s: token ring of %d converged; applying %d actions",
		cfg.Substrate, sc.Name, cfg.N, len(sc.Actions))

	var watch metrics.Stopwatch
	for _, a := range sc.Actions {
		switch a.Kind {
		case Settle:
			e.tr.RunRounds(max(1, a.Rounds))
		case Publish:
			for i := 0; i < max(1, a.Count); i++ {
				id := e.ids[e.rng.Intn(len(e.ids))]
				e.send(id, core.PublishCmd{Payload: fmt.Sprintf("mid-%d", i)})
			}
		case CorruptToken, CorruptStates, CorruptDB:
			cfg.logf("chaos:   %s", a)
			watch.Fault(e.tr.Now())
			e.tr.Freeze(e.corrupt)
			res.FaultActions++
		default:
			cfg.logf("chaos:   %s (skipped in token mode)", a)
		}
	}

	watch.Fault(e.tr.Now())
	for i := 0; i < cfg.DeliveryWave; i++ {
		payload := fmt.Sprintf("wave-%d", i)
		id := e.ids[e.rng.Intn(len(e.ids))]
		e.wave = append(e.wave, wavePub{Payload: payload, Origin: id})
		e.send(id, core.PublishCmd{Payload: payload})
	}

	finish(e.tr, &res, &watch, cfg.ConvergeRounds, e.violation)
	cfg.logf("chaos: %s", res)
	return res
}

// send issues a control command to a node through the transport.
func (e *tokenEnv) send(id sim.NodeID, body any) {
	e.tr.Send(sim.Message{To: id, From: id, Topic: e.topic, Body: body})
}
