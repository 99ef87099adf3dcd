// Faulttolerance: the self-stabilization demo, on the deterministic
// simulation API. Builds a 32-node topic ring, then throws the paper's
// whole catalogue of faults at it — corrupted subscriber states, a
// corrupted supervisor database, garbage in the channels, a partition into
// unrecorded components, and unannounced crashes — verifying after each
// that the system returns to the exact legitimate skip ring and that no
// publication is ever lost.
package main

import (
	"fmt"
	"log"

	"sspubsub"
)

const topic sspubsub.Topic = 1

func main() {
	sim := sspubsub.NewSimulation(sspubsub.SimOptions{Seed: 2026})
	ids := sim.AddSubscribers(32)
	sim.JoinAll(topic)

	report := func(phase string, rounds int, ok bool) {
		if !ok {
			log.Fatalf("%s: NOT converged: %s", phase, sim.Explain(topic))
		}
		fmt.Printf("%-28s re-converged in %4d rounds\n", phase, rounds)
	}

	rounds, ok := sim.RunUntilConverged(topic, 32, 5000)
	report("initial join burst", rounds, ok)

	// Seed some publications; they must survive every fault below.
	for i := 0; i < 5; i++ {
		sim.Publish(ids[i], topic, fmt.Sprintf("pub-%d", i))
	}
	sim.RunRounds(10)
	if !sim.TriesEqual(topic) {
		log.Fatal("publications did not disseminate")
	}
	fmt.Println("5 publications disseminated to all 32 subscribers")

	sim.CorruptSubscriberStates(topic)
	rounds, ok = sim.RunUntilConverged(topic, 32, 20000)
	report("corrupted all node states", rounds, ok)

	sim.CorruptSupervisorDB(topic)
	rounds, ok = sim.RunUntilConverged(topic, 32, 20000)
	report("corrupted supervisor DB", rounds, ok)

	// The garbage is spread over the following round; let it land before
	// asking whether the system is (still) legitimate, and count that round.
	sim.InjectGarbageMessages(topic, 200)
	sim.RunRounds(1)
	rounds, ok = sim.RunUntilConverged(topic, 32, 20000)
	report("200 garbage messages", rounds+1, ok)

	sim.PartitionStates(topic, 4)
	rounds, ok = sim.RunUntilConverged(topic, 32, 20000)
	report("partitioned into 4 pieces", rounds, ok)

	// Crash a quarter of the ring without warning (Section 3.3): the
	// supervisor's failure detector culls them; survivors re-form SR(24).
	members := sim.Members(topic)
	for i := 0; i < 8; i++ {
		sim.Crash(members[i*len(members)/8])
	}
	rounds, ok = sim.RunUntilConverged(topic, 24, 20000)
	report("crashed 8 of 32 nodes", rounds, ok)

	// Everything above preserved the full publication history at every
	// surviving subscriber.
	for _, id := range sim.Members(topic) {
		if got := len(sim.Publications(id, topic)); got != 5 {
			log.Fatalf("node %d lost publications: has %d of 5", id, got)
		}
	}
	if !sim.TriesEqual(topic) {
		log.Fatal("tries diverged")
	}
	fmt.Println("all survivors still hold the complete 5-publication history")
	fmt.Printf("total messages delivered: %d\n", sim.MessagesDelivered())
}
