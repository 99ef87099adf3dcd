package scale

import (
	"testing"
)

// TestFailoverWarm exercises the tentpole end to end at pooled scale: with
// a positive replication factor the successor adopts its warm replica, so
// failover converges without relabelling a single survivor.
func TestFailoverWarm(t *testing.T) {
	res := RunFailover(Config{N: 300, Seed: 1, ReplicationFactor: 2})
	if !res.Converged {
		t.Fatalf("warm failover did not converge: %+v", res)
	}
	if !res.ReplicaWarm {
		t.Fatalf("replicas were not warm at crash time: %+v", res)
	}
	if res.Relabelled != 0 {
		t.Fatalf("warm failover relabelled %d survivors, want 0", res.Relabelled)
	}
}

// TestFailoverCold measures the PR 5 baseline (ReplicationFactor 0): the
// successor must rebuild from subscriber Reregisters. It still converges —
// the point of the warm path is speed, not reachability.
func TestFailoverCold(t *testing.T) {
	res := RunFailover(Config{N: 300, Seed: 1})
	if !res.Converged {
		t.Fatalf("cold failover did not converge: %+v", res)
	}
	if res.ReplicaWarm {
		t.Fatalf("ReplicaWarm true with ReplicationFactor 0: %+v", res)
	}
}

// TestFailoverWarmFasterThanCold pins the headline claim: warm adoption
// beats the cold rebuild at the same N and seed.
func TestFailoverWarmFasterThanCold(t *testing.T) {
	warm := RunFailover(Config{N: 400, Seed: 7, ReplicationFactor: 1})
	cold := RunFailover(Config{N: 400, Seed: 7})
	if !warm.Converged || !cold.Converged {
		t.Fatalf("non-convergence: warm=%+v cold=%+v", warm, cold)
	}
	if warm.FailoverRounds >= cold.FailoverRounds {
		t.Fatalf("warm failover (%d rounds) not faster than cold (%d rounds)",
			warm.FailoverRounds, cold.FailoverRounds)
	}
}

// TestFailoverDeterministic replays the same configuration twice and
// requires bit-identical results — the scheduler is deterministic and the
// harness must not introduce map-order or time dependence.
func TestFailoverDeterministic(t *testing.T) {
	cfg := Config{N: 200, Seed: 3, ReplicationFactor: 2}
	a := RunFailover(cfg)
	b := RunFailover(cfg)
	if a != b {
		t.Fatalf("failover run not deterministic:\n a=%+v\n b=%+v", a, b)
	}
}

// TestFailoverReproducesRecordedSeries pins the CI failover series
// (`srsim failover -ns 1000 -workers=1`, seed 1, four supervisors) to the
// rounds and relabel counts recorded before RunFailover moved onto Harness
// and the shared plane: same node IDs, same AddNode order, same poll. The
// cold row moved twice since: 57/417 → 59/438, when a Linearize began to
// die at a receiver outside its sender–candidate interval, and 59/438 →
// 54/408, when the default pool shrank from 1,024 subscribers to 32 (pool
// phases are part of the harness schedule), and 54/408 → 60/411, when the
// self-reference drop and the shortcut-adopt Check were deleted.
func TestFailoverReproducesRecordedSeries(t *testing.T) {
	for _, want := range []FailoverResult{
		{N: 1000, RepFactor: 0, SetupRounds: 2, FailoverRounds: 60, Relabelled: 411, Converged: true},
		{N: 1000, RepFactor: 2, SetupRounds: 2, ReplicaWarm: true, FailoverRounds: 4, Converged: true},
	} {
		got := RunFailover(Config{N: want.N, Seed: 1, ReplicationFactor: want.RepFactor, Workers: 1})
		if got != want {
			t.Errorf("rf=%d:\n got  %+v\n want %+v", want.RepFactor, got, want)
		}
	}
}
