package scale

import (
	"testing"
)

// pindepN sizes the P-independence property runs: the property is
// size-independent, so the race-detector binary (and -short) shrink it.
func pindepN(t *testing.T) int {
	if raceEnabled || testing.Short() {
		return 512
	}
	return 10_000
}

// TestPIndependence is the parallel engine's core acceptance property:
// with the same seed, the full scale scenario — mass join, fan-out probe,
// crash burst, re-stabilization — produces an identical Result (round
// summaries, memory, accounting, supervisor-DB content hash) for every
// worker count, including 1 (the inline serial execution of the same
// lane-sharded schedule).
func TestPIndependence(t *testing.T) {
	n := pindepN(t)
	var base Result
	var baseDigest string
	for _, workers := range []int{1, 2, 4, 8} {
		res := Run(Config{N: n, Seed: 1, Workers: workers})
		if !res.Converged {
			t.Fatalf("workers=%d: run did not converge", workers)
		}
		if res.DBHash == "" {
			t.Fatalf("workers=%d: no supervisor-DB hash", workers)
		}
		d := res.Digest()
		if workers == 1 {
			base, baseDigest = res, d
			continue
		}
		if d != baseDigest {
			t.Errorf("workers=%d digest diverged from workers=1:\n got  %s\n want %s", workers, d, baseDigest)
		}
		// Digest covers the schedule-determined scalars; double-check the
		// structs agree field-for-field once wall-clock noise is zeroed.
		a, b := res, base
		a.JoinWallSec, a.JoinsPerSec, a.FanoutWallSec, a.StabilizeWallSec, a.Workers = 0, 0, 0, 0, 0
		b.JoinWallSec, b.JoinsPerSec, b.FanoutWallSec, b.StabilizeWallSec, b.Workers = 0, 0, 0, 0, 0
		if a != b {
			t.Errorf("workers=%d Result diverged beyond wall-clock fields:\n got  %+v\n want %+v", workers, a, b)
		}
	}
}

// TestFailoverPIndependence extends the property to the multi-supervisor
// failover scenario (ring mutation at a barrier, warm-replica adoption).
func TestFailoverPIndependence(t *testing.T) {
	n := pindepN(t) / 4
	var base FailoverResult
	for i, workers := range []int{1, 4} {
		res := RunFailover(Config{N: n, Seed: 1, ReplicationFactor: 1, Workers: workers})
		if !res.Converged {
			t.Fatalf("workers=%d: failover did not converge", workers)
		}
		if i == 0 {
			base = res
			continue
		}
		if res != base {
			t.Errorf("workers=%d failover result diverged:\n got  %+v\n want %+v", workers, res, base)
		}
	}
}

// TestQueueHighWater: the reported queue footprint is a true high-water mark (it can only be
// observed growing, never shrinks, and is positive after traffic).
func TestQueueHighWater(t *testing.T) {
	h := New(Config{N: 64, Seed: 3})
	h.JoinAll()
	h.Sched.RunRounds(4)
	mid := h.Sched.QueueHighWaterBytes()
	if mid == 0 {
		t.Fatal("high water still zero after traffic")
	}
	h.Sched.RunRounds(64) // queue drains as the system settles
	end := h.Sched.QueueHighWaterBytes()
	if end < mid {
		t.Fatalf("high water shrank: %d -> %d", mid, end)
	}
}
