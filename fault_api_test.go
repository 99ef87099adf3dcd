package sspubsub

// Public-API surface of the chaos machinery: Restart and SetMessageFault
// on the Simulation facade.

import (
	"testing"
	"time"
)

// TestSimulationRestart pins the crash → restart → re-converge cycle on
// the deterministic substrate: the restarted node comes back with stale
// state and the system absorbs it.
func TestSimulationRestart(t *testing.T) {
	s := NewSimulation(SimOptions{Seed: 3})
	defer s.Close()
	const n = 8
	ids := s.AddSubscribers(n)
	s.JoinAll(1)
	if _, ok := s.RunUntilConverged(1, n, 5000); !ok {
		t.Fatalf("no initial convergence: %s", s.Explain(1))
	}
	s.Crash(ids[2])
	if _, ok := s.RunUntilConverged(1, n-1, 10000); !ok {
		t.Fatalf("no convergence after crash: %s", s.Explain(1))
	}
	if s.Restart(ids[2]) != true {
		t.Fatal("Restart returned false for a crashed node")
	}
	if s.Restart(ids[2]) {
		t.Fatal("Restart returned true for an already-restarted node")
	}
	if _, ok := s.RunUntilConverged(1, n, 10000); !ok {
		t.Fatalf("no convergence after restart: %s", s.Explain(1))
	}
}

// TestSimulationMessageFault pins the fault filter: a drop-all filter on
// protocol traffic stalls dissemination, clearing it heals the system.
func TestSimulationMessageFault(t *testing.T) {
	s := NewSimulation(SimOptions{Seed: 4})
	defer s.Close()
	const n = 6
	s.AddSubscribers(n)
	s.JoinAll(1)
	if _, ok := s.RunUntilConverged(1, n, 5000); !ok {
		t.Fatalf("no initial convergence: %s", s.Explain(1))
	}

	// Sever every node-to-node channel (control self-sends stay exempt).
	s.SetMessageFault(func(from, to NodeID, _ Topic) FaultAction {
		if from == to {
			return FaultDeliver
		}
		return FaultDrop
	})
	members := s.Members(1)
	s.Publish(members[0], 1, "stalled")
	s.RunRounds(50)
	for _, id := range members[1:] {
		if len(s.Publications(id, 1)) != 0 {
			t.Fatalf("node %d received a publication across a severed channel", id)
		}
	}

	s.SetMessageFault(nil)
	if _, ok := s.RunUntil(5000, func() bool { return s.AllHavePubs(1, 1) && s.TriesEqual(1) }); !ok {
		t.Fatal("publication never disseminated after clearing the fault")
	}
}

// TestSimulationRestartLive exercises Restart on the concurrent runtime.
func TestSimulationRestartLive(t *testing.T) {
	s := NewSimulation(SimOptions{Runtime: RuntimeConcurrent, Seed: 5, Interval: time.Millisecond})
	defer s.Close()
	const n = 6
	ids := s.AddSubscribers(n)
	s.JoinAll(1)
	if _, ok := s.RunUntilConverged(1, n, 20000); !ok {
		t.Fatalf("no initial convergence: %s", s.Explain(1))
	}
	s.Crash(ids[0])
	if !s.Restart(ids[0]) {
		t.Fatal("Restart returned false for a crashed node")
	}
	if _, ok := s.RunUntilConverged(1, n, 20000); !ok {
		t.Fatalf("no convergence after live restart: %s", s.Explain(1))
	}
}

// TestSimulationSupervisorFailover drives the supervisor plane through the
// Simulation facade on the deterministic substrate: crash the owner of the
// topic, converge under the successor, restart, converge again.
func TestSimulationSupervisorFailover(t *testing.T) {
	s := NewSimulation(SimOptions{Runtime: RuntimeSim, Seed: 31, Protocol: Protocol{Supervisors: 3}})
	defer s.Close()
	sups := s.SupervisorIDs()
	if len(sups) != 3 {
		t.Fatalf("SupervisorIDs = %v", sups)
	}
	const n = 8
	s.AddSubscribers(n)
	s.JoinAll(1)
	if _, ok := s.RunUntilConverged(1, n, 8000); !ok {
		t.Fatalf("setup: %s", s.Explain(1))
	}
	// Crash the topic's owner, so convergence proves an actual ownership
	// migration (crashing a bystander would exercise nothing).
	owner, ok := s.h.ExpectedOwner(1)
	if !ok {
		t.Fatal("no owner on a 3-supervisor plane")
	}
	if !s.CrashSupervisor(owner) {
		t.Fatal("CrashSupervisor refused a live supervisor")
	}
	if s.CrashSupervisor(owner) {
		t.Fatal("double crash accepted")
	}
	if _, ok := s.RunUntilConverged(1, n, 8000); !ok {
		t.Fatalf("no convergence after supervisor crash: %s", s.Explain(1))
	}
	if !s.RestartSupervisor(owner) {
		t.Fatal("RestartSupervisor refused")
	}
	if _, ok := s.RunUntilConverged(1, n, 8000); !ok {
		t.Fatalf("no convergence after supervisor restart: %s", s.Explain(1))
	}
}
