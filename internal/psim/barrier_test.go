package psim

import (
	"runtime"
	"testing"
	"time"
)

// withProcs runs f with GOMAXPROCS at least procs, restoring it afterwards,
// so a test can choose whether the barrier's waiters spin.
func withProcs(procs int, f func()) {
	prev := runtime.GOMAXPROCS(0)
	if procs > prev {
		runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
	}
	f()
}

// eventually polls cond until it holds or a second has passed.
func eventually(cond func() bool) bool {
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
	}
}

// allParked reports whether every helper of e is parked.
func allParked(e *Engine) bool {
	for _, w := range e.helpers {
		if !w.parked.Load() {
			return false
		}
	}
	return true
}

// TestCloseEndsHelpers: Close ends every helper goroutine whether it is
// spinning (closed right after a window) or parked (closed after the spin
// budget), with spinning waiters (a core per worker) and without: the
// goroutine count returns to its baseline each time. A leaked helper would
// add up: the benchmark builds and closes an engine per repetition.
func TestCloseEndsHelpers(t *testing.T) {
	withProcs(4, func() {
		base := runtime.NumGoroutine()
		for _, workers := range []int{2, 4, 8} {
			for _, idle := range []bool{false, true} {
				e, _ := buildMesh(Options{Seed: 3, Workers: workers}, 64, 2)
				e.RunRounds(2)
				if len(e.helpers) != workers-1 {
					t.Fatalf("workers=%d: %d helpers started, want %d", workers, len(e.helpers), workers-1)
				}
				if idle && !eventually(func() bool { return allParked(e) }) {
					t.Fatalf("workers=%d: helpers still spinning a second after the last window", workers)
				}
				e.Close()
				if !eventually(func() bool { return runtime.NumGoroutine() <= base }) {
					t.Fatalf("workers=%d idle=%v: %d goroutines after Close, baseline %d",
						workers, idle, runtime.NumGoroutine(), base)
				}
			}
		}
	})
}

// TestIdleHelpersPark: an engine left idle between RunUntil calls has no
// spinning helper once the spin budget has passed, and a parked pool
// still runs the next window (the driver's raise wakes it).
func TestIdleHelpersPark(t *testing.T) {
	withProcs(2, func() {
		e, cs := buildMesh(Options{Seed: 5, Workers: 2}, 64, 2)
		defer e.Close()
		e.RunRounds(3)
		if !e.spin {
			t.Fatal("two workers on at least two cores: the barrier should spin")
		}
		time.Sleep(2 * spinBudget)
		if !eventually(func() bool { return allParked(e) }) {
			t.Fatal("helper still spinning a second after the engine went idle")
		}
		ticks := cs[0].ticks
		e.RunRounds(3)
		if cs[0].ticks != ticks+3 {
			t.Fatalf("after parking: %d ticks, want %d", cs[0].ticks, ticks+3)
		}
	})
}

// TestOversubscribedWorkersMatchSerial: with more workers than GOMAXPROCS
// every waiter parks at once, and the schedule is still bit-identical to
// the serial engine's. GOMAXPROCS is held at 2 for the run (the workers are
// clamped to the 16 lanes, so a larger machine could not oversubscribe).
func TestOversubscribedWorkersMatchSerial(t *testing.T) {
	const n, fanout, rounds, procs = 100, 3, 20, 2
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	workers := procs + 2
	e1, cs1 := buildMesh(Options{Seed: 9, Workers: 1}, n, fanout)
	e1.RunRounds(rounds)
	want := snapshot(e1, cs1)
	e1.Close()

	e, cs := buildMesh(Options{Seed: 9, Workers: workers}, n, fanout)
	defer e.Close()
	e.RunRounds(rounds)
	if e.Workers() != workers || e.spin {
		t.Fatalf("workers=%d spin=%v: want %d workers that park at once", e.Workers(), e.spin, workers)
	}
	if got := snapshot(e, cs); got != want {
		t.Fatalf("workers=%d diverged from workers=1:\n--- got ---\n%.2000s\n--- want ---\n%.2000s", workers, got, want)
	}
}
