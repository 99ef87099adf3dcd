package metrics

import "fmt"

// Stopwatch measures convergence time the way the paper's theorems state
// it: the interval between the moment the last fault was injected and the
// moment every invariant probe holds again. Time is whatever monotonic
// clock the substrate provides (virtual rounds on the deterministic
// engine, wall-clock timeout intervals on the live runtimes).
type Stopwatch struct {
	faultAt     float64
	convergedAt float64
	faults      int
	converged   bool
}

// Fault records a fault injection at time now. Later faults overwrite
// earlier ones — convergence is measured from the last fault — and any
// previously recorded convergence is voided.
func (w *Stopwatch) Fault(now float64) {
	w.faultAt = now
	w.faults++
	w.converged = false
}

// Converge records that all probes passed at time now. Only the first
// convergence after the most recent fault sticks.
func (w *Stopwatch) Converge(now float64) {
	if w.converged {
		return
	}
	w.convergedAt = now
	w.converged = true
}

// Faults returns the number of faults recorded.
func (w *Stopwatch) Faults() int { return w.faults }

// Converged reports whether a convergence has been recorded after the
// last fault.
func (w *Stopwatch) Converged() bool { return w.converged }

// Rounds returns the measured convergence time (last fault → probes
// pass), or -1 when convergence has not been recorded. A run with no
// faults converges in 0 rounds by definition — even if no probe ever ran,
// so the zero-fault check must precede the converged check (a fault-free
// run previously reported -1 when Converge was never called).
func (w *Stopwatch) Rounds() float64 {
	if w.faults == 0 {
		return 0
	}
	if !w.converged {
		return -1
	}
	if w.convergedAt < w.faultAt {
		return 0 // probes already held when the fault landed (no-op fault)
	}
	return w.convergedAt - w.faultAt
}

// Convergence aggregates convergence times across many runs (a scenario
// sweep, a soak): successes feed the sample, failures are counted.
type Convergence struct {
	sample   []float64
	failures int
}

// Observe records one run: rounds is the measured convergence time (only
// consulted when ok), ok is whether the run converged at all.
func (c *Convergence) Observe(rounds float64, ok bool) {
	if !ok {
		c.failures++
		return
	}
	c.sample = append(c.sample, rounds)
}

// Runs returns the total number of observed runs.
func (c *Convergence) Runs() int { return len(c.sample) + c.failures }

// Failures returns the number of runs that never converged.
func (c *Convergence) Failures() int { return c.failures }

// Summary returns order statistics over the converged runs' times.
func (c *Convergence) Summary() Summary { return Summarize(c.sample) }

// String renders a one-line report for soak logs.
func (c *Convergence) String() string {
	s := c.Summary()
	return fmt.Sprintf("%d runs, %d failures; convergence rounds min %.1f p50 %.1f p95 %.1f max %.1f",
		c.Runs(), c.failures, s.Min, s.P50, s.P95, s.Max)
}
