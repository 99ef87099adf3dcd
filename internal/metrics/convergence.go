package metrics

import "fmt"

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
