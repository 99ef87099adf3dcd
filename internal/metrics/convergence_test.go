package metrics

import (
	"strings"
	"testing"
)

func TestConvergenceAggregation(t *testing.T) {
	var c Convergence
	for _, r := range []float64{10, 20, 30, 40} {
		c.Observe(r, true)
	}
	c.Observe(0, false)
	c.Observe(0, false)
	if c.Runs() != 6 {
		t.Fatalf("Runs() = %d, want 6", c.Runs())
	}
	if c.Failures() != 2 {
		t.Fatalf("Failures() = %d, want 2", c.Failures())
	}
	s := c.Summary()
	if s.Count != 4 || s.Min != 10 || s.Max != 40 || s.Mean != 25 {
		t.Fatalf("Summary() = %+v, want count 4, min 10, max 40, mean 25", s)
	}
	if out := c.String(); !strings.Contains(out, "6 runs, 2 failures") {
		t.Fatalf("String() = %q", out)
	}
}
