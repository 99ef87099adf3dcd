//go:build race

package sspubsub

// raceEnabled reports that this test binary runs under the race detector,
// whose instrumentation changes allocation counts: the allocation budgets
// do not apply.
const raceEnabled = true
