//go:build race

package nettransport

// raceEnabled reports that this test binary runs under the race detector,
// whose instrumentation changes allocation counts: the allocation budget
// does not apply.
const raceEnabled = true
