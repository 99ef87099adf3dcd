package concurrent_test

import (
	"testing"
	"time"

	"sspubsub/internal/cluster"
	"sspubsub/internal/runtime/concurrent"
	"sspubsub/internal/runtime/nettransport"
)

// Both live substrates offer the whole driver surface: the net transport
// through the runtime it embeds.
var (
	_ cluster.Driver = (*concurrent.Runtime)(nil)
	_ cluster.Driver = (*nettransport.Transport)(nil)
)

// TestDriverRand: the driver's random source is a function of Options.Seed
// alone, so two runtimes with one seed draw the same sequence, and another
// seed draws a different one.
func TestDriverRand(t *testing.T) {
	draws := func(seed int64) []int64 {
		r := concurrent.NewRuntime(concurrent.Options{Interval: time.Millisecond, Seed: seed})
		defer r.Close()
		out := make([]int64, 16)
		for i := range out {
			out[i] = r.Rand().Int63()
		}
		return out
	}
	a, b, c := draws(5), draws(5), draws(6)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d: seed 5 gave %d and %d", i, a[i], b[i])
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Fatal("seeds 5 and 6 drew the same sequence")
	}
}
