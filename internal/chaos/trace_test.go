package chaos

import (
	"bytes"
	"strings"
	"testing"
)

// TestTraceReplaysExactly: Config.Trace prints the deterministic engine's
// execution order, so two traced runs of one scenario and seed write the
// same bytes, and those bytes hold both deliveries and timeouts. A live
// substrate refuses the option instead of silently tracing nothing.
func TestTraceReplaysExactly(t *testing.T) {
	sc, ok := Lookup("state-corruption")
	if !ok {
		t.Fatal("state-corruption is not registered")
	}
	var traces [2]bytes.Buffer
	for i := range traces {
		res := Run(sc, Config{Substrate: SubstrateSim, N: 8, Seed: 3, Trace: &traces[i]})
		if !res.Converged {
			t.Fatalf("run %d: not converged: %s", i, res.Violation)
		}
	}
	out := traces[0].String()
	for _, kind := range []string{" deliver ", " timeout "} {
		if !strings.Contains(out, kind) {
			t.Fatalf("trace (%d bytes) has no%sline", len(out), kind)
		}
	}
	if !bytes.Equal(traces[0].Bytes(), traces[1].Bytes()) {
		a, b := strings.Split(out, "\n"), strings.Split(traces[1].String(), "\n")
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				t.Fatalf("traces differ at line %d:\n  %s\n  %s", i+1, a[i], b[i])
			}
		}
		t.Fatalf("traces differ in length: %d and %d lines", len(a), len(b))
	}

	var live bytes.Buffer
	res := Run(sc, Config{Substrate: SubstrateConcurrent, N: 8, Seed: 3, Trace: &live})
	if res.Setup || !strings.Contains(res.Violation, "Trace requires the sim substrate") {
		t.Fatalf("a traced concurrent run was not refused: setup=%v violation=%q", res.Setup, res.Violation)
	}
}
