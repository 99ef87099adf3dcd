package scale

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"testing"
)

// TestScaleGolden pins the scale harness' schedule: the Digest of a Run at
// n = 1,024 and 4,096 and the RunFailover row at n = 1,024 for rf 0 and
// rf 2, all at seed 1 on one lane worker. Every field is a pure function of
// the engine's schedule, so a change that moves a delay draw, an event
// order or a supervisor decision fails here. Regenerate by deleting the
// file and running the test once, which writes it and fails:
//
//	rm internal/scale/testdata/scale.golden
//	go test -run TestScaleGolden ./internal/scale/
//
// and the file's diff shows the old → new lines.
func TestScaleGolden(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("full-size scale runs: skipped under -short and -race")
	}
	var got bytes.Buffer
	for _, n := range []int{1024, 4096} {
		fmt.Fprintln(&got, Run(Config{N: n, Seed: 1, Workers: 1}).Digest())
	}
	for _, rf := range []int{0, 2} {
		fmt.Fprintf(&got, "failover %+v\n", RunFailover(Config{N: 1024, Seed: 1, ReplicationFactor: rf, Workers: 1}))
	}
	const path = "testdata/scale.golden"
	want, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing: wrote it from this run; review and commit it", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("scale schedule differs from %s:\n got:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}
