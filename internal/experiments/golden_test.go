package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestQuickGolden pins the paper's counts: every -quick table is a pure
// function of the seed on the deterministic engine, so the pass must
// reproduce testdata/quick.golden byte for byte. A change that moves a
// count fails here; regenerate with
//
//	go run ./cmd/experiments -quick > internal/experiments/testdata/quick.golden
//
// and the file's diff shows the old → new tables.
func TestQuickGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	Report(&got, true, 1, "")
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("-quick pass differs from testdata/quick.golden at line %d:\n got: %s\nwant: %s", i+1, gl, wl)
		}
	}
}
