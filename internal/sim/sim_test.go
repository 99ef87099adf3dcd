package sim

import (
	"fmt"
	"testing"
)

type testBody struct{ X int }

// TestTypeNameMatchesReflection: TypeName must render exactly what
// fmt.Sprintf("%T", …) renders, for named and built-in types, pointers,
// and nil.
func TestTypeNameMatchesReflection(t *testing.T) {
	for _, body := range []any{testBody{}, &testBody{}, nil, "str", 42} {
		want := fmt.Sprintf("%T", body)
		if got := TypeName(body); got != want {
			t.Errorf("TypeName(%v) = %q, want %q", body, got, want)
		}
	}
}

// TestTypeTally: a tally counts by dynamic type under TypeName's names,
// and Merge and Reset keep the counts exact.
func TestTypeTally(t *testing.T) {
	var a, b TypeTally
	for _, body := range []any{1, "x", 2, nil, testBody{}} {
		a.Add(body)
	}
	b.Add("y")
	b.Add(&testBody{})
	a.Merge(&b)
	want := map[string]int64{"int": 2, "string": 2, "<nil>": 1, "sim.testBody": 1, "*sim.testBody": 1}
	for name, n := range want {
		if got := a.Count(name); got != n {
			t.Errorf("Count(%s) = %d, want %d", name, got, n)
		}
	}
	seen := make(map[string]bool)
	a.EachName(func(name string) { seen[name] = true })
	if len(seen) != len(want) {
		t.Errorf("EachName visited %v, want the %d types counted", seen, len(want))
	}
	a.Reset()
	if a.Count("int") != 0 {
		t.Error("Reset kept a count")
	}
}

func TestMessageString(t *testing.T) {
	m := Message{To: 2, From: 1, Topic: 3, Body: "hello"}
	if got := m.String(); got != "1→2 t3 string" {
		t.Errorf("String() = %q", got)
	}
}

func TestNeverSuspects(t *testing.T) {
	if NeverSuspects().Suspects(5) {
		t.Error("NeverSuspects suspected someone")
	}
}

// clock is a scripted Stepper: a round adds `round` to the time (1 on a
// virtual clock; a live runtime's wall clock overshoots), and the first
// `stuck` Freeze calls time out without running f.
type clock struct {
	now, round float64
	stuck      int
	freezes    int
}

func (c *clock) RunRounds(k int) { c.now += float64(k) * c.round }
func (c *clock) Now() float64    { return c.now }
func (c *clock) Freeze(f func()) bool {
	c.freezes++
	if c.freezes <= c.stuck {
		return false
	}
	f()
	return true
}

func TestRunRoundsUntil(t *testing.T) {
	cases := []struct {
		name       string
		c          clock
		max        int
		holdsAt    float64 // pred: now >= holdsAt
		wantRounds int
		wantOK     bool
		wantPreds  int // Freeze calls
	}{
		{"already true costs no round", clock{now: 3, round: 1}, 10, 0, 0, true, 1},
		{"virtual time counts rounds exactly", clock{now: 3, round: 1}, 100, 13, 10, true, 11},
		{"fractional start does not lose a round to rounding", clock{now: 0.05, round: 1}, 100, 9.05, 9, true, 10},
		{"budget exhausted", clock{round: 1}, 5, 1e9, 5, false, 6},
		{"wall clock: rounds are elapsed time, not iterations", clock{round: 2.5}, 100, 5, 5, true, 3},
		{"wall clock overshooting the budget stops", clock{round: 2.5}, 4, 1e9, 4, false, 3},
		{"a snapshot that cannot be taken counts as not yet", clock{round: 1, stuck: 2}, 10, 0, 2, true, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.c
			rounds, ok := RunRoundsUntil(&c, tc.max, func() bool { return c.now >= tc.holdsAt })
			if rounds != tc.wantRounds || ok != tc.wantOK || c.freezes != tc.wantPreds {
				t.Fatalf("got (%d, %v) after %d snapshots, want (%d, %v) after %d",
					rounds, ok, c.freezes, tc.wantRounds, tc.wantOK, tc.wantPreds)
			}
		})
	}
}
