package load

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Metric is one named measurement.
type Metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	// Samples is how many observations the value summarises (0: a direct
	// measurement or a count).
	Samples int `json:"samples,omitempty"`
}

// Result is one run of one workload.
type Result struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// Violations lists every correctness check that did not hold; a run is
	// correct when it is empty.
	Violations []string `json:"violations"`
	// Metrics are the run's gated numbers (end-to-end for the untraced
	// binary, per-layer for the traced one); Diagnostics are printed but
	// never gated.
	Metrics     []Metric `json:"metrics"`
	Diagnostics []Metric `json:"diagnostics"`
	Env         Env      `json:"env"`
}

// Correct reports whether every correctness check held.
func (r *Result) Correct() bool { return len(r.Violations) == 0 }

// Get returns the named metric's value (gated metrics first).
func (r *Result) Get(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	for _, m := range r.Diagnostics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// Print writes the run for a reader: the environment stamp, the counts, every
// metric by name with its unit, then the diagnostics.
func (r *Result) Print(w io.Writer) {
	e := r.Env
	fmt.Fprintf(w, "== %s  seed=%d seconds=%g  [commit %s, nproc %d, GOMAXPROCS %d, %s, %s]\n",
		r.Workload, r.Seed, r.Seconds, e.Commit, e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.Link)
	fmt.Fprintf(w, "   attempted=%d failed=%d failed_share=%.5f correct=%v\n",
		r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)), r.Correct())
	for _, v := range r.Violations {
		fmt.Fprintf(w, "   VIOLATION: %s\n", v)
	}
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "   %-26s %14.4f %-5s (n=%d)\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	for _, m := range r.Diagnostics {
		fmt.Fprintf(w, "   . %-24s %14.4f %-5s (n=%d)\n", m.Name, m.Value, m.Unit, m.Samples)
	}
}

// DriverLine is the one JSON object the benchmark driver reads from the last
// line of standard output: the counts and exactly the named metrics.
func (r *Result) DriverLine(names []string) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(names))
	for _, name := range names {
		for _, m := range r.Metrics {
			if m.Name == name {
				metrics[name] = value{m.Value, m.Unit}
			}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.Correct(),
		"attempted": max(r.Attempted, 1),
		"failed":    r.Failed,
		"metrics":   metrics,
	})
	if err != nil { // only a NaN or infinite value can do this
		return `{"correct":false,"attempted":1,"failed":1,"metrics":{}}`
	}
	return string(line)
}

// WriteResults stores results as indented JSON.
func WriteResults(path string, results []*Result) error {
	b, err := json.MarshalIndent(results, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadResults loads what WriteResults stored.
func ReadResults(path string) ([]*Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var results []*Result
	return results, json.Unmarshal(b, &results)
}

// Env is the environment stamp every output carries. Numbers from different
// stamps are not comparable.
type Env struct {
	Commit     string `json:"commit"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Link       string `json:"link"`
}

// Stamp describes where the numbers were taken. The commit comes from the
// BENCH_COMMIT environment variable: the benchmark also runs in checkouts
// that are not git repositories.
func Stamp() Env {
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return Env{
		Commit:     commit,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Link:       "loopback TCP in one process, not a real link",
	}
}

// Percentile reads the p-quantile (0 ≤ p ≤ 1) off an ascending slice.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// Median sorts a copy of xs and returns its middle (mean of the two middle
// values for even lengths).
func Median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// Quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method), which
// is what the benchmark's acceptance rule is written against.
func Quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := k*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// PeakRSSMB reads the process's peak resident set from /proc (0 where that
// is unavailable).
func PeakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
