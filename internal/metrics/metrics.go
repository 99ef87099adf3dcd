// Package metrics provides the small reporting toolkit used by the
// experiment harness: aligned text tables and summary statistics, so every
// experiment prints the same kind of rows the paper's claims are stated in.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Table renders rows of cells with aligned columns.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; values are rendered with %v (floats with %.3g
// unless already strings).
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case float32:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = runeLen(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && runeLen(c) > widths[i] {
				widths[i] = runeLen(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(cells)-1 {
				sb.WriteString(strings.Repeat(" ", widths[i]-runeLen(c)))
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return sb.String()
}

func runeLen(s string) int { return len([]rune(s)) }

// Summary holds order statistics over a sample.
type Summary struct {
	Count int
	Min   float64
	Max   float64
	Mean  float64
	P50   float64
	P95   float64
	P99   float64
	Std   float64
}

// Summarize computes summary statistics; it returns a zero Summary for an
// empty sample.
func Summarize(sample []float64) Summary {
	n := len(sample)
	if n == 0 {
		return Summary{}
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	var sum float64
	for _, v := range s {
		sum += v
	}
	mean := sum / float64(n)
	var ss float64
	for _, v := range s {
		ss += float64((v - mean) * (v - mean)) // rounded: no arm64 FMA
	}
	q := func(p float64) float64 {
		i := int(p * float64(n-1))
		return s[i]
	}
	return Summary{
		Count: n,
		Min:   s[0],
		Max:   s[n-1],
		Mean:  mean,
		P50:   q(0.50),
		P95:   q(0.95),
		P99:   q(0.99),
		Std:   math.Sqrt(ss / float64(n)),
	}
}

// Ints converts an int sample for Summarize.
func Ints(v []int) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	return out
}
